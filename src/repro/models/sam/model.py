"""The Sam facade and :class:`SamPredictor` (the segment-anything API).

``SamPredictor`` mirrors the upstream interface: ``set_image`` once per
image, then ``predict`` per prompt.  Two paths sit behind it:

* the **analytic path** — :class:`AnalyticMaskHead` — which supplies every
  returned mask and quality score (the substitution for pretrained
  hypernetwork weights; see DESIGN.md).  ``set_image`` prepares only its
  context, and ``masks_from_box`` / ``masks_from_points`` read nothing else;
* the **transformer path** — ViT encoder → prompt encoder → two-way mask
  decoder — which runs on demand: the :attr:`SamPredictor.embedding` is
  encoded on first read, and ``predict`` / ``decode_boxes`` decode from it,
  exposing token outputs and logits via ``last_decoder_output``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...cache import MISS, InferenceCache, array_content_key, combine_keys, config_fingerprint, get_cache
from ...errors import ModelConfigError, PromptError
from ...utils.rng import derive_seed
from ..nn import ParamFactory
from .analytic import AnalyticContext, AnalyticMaskHead, MaskHypothesis
from .image_encoder import ImageEncoderViT
from .mask_decoder import DecoderOutput, MaskDecoder
from .prompt_encoder import PromptEncoder

__all__ = ["SamConfig", "Sam", "SamPredictor"]


def _ctx_key(image_key: str) -> str:
    """``sam.image`` key of an image's analytic context.

    The suffix keeps a context from ever being served a cache entry filed
    under the bare image key, such as an ``(embedding, context)`` tuple
    written to a shared disk tier by an older layout.
    """
    return combine_keys(image_key, "ctx")


@dataclass(frozen=True)
class SamConfig:
    """Architecture hyper-parameters (mirrors SAM's ViT variants)."""

    name: str = "vit_t"
    patch_size: int = 16
    encoder_dim: int = 96
    encoder_depth: int = 4
    encoder_heads: int = 4
    encoder_window: int = 0  # 0 = all-global attention; SAM ViT-H uses 14
    prompt_dim: int = 64
    decoder_depth: int = 2
    decoder_heads: int = 4
    num_multimask: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.prompt_dim % 4:
            raise ModelConfigError("prompt_dim must be divisible by 4")
        if self.num_multimask < 1:
            raise ModelConfigError("num_multimask must be >= 1")


class Sam:
    """Container tying encoder, prompt encoder, decoder, and analytic head."""

    def __init__(self, config: SamConfig | None = None, *, analytic: AnalyticMaskHead | None = None) -> None:
        self.config = config or SamConfig()
        params = ParamFactory(derive_seed(self.config.seed, "sam", self.config.name))
        c = self.config
        self.image_encoder = ImageEncoderViT(
            params.child("image_encoder"),
            patch_size=c.patch_size,
            embed_dim=c.encoder_dim,
            depth=c.encoder_depth,
            n_heads=c.encoder_heads,
            out_chans=c.prompt_dim,
            window_size=c.encoder_window,
        )
        self.prompt_encoder = PromptEncoder(params.child("prompt_encoder"), embed_dim=c.prompt_dim)
        self.mask_decoder = MaskDecoder(
            params.child("mask_decoder"),
            embed_dim=c.prompt_dim,
            n_heads=c.decoder_heads,
            depth=c.decoder_depth,
            num_multimask=c.num_multimask,
        )
        self.analytic = analytic or AnalyticMaskHead()


class SamPredictor:
    """Stateful per-image predictor (the API applications use)."""

    def __init__(self, sam: Sam | None = None, *, cache: InferenceCache | None = None) -> None:
        self.sam = sam or Sam()
        self.cache = cache if cache is not None else get_cache()
        self._image: np.ndarray | None = None
        self._content_key: str | None = None
        self._image_key: str | None = None
        self._embedding: np.ndarray | None = None
        self._dense_pe: np.ndarray | None = None
        self._ctx: AnalyticContext | None = None
        self.last_decoder_output: DecoderOutput | None = None

    @cached_property
    def _fingerprint(self) -> str:
        """Cache-key fingerprint: config ⊕ analytic head, memoised on first read.

        Any config or analytic-head change made before the first key is
        built invalidates every cached product of this predictor.
        """
        return config_fingerprint(self.sam.config, self.sam.analytic)

    @property
    def is_image_set(self) -> bool:
        return self._image is not None

    @property
    def analytic_context(self) -> AnalyticContext:
        if self._ctx is None:
            raise PromptError("call set_image before predicting")
        return self._ctx

    @staticmethod
    def _normalize_image(image: np.ndarray) -> np.ndarray:
        """Shared set_image/precompute_images normalisation and validation.

        Both paths must produce byte-identical arrays — the cache key hashes
        the normalised content, so any divergence here would split the keys.
        """
        img = np.asarray(image, dtype=np.float32)
        if img.ndim == 3:
            img = img.mean(axis=2)
        if img.ndim != 2:
            raise PromptError(f"set_image expects HxW (or HxWxC) array, got shape {img.shape}")
        # Written so that NaN fails too: the analytic head bins pixels by value.
        if not (img.min() >= -1e-4 and img.max() <= 1 + 1e-4):
            raise PromptError("set_image expects a [0,1] float image; run the adaptation layer first")
        return img

    def set_image(self, image: np.ndarray) -> None:
        """Take a float [0,1] grayscale image and prepare its analytic context.

        The context (smoothed image, gradients, noise level, Otsu split) is
        all the analytic head reads, so this is the only per-image work;
        it is cached in ``sam.image``.  The ViT embedding is not computed
        here: :attr:`embedding` encodes it on first read.
        """
        img = self._normalize_image(image)
        self._image = img
        self._content_key = array_content_key(img)
        self._image_key = combine_keys(self._content_key, self._fingerprint)
        self._ctx = self.cache.get_or_compute(
            "sam.image", _ctx_key(self._image_key), lambda: self.sam.analytic.prepare(img)
        )
        self._embedding = None
        self._dense_pe = None
        self.last_decoder_output = None

    @property
    def embedding(self) -> np.ndarray:
        """The ViT embedding ``(gh, gw, D)`` of the current image, encoded on first read.

        Cached in ``sam.embedding``; the dense positional encoding the
        decoder pairs with it is filled at the same time.
        """
        if self._image is None:
            raise PromptError("call set_image before predicting")
        if self._embedding is None:
            img = self._image
            key = combine_keys(self._content_key, self._fingerprint)
            embedding = self.cache.get_or_compute(
                "sam.embedding", key, lambda: self.sam.image_encoder(img)
            )
            gh, gw, _ = embedding.shape
            pe_key = combine_keys(f"{gh}x{gw}", self._fingerprint)
            self._dense_pe = self.cache.get_or_compute(
                "sam.dense_pe", pe_key, lambda: self.sam.prompt_encoder.dense_pe((gh, gw))
            )
            self._embedding = embedding
        return self._embedding

    def precompute_images(self, images) -> dict[str, int]:
        """Warm the ``sam.embedding`` and ``sam.image`` caches in one batched encode.

        Computes exactly the embedding and analytic context that
        :meth:`set_image` and :attr:`embedding` would store, under the
        identical keys, so both are pure cache hits afterwards on any of
        these images — in this process or any other sharing the disk
        tier.  Images with both entries cached (or repeated within the
        batch) are skipped.

        Returns ``{"hits": already-cached, "encoded": newly-computed}``.
        With caching disabled this is a no-op: there is nowhere to put the
        embeddings, so batching would be pure waste.
        """
        if not self.cache.enabled:
            return {"hits": 0, "encoded": 0}
        normalized: list[np.ndarray] = []
        keys: list[str] = []
        for image in images:
            img = self._normalize_image(image)
            normalized.append(img)
            keys.append(combine_keys(array_content_key(img), self._fingerprint))
        pending: list[int] = []
        seen: set[str] = set()
        for i, key in enumerate(keys):
            if key in seen or (
                self.cache.get("sam.embedding", key) is not MISS
                and self.cache.get("sam.image", _ctx_key(key)) is not MISS
            ):
                continue
            seen.add(key)
            pending.append(i)
        if pending:
            embeddings = self.sam.image_encoder.encode_batch([normalized[i] for i in pending])
            for i, embedding in zip(pending, embeddings):
                self.cache.put("sam.embedding", keys[i], embedding)
                self.cache.put("sam.image", _ctx_key(keys[i]), self.sam.analytic.prepare(normalized[i]))
        return {"hits": len(keys) - len(pending), "encoded": len(pending)}

    def reset_image(self) -> None:
        self._image = None
        self._content_key = None
        self._image_key = None
        self._embedding = None
        self._dense_pe = None
        self._ctx = None
        self.last_decoder_output = None

    def predict(
        self,
        *,
        point_coords: np.ndarray | None = None,
        point_labels: np.ndarray | None = None,
        box: np.ndarray | None = None,
        mask_input: np.ndarray | None = None,
        multimask_output: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment with the given prompt.

        Returns ``(masks, scores, low_res_logits)`` with masks sorted by
        score descending; ``multimask_output=False`` keeps only the best.
        """
        embedding = self.embedding
        h, w = self._image.shape
        gh, gw, _ = embedding.shape

        sparse, dense = self.sam.prompt_encoder.encode(
            (h, w),
            points=point_coords,
            labels=point_labels,
            box=box,
            mask_input=mask_input,
            grid=(gh, gw),
        )
        self.last_decoder_output = self.sam.mask_decoder(embedding, self._dense_pe, sparse, dense)

        # The prompt encoder has rejected a call with neither box nor points.
        hyps: list[MaskHypothesis] = []
        if box is not None:
            hyps += self.masks_from_box(np.asarray(box))
        if point_coords is not None:
            hyps += self.masks_from_points(point_coords, point_labels)

        hyps = sorted(hyps, key=lambda hh: -hh.score)
        if not multimask_output:
            hyps = hyps[:1]
        masks = np.stack([hh.mask for hh in hyps], axis=0)
        scores = np.array([hh.score for hh in hyps], dtype=np.float32)
        n = len(hyps)
        logits = self.last_decoder_output.mask_logits
        low_res = logits[: n] if logits.shape[0] >= n else np.repeat(logits[:1], n, axis=0)
        return masks, scores, low_res

    # -- batched box prompts ---------------------------------------------------

    def decode_boxes(self, boxes: np.ndarray) -> list[DecoderOutput]:
        """Run the transformer path for K box prompts in ONE decoder pass.

        Stacks all box tokens into a ``(K, 2, D)`` prompt batch so the
        prompt-encoder/mask-decoder matmuls execute once at shape ``(K, …)``
        instead of K times.  Sets ``last_decoder_output`` to the final box's
        output, matching a serial prompt loop.  Decoder outputs are cached
        per (image content, box set).
        """
        embedding = self.embedding
        b = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
        if b.shape[0] == 0:
            return []
        key = combine_keys(self._image_key, array_content_key(b))
        outputs = self.cache.get("sam.decode", key)
        if outputs is MISS:
            h, w = self._image.shape
            sparse = self.sam.prompt_encoder.encode_boxes((h, w), b)
            outputs = self.sam.mask_decoder.decode_batch(embedding, self._dense_pe, sparse)
            self.cache.put("sam.decode", key, outputs)
        self.last_decoder_output = outputs[-1]
        return outputs

    def predict_boxes(
        self, boxes: np.ndarray, *, multimask_output: bool = True
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Batched equivalent of calling :meth:`predict` once per box.

        Returns one ``(masks, scores, low_res_logits)`` triple per box, in
        input order, with the decoder run once for the whole box stack.
        """
        b = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
        outputs = self.decode_boxes(b)
        results: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for box, out in zip(b, outputs):
            hyps = sorted(self.masks_from_box(box), key=lambda hh: -hh.score)
            if not multimask_output:
                hyps = hyps[:1]
            masks = np.stack([hh.mask for hh in hyps], axis=0)
            scores = np.array([hh.score for hh in hyps], dtype=np.float32)
            n = len(hyps)
            logits = out.mask_logits
            low_res = logits[:n] if logits.shape[0] >= n else np.repeat(logits[:1], n, axis=0)
            results.append((masks, scores, low_res))
        return results

    def masks_from_box(self, box: np.ndarray) -> list[MaskHypothesis]:
        """Analytic hypotheses for one box on the current image, cached.

        HITL loops and grounded selection revisit the same (image, box)
        pairs; content addressing makes the second visit free.  Each
        hypothesis holds only its window mask and is scored when its
        ``score`` is first read, so a cached list costs O(box) bytes and
        a caller that never ranks by score never pays for scoring.  The
        ``win`` key suffix keeps full-frame, eagerly scored lists that an
        older layout wrote to a shared disk tier from ever being served.
        """
        if self._ctx is None:
            raise PromptError("call set_image before predicting")
        b = np.asarray(box, dtype=np.float64).reshape(4)
        key = combine_keys(self._image_key, array_content_key(b), "win")
        return self.cache.get_or_compute(
            "sam.analytic_box", key, lambda: self.sam.analytic.masks_from_box(self._ctx, b)
        )

    def masks_from_points(self, coords: np.ndarray, labels: np.ndarray) -> list[MaskHypothesis]:
        """Analytic hypotheses for point prompts on the current image.

        ``coords`` are (x, y) and ``labels`` 1 (foreground) or 0
        (background).  Callers that want SAM's best mask take the highest
        score; :meth:`predict` ranks these same hypotheses.
        """
        if self._ctx is None:
            raise PromptError("call set_image before predicting")
        pts = np.asarray(coords).reshape(-1, 2)
        labs = np.asarray(labels).reshape(-1)
        if labs.shape[0] != pts.shape[0]:
            raise PromptError(f"{pts.shape[0]} points but {labs.shape[0]} labels")
        return self.sam.analytic.masks_from_points(self._ctx, pts, labs)
