"""GroundingDINO surrogate: text-conditioned bounding-box generation.

The real GroundingDINO aligns text and image in a shared embedding space by
web-scale pretraining, then thresholds cross-modal attention into boxes.
This surrogate keeps the *mechanism* and installs the *alignment*
analytically:

1. Prompt tokens are grounded to attribute vectors over the engineered
   feature channels (:mod:`repro.models.text`).
2. Image patches get the same channels (:mod:`repro.models.features`).
3. Both sides are embedded by one shared **orthonormal** projection, so the
   scaled dot-product cross-attention ``softmax(QK^T/sqrt(d))V`` computes
   exactly the concept-feature relevance that pretraining would have learned
   — the paper's equation, executed by the same ``attention_scores`` code
   the NumPy transformer stack uses.
4. Per-token relevance maps are gated by ``text_threshold`` (tokens whose
   best patch response is too weak are dropped) and the combined map is cut
   at ``box_threshold``; connected high-relevance regions become boxes.

A small transformer encoder contextualises the token embeddings; its output
norms weight the per-token maps (with deterministic seeded weights this is
close to uniform, but the code path is the real one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import zoom

from ..cache import MISS, InferenceCache, array_content_key, combine_keys, config_fingerprint, get_cache
from ..core.boxes import as_boxes, merge_overlapping
from ..core.masks import label
from ..errors import ModelConfigError
from ..utils.rng import derive_seed
from .features import FEATURE_NAMES, FeatureGrid, PatchFeatureExtractor
from .nn import ParamFactory, TransformerEncoder, attention_scores
from .text import ConceptLexicon, TextEncoding, default_lexicon

__all__ = ["DinoConfig", "Detection", "GroundingDino"]


@dataclass(frozen=True)
class DinoConfig:
    """Hyper-parameters of the grounding surrogate.

    ``box_threshold`` / ``text_threshold`` keep GroundingDINO's semantics:
    raising ``box_threshold`` demands stronger relevance before a region
    becomes a box; raising ``text_threshold`` drops weakly-grounded tokens.
    """

    stride: int = 4
    embed_dim: int = 64
    text_depth: int = 2
    text_heads: int = 4
    box_threshold: float = 0.30
    text_threshold: float = 0.25
    relevance_gain: float = 6.0
    relevance_bias: float = 0.25
    merge_iou: float = 0.45
    min_box_area_px: int = 24
    max_boxes: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim < len(FEATURE_NAMES):
            raise ModelConfigError(
                f"embed_dim ({self.embed_dim}) must be >= n features ({len(FEATURE_NAMES)})"
            )
        if not (0.0 < self.box_threshold < 1.0) or not (0.0 <= self.text_threshold < 1.0):
            raise ModelConfigError("thresholds must lie in (0, 1)")


@dataclass(frozen=True)
class Detection:
    """Output of one grounding call."""

    boxes: np.ndarray  # (N, 4) XYXY
    scores: np.ndarray  # (N,)
    phrases: tuple[str, ...]  # grounded words, for the UI overlay
    relevance: np.ndarray  # (H, W) combined relevance map in [0, 1]
    token_activations: dict[str, float] = field(default_factory=dict)
    ungrounded: tuple[str, ...] = ()

    @classmethod
    def empty(cls, shape: tuple[int, ...], ungrounded: tuple[str, ...] = ()) -> "Detection":
        """No boxes over an all-zero ``shape[:2]`` relevance map."""
        return cls(
            boxes=np.zeros((0, 4), dtype=np.float64),
            scores=np.zeros(0, dtype=np.float64),
            phrases=(),
            relevance=np.zeros(shape[:2], dtype=np.float32),
            ungrounded=tuple(ungrounded),
        )

    @property
    def n_boxes(self) -> int:
        return int(self.boxes.shape[0])


class GroundingDino:
    """Text-prompted open-vocabulary detector over engineered features."""

    def __init__(
        self,
        config: DinoConfig | None = None,
        *,
        lexicon: ConceptLexicon | None = None,
        cache: InferenceCache | None = None,
    ) -> None:
        self.config = config or DinoConfig()
        self.lexicon = lexicon or default_lexicon()
        self.cache = cache if cache is not None else get_cache()
        self._config_fp_memo: str | None = None
        params = ParamFactory(derive_seed(self.config.seed, "groundingdino"))
        self.extractor = PatchFeatureExtractor(stride=self.config.stride)
        # Shared orthonormal alignment: QR of a seeded Gaussian matrix.
        gauss = params.normal("align", (self.config.embed_dim, len(FEATURE_NAMES)), std=1.0)
        q, _ = np.linalg.qr(gauss.astype(np.float64))
        self._align = q[:, : len(FEATURE_NAMES)].T.astype(np.float32)  # (F, D)
        self.text_encoder = TransformerEncoder(
            params.child("text"),
            "encoder",
            self.config.embed_dim,
            self.config.text_depth,
            self.config.text_heads,
        )

    # -- encoding -----------------------------------------------------------

    def _config_fp(self) -> str:
        """Config fingerprint, memoised on first call."""
        if self._config_fp_memo is None:
            self._config_fp_memo = config_fingerprint(self.config)
        return self._config_fp_memo

    def _fingerprint(self) -> str:
        """Config ⊕ lexicon content hash: any calibration invalidates text caches."""
        return combine_keys(self._config_fp(), self.lexicon.fingerprint())

    def encode_text(self, prompt: str) -> tuple[TextEncoding, np.ndarray, np.ndarray]:
        """Ground a prompt; returns (encoding, Q embeddings, token weights).

        The text-encoder output is cached per (prompt, config, lexicon
        content) — workflows reuse a handful of prompts across hundreds of
        slices, so after the first slice the text side is free.
        """
        key = combine_keys(repr(prompt), self._fingerprint())
        cached = self.cache.get("dino.text", key)
        if cached is not MISS:
            return cached
        result = self._encode_text(prompt)
        self.cache.put("dino.text", key, result)
        return result

    def _encode_text(self, prompt: str) -> tuple[TextEncoding, np.ndarray, np.ndarray]:
        enc = self.lexicon.encode(prompt)
        if enc.n_tokens == 0:
            d = self.config.embed_dim
            return enc, np.zeros((0, d), dtype=np.float32), np.zeros(0, dtype=np.float32)
        q = enc.vectors @ self._align  # (T, D); orthonormal => dot-preserving
        ctx = self.text_encoder(q[None])[0]  # (T, D) contextualised
        norms = np.linalg.norm(ctx, axis=1)
        weights = norms / max(float(norms.sum()), 1e-9)
        return enc, q, weights.astype(np.float32)

    def encode_image(self, image: np.ndarray) -> tuple[FeatureGrid, np.ndarray]:
        """Extract the patch feature grid and its K embeddings (cached).

        Keyed by image content ⊕ detector config; the lexicon does not enter
        the key because the image side is prompt-independent.
        """
        img = np.asarray(image)
        key = combine_keys(array_content_key(img), self._config_fp())
        return self.cache.get_or_compute(
            "dino.image", key, lambda: self._encode_image(img)
        )

    def _encode_image(self, image: np.ndarray) -> tuple[FeatureGrid, np.ndarray]:
        grid = self.extractor(image)
        k = grid.tokens @ self._align  # (N, D)
        return grid, k

    # -- grounding ----------------------------------------------------------

    def relevance_map(self, image: np.ndarray, prompt: str) -> tuple[np.ndarray, TextEncoding, dict[str, float]]:
        """Pixel-level relevance in [0, 1] for ``prompt`` over ``image``."""
        cfg = self.config
        enc, q, weights = self.encode_text(prompt)
        h, w = np.asarray(image).shape[:2]
        if enc.n_tokens == 0:
            return np.zeros((h, w), dtype=np.float32), enc, {}
        grid, k = self.encode_image(image)
        gh, gw, _ = grid.grid.shape
        # Paper's operator; rescale by sqrt(d) to recover raw alignment dots.
        logits = attention_scores(q, k) * np.float32(np.sqrt(q.shape[-1]))
        # Per-token bias: calibrated concepts carry their fitted midpoint,
        # hand-authored ones fall back to the detector default.
        biases = np.where(np.isnan(enc.biases), cfg.relevance_bias, enc.biases).astype(np.float32)
        per_token = 1.0 / (1.0 + np.exp(-cfg.relevance_gain * (logits - biases[:, None])))
        activations = {word: float(per_token[i].max()) for i, word in enumerate(enc.words)}
        keep = np.array([activations[wd] >= cfg.text_threshold for wd in enc.words])
        if not keep.any():
            return np.zeros((h, w), dtype=np.float32), enc, activations
        kept_maps = per_token[keep]
        kept_w = weights[keep]
        kept_w = kept_w / max(float(kept_w.sum()), 1e-9)
        combined = (kept_w[:, None] * kept_maps).sum(axis=0).reshape(gh, gw)
        dense = zoom(combined, (h / gh, w / gw), order=1, mode="nearest", grid_mode=True)
        dense = dense[:h, :w]
        if dense.shape != (h, w):
            dense = np.pad(dense, ((0, h - dense.shape[0]), (0, w - dense.shape[1])), mode="edge")
        return np.clip(dense, 0.0, 1.0).astype(np.float32), enc, activations

    def ground(self, image: np.ndarray, prompt: str) -> Detection:
        """Full grounding: prompt → boxes with scores.

        An empty result (``n_boxes == 0``) means no region passed the
        thresholds — the caller decides whether that is an error
        (:class:`repro.errors.GroundingError`) or an empty slice.

        The full :class:`Detection` is cached per (image content, prompt,
        config, lexicon content): repeated Mode C sweeps over the same
        volume skip grounding entirely on the second pass.
        """
        key = combine_keys(
            array_content_key(np.asarray(image)), repr(prompt), self._fingerprint()
        )
        cached = self.cache.get("dino.ground", key)
        if cached is not MISS:
            return cached
        det = self._ground(image, prompt)
        self.cache.put("dino.ground", key, det)
        return det

    def _ground(self, image: np.ndarray, prompt: str) -> Detection:
        cfg = self.config
        relevance, enc, activations = self.relevance_map(image, prompt)
        binary = relevance >= cfg.box_threshold
        labels, n = label(binary)
        boxes: list[list[float]] = []
        scores: list[float] = []
        if n:
            # Vectorised per-component box extraction.
            ys, xs = np.nonzero(binary)
            comp = labels[ys, xs]
            order = np.argsort(comp, kind="stable")
            ys, xs, comp = ys[order], xs[order], comp[order]
            starts = np.searchsorted(comp, np.arange(1, n + 1))
            ends = np.append(starts[1:], len(comp))
            for s, e in zip(starts, ends):
                if e - s < cfg.min_box_area_px:
                    continue
                cy, cx = ys[s:e], xs[s:e]
                boxes.append([float(cx.min()), float(cy.min()), float(cx.max() + 1), float(cy.max() + 1)])
                scores.append(float(relevance[cy, cx].mean()))
        if boxes:
            arr = as_boxes(boxes)
            sc = np.asarray(scores)
            good = sc >= cfg.box_threshold
            arr, sc = arr[good], sc[good]
            if len(arr) > 1:
                merged = merge_overlapping(arr, iou_threshold=cfg.merge_iou)
                if len(merged) < len(arr):
                    # Re-score merged boxes from the relevance map interior.
                    sc = np.array(
                        [
                            float(relevance[int(b[1]) : int(b[3]), int(b[0]) : int(b[2])].mean())
                            for b in merged
                        ]
                    )
                    arr = merged
            if len(arr) > cfg.max_boxes:
                top = np.argsort(-sc)[: cfg.max_boxes]
                arr, sc = arr[top], sc[top]
        else:
            arr = np.zeros((0, 4), dtype=np.float64)
            sc = np.zeros(0, dtype=np.float64)
        return Detection(
            boxes=arr,
            scores=sc,
            phrases=enc.words,
            relevance=relevance,
            token_activations=activations,
            ungrounded=enc.ungrounded,
        )
