"""The Zenesis pipeline: adaptation → grounding → segmentation → refinement.

This is the paper's core contribution wired together:

1. **Adaptation** (two branches): the *detector* branch feeds GroundingDINO
   contrast-rich input (bilateral denoise + CLAHE); the *segmenter* branch
   feeds SAM statistics-friendly input (bilateral denoise + unsharp masking
   to undo defocus).  Both run on the robust-normalised raw image.
2. **Grounding**: text prompt → boxes + pixel relevance map.
3. **Segmentation**: each box prompts SAM; among SAM's mask hypotheses the
   pipeline keeps the one most consistent with the text-grounded relevance
   (*grounded mask selection*), then unions the per-box masks and gates the
   union by the dilated high-relevance region.
4. **Volumes**: one per-slice loop (:mod:`repro.core.driver`) runs the
   temporal engine — the paper's sliding-window box heuristic
   (:mod:`repro.core.temporal`) or mask propagation — and adapts slice z+1
   on a background worker while slice z is grounded and decoded
   (*adapt-ahead*), then prepares slice z+1's SAM context there too, so
   the main thread's ``set_image`` reads it from the ``sam.image`` cache.
   Both are NumPy/SciPy work that mostly releases the GIL, so they overlap
   with the GIL-bound grounding and box decode; grounding itself stays on
   the main thread, where the worker has no slack left for it.

Every stage is a :func:`~repro.observability.trace` span, which observes
its wall time into the ``repro_stage_seconds`` histogram.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..adapt.bitdepth import robust_normalize
from ..adapt.contrast import clahe
from ..adapt.denoise import denoise_bilateral, flatfield_correct, unsharp_mask
from ..cache import MISS, CacheConfig, InferenceCache, array_content_key, combine_keys, config_fingerprint, get_cache
from ..data.image import ScientificImage
from ..data.volume import ScientificVolume
from ..errors import GroundingError, PipelineError, RetryExhaustedError
from ..models.dino import Detection, GroundingDino
from ..models.registry import build_dino, build_sam
from ..models.sam.analytic import AnalyticMaskHead, MaskHypothesis
from ..models.sam.model import Sam, SamPredictor
from ..observability.metrics import get_registry
from ..observability.trace import Span, Tracer, get_tracer, trace
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from ..resilience.policy import RetryPolicy
from ..utils.validation import ensure_finite
from .driver import ENGINES, PHASES, drive_volume
from .masks import dilate
from .prompts import SpatialHints, TextPrompt
from .propagation import PropagationConfig
from .results import SliceResult, StreamResult, VolumeResult
from .temporal import TemporalConfig, refine_box_sequences  # noqa: F401 - re-exported

__all__ = ["REFERENCE_PIXEL_NM", "ZenesisConfig", "ZenesisPipeline"]

# Physical pixel pitch (nm) the default adaptation sigmas were tuned at.
# When a volume carries calibrated pixel-size metadata, spatial kernels are
# rescaled relative to this reference so a feature of fixed physical size
# sees the same effective smoothing regardless of magnification.
REFERENCE_PIXEL_NM = 5.0


@dataclass(frozen=True)
class ZenesisConfig:
    """End-to-end pipeline configuration."""

    dino_name: str = "swin_t"
    sam_name: str = "vit_t"
    box_threshold: float = 0.35
    text_threshold: float = 0.25
    # Segmenter-branch adaptation.
    denoise_sigma_spatial: float = 1.5
    denoise_sigma_range: float = 0.12
    flatfield: bool = True  # sample-aware illumination correction
    flatfield_sigma: float = 48.0
    unsharp_amount: float = 2.0
    unsharp_sigma: float = 2.0
    # Detector-branch adaptation.
    clahe_tiles: tuple[int, int] = (8, 8)
    clahe_clip: float = 2.5
    # Grounded mask selection.
    selection_floor: float = 0.25
    gate_dilation: int = 4
    band_k: float = 2.0
    # Volumes.  ``temporal_mode`` selects the Mode B engine: "meanbox" is the
    # paper's sliding-window box heuristic (the bit-stable default);
    # "propagate" is the memory-conditioned propagation path (DINO only on
    # keyframes / confidence drops).  Folded into the config fingerprint —
    # the two modes produce different masks, so they must never share cache
    # or checkpoint identities.
    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    temporal_mode: str = "meanbox"
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    seed: int = 0
    strict_grounding: bool = False  # raise GroundingError when nothing grounds
    use_cache: bool = True  # content-addressed inference cache (--no-cache)
    # Strict-mode grounding recovery: before raising GroundingError, retry
    # with both thresholds multiplied by grounding_relax per attempt.
    grounding_retries: int = 2
    grounding_relax: float = 0.7
    # Registry provenance: zoo presets stamp "zoo:<name>@<fingerprint>" here
    # so cache / checkpoint / job key spaces for a preset-built config never
    # collide with a hand-rolled config of identical knob values.  A regular
    # field, so it enters config_fingerprint automatically.
    variant: str = ""
    # Calibrated in-plane pixel pitch (nm) from volume metadata; None means
    # uncalibrated (spatial kernels stay at their tuned defaults).  Folded
    # into the adaptation fingerprint — different pitches adapt differently.
    pixel_size_nm: float | None = None

    def __post_init__(self):
        if self.temporal_mode not in ENGINES:
            raise PipelineError(
                f"temporal_mode must be 'meanbox' or 'propagate', got {self.temporal_mode!r}"
            )
        if self.pixel_size_nm is not None and not self.pixel_size_nm > 0:
            raise PipelineError(f"pixel_size_nm must be > 0, got {self.pixel_size_nm!r}")

    def spatial_scale(self) -> float:
        """Kernel scale factor for this config's physical pixel size.

        Sigmas tuned at :data:`REFERENCE_PIXEL_NM` are multiplied by this
        factor: finer pixels (smaller pitch) need wider kernels in pixel
        units to cover the same physical extent.  Clamped to [0.25, 4.0] so
        wild metadata cannot push kernels to degenerate sizes.
        """
        if self.pixel_size_nm is None:
            return 1.0
        return float(np.clip(REFERENCE_PIXEL_NM / self.pixel_size_nm, 0.25, 4.0))


class _AdaptAhead:
    """One volume call's adapt-ahead worker and its in-flight results.

    The worker adapts a slice, then prepares its SAM context through its
    own thread's predictor, which fills the ``sam.image`` entry the main
    thread's ``set_image`` reads.  In-flight results are keyed like the
    ``pipeline.adapt`` cache entry they compute.  A result is handed to the
    first :meth:`take` of its key; :meth:`close` cancels or waits for
    whatever was never taken and joins the worker, so no thread outlives
    the call.
    """

    def __init__(self, pipeline: "ZenesisPipeline") -> None:
        self._pipeline = pipeline
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-adapt-ahead")
        self._pending: dict[str, tuple[Future, Tracer | None, Span | None]] = {}
        self._last_key: str | None = None

    def submit(self, raw: np.ndarray, key: str) -> None:
        # A key already in flight or just adapted would be computed twice;
        # the propagation engine short-circuits a repeat of the previous
        # slice without adapting it at all.
        if key in self._pending or key == self._last_key:
            return
        tracer = get_tracer()
        span = tracer.detached("pipeline.adapt") if tracer is not None else None
        future = self._executor.submit(self._run, raw, key, tracer, span)
        self._pending[key] = (future, tracer, span)

    def _run(self, raw, key, tracer, span):
        pipeline = self._pipeline
        with tracer.parented(span) if tracer is not None else nullcontext():
            images, hit = pipeline._adapt_body(raw, key)
        # Without a cache the context has nowhere to go but this thread's
        # predictor, so preparing it here would only compute it twice.
        if pipeline.cache.enabled:
            try:
                pipeline.predictor.set_image(images[1])
            except Exception:
                pass  # the main thread's own set_image recomputes and raises
        return images, hit

    def take(self, key: str):
        """The in-flight ``(images, hit)`` for ``key``, or None if none was scheduled."""
        self._last_key = key
        entry = self._pending.pop(key, None)
        if entry is None:
            return None
        future, tracer, span = entry
        try:
            return future.result()
        finally:
            if tracer is not None:
                tracer.graft(span)

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._pending.clear()


class ZenesisPipeline:
    """Text-prompted zero-shot segmentation of raw scientific images."""

    def __init__(self, config: ZenesisConfig | None = None) -> None:
        self.config = config or ZenesisConfig()
        cfg = self.config
        # One cache serves both models and the adaptation layer; disabling
        # swaps in an inert instance rather than threading flags everywhere.
        self.cache: InferenceCache = (
            get_cache() if cfg.use_cache else InferenceCache(CacheConfig(enabled=False))
        )
        self.dino: GroundingDino = build_dino(
            cfg.dino_name,
            seed=cfg.seed,
            cache=self.cache,
            box_threshold=cfg.box_threshold,
            text_threshold=cfg.text_threshold,
        )
        self.sam: Sam = build_sam(cfg.sam_name, seed=cfg.seed, analytic=AnalyticMaskHead(band_k=cfg.band_k))
        # SamPredictor is stateful (set_image, then decode): each thread gets
        # its own over the shared model and cache, so concurrent calls on one
        # pipeline never decode against another call's image.
        self._predictors = threading.local()
        self._relaxed_dinos: dict[int, GroundingDino] = {}
        # Adaptation outputs depend only on these knobs, not the full config.
        self._adapt_fp = config_fingerprint(
            {
                "denoise_sigma_spatial": cfg.denoise_sigma_spatial,
                "denoise_sigma_range": cfg.denoise_sigma_range,
                "flatfield": cfg.flatfield,
                "flatfield_sigma": cfg.flatfield_sigma,
                "unsharp_amount": cfg.unsharp_amount,
                "unsharp_sigma": cfg.unsharp_sigma,
                "clahe_tiles": cfg.clahe_tiles,
                "clahe_clip": cfg.clahe_clip,
                "pixel_size_nm": cfg.pixel_size_nm,
            }
        )
        self._spatial_scale = cfg.spatial_scale()
        # Adapt-ahead scopes by thread id: concurrent volume calls on one
        # pipeline (the jobs runner memoises pipelines) each own theirs.
        self._ahead: dict[int, _AdaptAhead] = {}

    @property
    def predictor(self) -> SamPredictor:
        """This thread's SAM predictor."""
        predictor = getattr(self._predictors, "predictor", None)
        if predictor is None:
            predictor = self._predictors.predictor = SamPredictor(self.sam, cache=self.cache)
        return predictor

    # -- adaptation -----------------------------------------------------------

    def _adapt_input(self, image) -> tuple[np.ndarray, str]:
        """The raw 2-D slice to adapt and its ``pipeline.adapt`` cache key."""
        raw = image.pixels if isinstance(image, ScientificImage) else np.asarray(image)
        if raw.ndim == 3:
            raw = raw.mean(axis=2)
        return raw, combine_keys(array_content_key(raw), self._adapt_fp)

    def adapt(self, image) -> tuple[np.ndarray, np.ndarray]:
        """Run both adaptation branches; returns (detector_img, segmenter_img).

        Both branch outputs are cached per (raw content, adaptation knobs):
        re-segmenting a slice with a new prompt skips adaptation entirely.
        Inside :meth:`adapt_ahead`, a slice :meth:`prefetch_adapt` already
        scheduled is taken from the worker instead of adapted again.
        """
        raw, key = self._adapt_input(image)
        with trace("pipeline.adapt") as span:
            ahead = self._ahead.get(threading.get_ident())
            taken = ahead.take(key) if ahead is not None else None
            images, hit = taken if taken is not None else self._adapt_body(raw, key)
            span.set(cache="hit" if hit else "miss")
            return images

    def _adapt_body(self, raw: np.ndarray, key: str) -> tuple[tuple[np.ndarray, np.ndarray], bool]:
        """Cache lookup, else both branches computed and stored; returns (images, hit).

        A slice holding NaN or ±inf is rejected with :class:`ValidationError`
        here, so in a volume it fails at its own :meth:`adapt`, after the
        slices before it — whether adapted inline or ahead.
        """
        cfg = self.config
        cached = self.cache.get("pipeline.adapt", key)
        if cached is not MISS:
            return cached, True
        ensure_finite(raw, "image")
        with trace("adapt.normalize"):
            base = robust_normalize(raw)
        scale = self._spatial_scale
        with trace("adapt.denoise"):
            den = denoise_bilateral(
                base,
                sigma_spatial=cfg.denoise_sigma_spatial * scale,
                sigma_range=cfg.denoise_sigma_range,
            )
        if cfg.flatfield:
            with trace("adapt.flatfield"):
                den = flatfield_correct(den, sigma=cfg.flatfield_sigma * scale)
        with trace("adapt.detector_branch"):
            det_img = clahe(den, tiles=cfg.clahe_tiles, clip_limit=cfg.clahe_clip)
        with trace("adapt.segmenter_branch"):
            seg_img = unsharp_mask(den, amount=cfg.unsharp_amount, sigma=cfg.unsharp_sigma * scale)
        self.cache.put("pipeline.adapt", key, (det_img, seg_img))
        return (det_img, seg_img), False

    @contextmanager
    def adapt_ahead(self):
        """Scope an adapt-ahead worker to one volume call on this thread.

        Within the block :meth:`prefetch_adapt` runs the adaptation body on
        one background thread.  On exit — normal return, deadline, injected
        abort or grounding error alike — pending work is cancelled or
        waited for, its results dropped and the worker joined.
        """
        tid = threading.get_ident()
        ahead = self._ahead[tid] = _AdaptAhead(self)
        try:
            yield
        finally:
            del self._ahead[tid]
            ahead.close()

    def prefetch_adapt(self, image) -> None:
        """Start adapting ``image`` on the worker; a no-op outside :meth:`adapt_ahead`."""
        ahead = self._ahead.get(threading.get_ident())
        if ahead is not None:
            ahead.submit(*self._adapt_input(image))

    # -- grounding -------------------------------------------------------------

    def _relaxed_dino(self, level: int) -> GroundingDino:
        """A detector with thresholds relaxed by ``grounding_relax**level``."""
        dino = self._relaxed_dinos.get(level)
        if dino is None:
            cfg = self.config
            factor = cfg.grounding_relax**level
            dino = build_dino(
                cfg.dino_name,
                seed=cfg.seed,
                cache=self.cache,
                box_threshold=max(cfg.box_threshold * factor, 0.01),
                text_threshold=max(cfg.text_threshold * factor, 0.0),
            )
            self._relaxed_dinos[level] = dino
        return dino

    def _ground_once(
        self, detector_img: np.ndarray, prompt: str, level: int, slice_index: int | None
    ) -> Detection:
        """One grounding attempt at relaxation ``level`` (0 = configured)."""
        with trace("dino.ground"):
            get_registry().counter("repro_pipeline_groundings_total").inc()
            if level == 0 and get_fault_plan().should_fire("grounding_empty", slice=slice_index):
                return Detection.empty(np.shape(detector_img), ("<fault:grounding_empty>",))
            dino = self.dino if level == 0 else self._relaxed_dino(level)
            return dino.ground(detector_img, prompt)

    def ground(
        self, detector_img: np.ndarray, prompt: str, *, slice_index: int | None = None
    ) -> Detection:
        """Text → boxes/relevance on the detector-branch image.

        In strict mode an empty result is retried with progressively relaxed
        box/text thresholds (``grounding_retries`` × ``grounding_relax``)
        before :class:`GroundingError` is raised; a recovery is recorded in
        the resilience counters.  Non-strict mode returns the empty
        detection untouched — an empty slice is a valid answer there.
        """
        cfg = self.config
        span = trace("pipeline.ground", **({} if slice_index is None else {"slice": slice_index}))
        with span as sp:
            det = self._ground_once(detector_img, prompt, 0, slice_index)
            if det.n_boxes > 0 or not cfg.strict_grounding:
                sp.set(n_boxes=int(det.n_boxes), retries=0)
                return det
            if cfg.grounding_retries > 0:
                policy = RetryPolicy(
                    max_attempts=cfg.grounding_retries,
                    base_delay_s=0.0,
                    jitter=0.0,
                    retry_on=(GroundingError,),
                    seed=cfg.seed,
                )
                retries = 0

                def attempt(i: int) -> Detection:
                    nonlocal retries
                    retries += 1
                    record_event("grounding.retries")
                    relaxed = self._ground_once(detector_img, prompt, i + 1, slice_index)
                    if relaxed.n_boxes == 0:
                        raise GroundingError(f"relaxed grounding (level {i + 1}) still empty")
                    return relaxed

                try:
                    recovered = policy.call(attempt, key=f"grounding:{prompt}")
                except RetryExhaustedError:
                    sp.set(retries=retries)
                else:
                    record_event("grounding.recovered")
                    sp.set(n_boxes=int(recovered.n_boxes), retries=retries, recovered=True)
                    return recovered
        raise GroundingError(
            f"prompt {prompt!r} grounded no regions after "
            f"{1 + max(cfg.grounding_retries, 0)} attempt(s) "
            f"(ungrounded words: {list(det.ungrounded)})"
        )

    # -- grounded mask selection -------------------------------------------------

    def _select_mask(
        self,
        hyps: list[MaskHypothesis],
        relevance: np.ndarray,
        box: np.ndarray,
        *,
        hi: np.ndarray | None = None,
        hi_dilated: np.ndarray | None = None,
    ) -> tuple[MaskHypothesis, float] | None:
        """Pick the hypothesis most consistent with the relevance map.

        Score = (mean relevance inside the mask) × √(fraction of the mask in
        the dilated high-relevance region) × √(coverage of the box's
        high-relevance pixels).  Returns None when every hypothesis is empty.

        Each hypothesis is scored on its ``window_mask``: its mask is zero
        outside the window, and the gathered pixels keep their row-major
        order, so the terms equal full-frame ones bit for bit.  Neither a
        full-frame mask nor the head's quality score is read.

        ``hi``/``hi_dilated`` are box-independent; callers looping over many
        boxes pass them precomputed so the dilation runs once per image.
        """
        cfg = self.config
        if hi is None:
            hi = relevance >= cfg.box_threshold
        if hi_dilated is None:
            hi_dilated = dilate(hi, 2)
        h, w = hi.shape
        x0, y0, x1, y1 = (int(box[0]), int(box[1]), int(np.ceil(box[2])), int(np.ceil(box[3])))
        # The box's pixel bounds under Python slice semantics (a negative
        # end counts from the far edge), normalised so windows can clip them.
        by0, by1, _ = slice(max(y0, 0), y1).indices(h)
        bx0, bx1, _ = slice(max(x0, 0), x1).indices(w)
        n_hi = max(int(np.count_nonzero(hi[by0:by1, bx0:bx1])), 1)
        best: tuple[MaskHypothesis, float] | None = None
        for hyp in hyps:
            wy0, wy1, wx0, wx1 = hyp.window
            win = hyp.window_slices
            m = hyp.window_mask
            n = int(m.sum())
            if n == 0:
                continue
            # hi_box = hi inside the box, restricted to the window.
            ty0, ty1 = max(by0, wy0), min(by1, wy1)
            tx0, tx1 = max(bx0, wx0), min(bx1, wx1)
            in_box = 0
            if ty1 > ty0 and tx1 > tx0:
                in_box = int(np.count_nonzero(
                    m[ty0 - wy0 : ty1 - wy0, tx0 - wx0 : tx1 - wx0] & hi[ty0:ty1, tx0:tx1]
                ))
            score = (
                float(relevance[win][m].mean())
                * float(np.sqrt((m & hi_dilated[win]).sum() / n))
                * float(np.sqrt(in_box / n_hi))
            )
            if best is None or score > best[1]:
                best = (hyp, score)
        return best

    def segment_with_boxes(
        self,
        segmenter_img: np.ndarray,
        detection: Detection,
        boxes: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
        """Box prompts → grounded-selected masks → gated union."""
        cfg = self.config
        use_boxes = detection.boxes if boxes is None else boxes
        with trace("sam.set_image"):
            self.predictor.set_image(segmenter_img)
        union = np.zeros(segmenter_img.shape, dtype=bool)
        per_box_masks: list[np.ndarray] = []
        per_box_kinds: list[str] = []
        with trace("sam.box_prompts"):
            # Box-independent selection masks, hoisted out of the loop.
            hi = detection.relevance >= cfg.box_threshold
            hi_dilated = dilate(hi, 2)
            for box in use_boxes:
                hyps = self.predictor.masks_from_box(box)
                picked = self._select_mask(
                    hyps, detection.relevance, box, hi=hi, hi_dilated=hi_dilated
                )
                if picked is None or picked[1] <= cfg.selection_floor:
                    continue
                hyp = picked[0]
                union[hyp.window_slices] |= hyp.window_mask
                per_box_masks.append(hyp.mask)
                per_box_kinds.append(hyp.kind)
        with trace("gate.relevance"):
            if cfg.gate_dilation > 0:
                union &= dilate(hi, cfg.gate_dilation)
        return union, per_box_masks, per_box_kinds

    # -- public API ---------------------------------------------------------------

    def segment_image(
        self,
        image,
        prompt: str | TextPrompt,
        *,
        hints: SpatialHints | None = None,
    ) -> SliceResult:
        """Mode A: segment a single image/slice from a text prompt.

        ``hints`` adds user boxes (appended to DINO's) and points (each
        positive point contributes its best SAM mask to the union).
        """
        text = prompt.text if isinstance(prompt, TextPrompt) else str(prompt)
        with trace("pipeline.segment_image", prompt=text):
            det_img, seg_img = self.adapt(image)
            detection = self.ground(det_img, text)
            decoded = self.decode(seg_img, detection, hints)
        return self.image_result(text, detection, decoded, hints)

    def decode(
        self,
        segmenter_img: np.ndarray,
        detection: Detection,
        hints: SpatialHints | None = None,
    ) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
        """Mode A's decode after grounding: ``(mask, per_box_masks, per_box_kinds)``.

        User boxes are appended to the detection's and every box goes
        through :meth:`segment_with_boxes`; with point hints, the best
        point-prompt hypothesis joins the union.
        """
        boxes = detection.boxes
        if hints is not None and hints.boxes:
            user_boxes = np.stack(hints.validated_boxes(segmenter_img.shape))
            boxes = np.concatenate([boxes, user_boxes], axis=0) if len(boxes) else user_boxes
        mask, per_box, kinds = self.segment_with_boxes(segmenter_img, detection, boxes)
        if hints is not None and hints.has_points:
            coords, labels = hints.point_arrays()
            with trace("sam.point_prompts"):
                hyps = self.predictor.masks_from_points(coords, labels)
            mask = mask | max(hyps, key=lambda hh: hh.score).mask
        return mask, per_box, kinds

    def image_result(
        self,
        prompt: str,
        detection: Detection,
        decoded: tuple[np.ndarray, list[np.ndarray], list[str]],
        hints: SpatialHints | None = None,
        **metadata,
    ) -> SliceResult:
        """Mode A's result for one segmented image; counts it as segmented."""
        mask, per_box, kinds = decoded
        get_registry().counter("repro_pipeline_images_total").inc()
        return SliceResult(
            mask=mask,
            detection=detection,
            per_box_masks=tuple(per_box),
            per_box_kinds=tuple(kinds),
            prompt=prompt,
            metadata={"n_user_boxes": 0 if hints is None else len(hints.boxes), **metadata},
        )

    def segment_volume(
        self,
        volume,
        prompt: str | TextPrompt,
        *,
        temporal: bool = True,
        temporal_mode: str | None = None,
        checkpoint_dir: Path | str | None = None,
        resume: bool = False,
    ) -> VolumeResult:
        """Mode B: segment every slice with optional temporal box refinement.

        ``temporal_mode`` (default: the config's ``temporal_mode``) selects
        the engine: ``"meanbox"`` grounds every slice and refines boxes with
        the paper's sliding-window heuristic; ``"propagate"`` grounds only
        keyframes and propagates per-object memory masks in between (the
        ``temporal`` flag is ignored there — propagation *is* the temporal
        model).  Both run in :func:`~repro.core.driver.drive_volume`.

        With ``checkpoint_dir`` set, every completed slice mask is persisted
        (atomic manifest + ``.npy`` shards); ``resume=True`` then reloads
        completed slices from a previous interrupted run instead of
        re-segmenting them.  The checkpoint is fingerprinted by (volume
        content, prompt, config, temporal flag/mode) so stale checkpoints
        from a different job raise :class:`~repro.errors.CheckpointError`.
        Meanbox re-runs adaptation and grounding on resume (the refinement
        needs every slice's boxes); propagate restores its per-object memory
        from a state shard.  Either way resumed masks are bit-identical.
        """
        from ..io.lazy import ArrayLazyVolume

        text = prompt.text if isinstance(prompt, TextPrompt) else str(prompt)
        voxels = volume.voxels if isinstance(volume, ScientificVolume) else np.asarray(volume)
        if voxels.ndim != 3:
            raise GroundingError(f"segment_volume expects a 3-D volume, got shape {voxels.shape}")
        mode = temporal_mode if temporal_mode is not None else self.config.temporal_mode
        masks = np.zeros(voxels.shape, dtype=bool)
        infos: list[dict] = [{} for _ in range(voxels.shape[0])]

        def keep(z: int, mask: np.ndarray, info: dict) -> None:
            masks[z] = mask
            infos[z] = info

        run = drive_volume(
            self,
            ArrayLazyVolume(voxels),
            text,
            mode=mode,
            temporal=temporal,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            on_slice=keep,
        )
        return VolumeResult(
            masks=masks,
            slice_results=tuple(
                self._slice_result(z, masks[z], info, text, mode, run.last_detection)
                for z, info in enumerate(infos)
            ),
            prompt=text,
            refinement_report=run.report,
        )

    def _slice_result(self, z, mask, info, text, mode, last_detection) -> SliceResult:
        """One eager slice's result from the driver's per-slice ``info``."""
        if mode == "propagate" and info.get("resumed"):
            metadata = {"slice": z, "resumed": True, "propagated": True}
            return SliceResult(mask=mask, detection=None, prompt=text, metadata=metadata)
        if mode == "propagate" and not info.get("grounded"):
            metadata = {"propagated": True, "slice": z, "confidence": info.get("confidence")}
            return SliceResult(mask=mask, detection=last_detection, prompt=text, metadata=metadata)
        if mode == "propagate":
            metadata = {"slice": z, "grounded": True, "reason": info.get("reason")}
        else:
            metadata = {"slice": z, "resumed": True} if info.get("resumed") else {"slice": z}
        return SliceResult(
            mask=mask,
            detection=info.get("detection"),
            per_box_masks=info.get("per_box_masks", ()),
            per_box_kinds=info.get("per_box_kinds", ()),
            prompt=text,
            metadata=metadata,
        )

    # -- streaming (out-of-core) ---------------------------------------------------

    def segment_volume_stream(
        self,
        source,
        prompt: str | TextPrompt,
        *,
        temporal: bool = True,
        temporal_mode: str | None = None,
        checkpoint_dir: Path | str,
        resume: bool = False,
        policy=None,
        on_slice=None,
    ) -> StreamResult:
        """Mode B over a :class:`~repro.io.LazyVolume`: out-of-core streaming.

        ``source`` is a LazyVolume or a path (file or slice directory) opened
        with :func:`~repro.io.open_lazy_volume`.  Masks are written straight
        to ``checkpoint_dir`` shards — the full (Z, H, W) stack is never
        materialized, and decoded tiles flow through a prefetch window
        bounded by ``policy.memory_budget_bytes``.

        This is the same one-pass driver as :meth:`segment_volume`, so clean
        data produces bit-identical masks, and the checkpoints of the two
        are interchangeable.  Corrupt tiles follow ``policy.on_corrupt``:
        ``fail`` aborts after the slices before the corrupt one are
        checkpointed, ``skip``/``degrade`` substitute data and record the
        slice in the checkpoint manifest's degraded markers — the run
        *completes*.

        ``on_slice(z, phase, total)`` fires per slice once it is
        checkpointed; ``phase`` is ``segment`` (meanbox) or ``propagate``.
        """
        from ..io.lazy import LazyVolume, open_lazy_volume

        if checkpoint_dir is None:
            raise PipelineError(
                "segment_volume_stream requires checkpoint_dir: streamed masks "
                "live as checkpoint shards, not in memory"
            )
        text = prompt.text if isinstance(prompt, TextPrompt) else str(prompt)
        mode = temporal_mode if temporal_mode is not None else self.config.temporal_mode
        owns_volume = not isinstance(source, LazyVolume)
        volume = open_lazy_volume(source) if owns_volume else source
        try:
            n = volume.n_tiles
            coverage = [0.0] * n

            def note(z: int, mask: np.ndarray, info: dict) -> None:
                coverage[z] = float(mask.mean())
                if on_slice is not None:
                    on_slice(z, PHASES[mode], n)

            run = drive_volume(
                self,
                volume,
                text,
                mode=mode,
                temporal=temporal,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                meta={"source": volume.source_path},
                policy=policy,
                on_slice=note,
            )
        finally:
            if owns_volume:
                volume.close()
        return StreamResult(
            n_slices=n,
            slice_shape=volume.tile_shape,
            checkpoint_dir=str(run.checkpoint.root),
            prompt=text,
            per_slice_coverage=tuple(coverage),
            degraded=run.degraded,
            refinement_report=run.report,
            io_stats=run.io_stats(),
        )
