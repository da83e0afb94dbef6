"""Memory-conditioned temporal mask propagation (SAM 2-style).

SAM 2 extends SAM to video with a memory of past masks; a FIB-SEM stack is
a "video" along Z.  This module promotes that idea to a first-class volume
path: ground with DINO only on *keyframes* (or when propagation confidence
drops), and decode every other slice from propagated prompts.

The memory is **per object**.  Each tracked object carries

* its previous mask (the dense memory the next slice is prompted with),
* an embedding centroid (mean ViT embedding cell under the mask, refreshed
  at grounded slices — used to re-associate objects across re-grounds),
* an EMA area and an EMA IoU *confidence* — the exponential moving average
  of how well each propagated candidate agreed with the memory.

Per slice, the engine either

1. **grounds** (scheduled keyframe, confidence below the floor, or no live
   objects): full adapt → DINO → SAM decode, then matches the grounded
   components against the tracked objects (birth / death / resurrection);
2. **propagates**: samples prompt points from each object's eroded memory
   mask, decodes analytic hypotheses (no ViT encode, no DINO — the cheap
   path), selects per object by IoU against the memory, and updates the
   confidence model; or
3. **short-circuits**: a slice whose raw content hash equals the previous
   slice's carries the previous mask over verbatim (content-addressed
   volumes are full of duplicated slices).

Everything is deterministic: prompt points derive from
``spawn_rng(seed, "propagation", z, object_id)`` — stateless per slice and
per object — so a checkpoint/resume replay is bit-identical, which is what
lets :class:`PropagationState` serialize into
:class:`~repro.resilience.CheckpointManager` shards.

Cancellation: every :meth:`PropagationEngine.step` calls
:func:`~repro.resilience.serving.lifecycle.check_deadline`, so a request
deadline or a :class:`~repro.jobs.runner.JobGuard` bound via
``request_scope`` stops propagation at the next slice boundary.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cache import array_content_key
from ..errors import PipelineError
from ..observability.metrics import get_registry
from ..observability.trace import trace
from ..resilience.serving.lifecycle import check_deadline
from ..utils.rng import spawn_rng
from .masks import connected_components, erode, masks_iou
from .results import SliceResult, VolumeResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from .pipeline import ZenesisPipeline

__all__ = [
    "PropagationConfig",
    "ObjectMemory",
    "PropagationState",
    "PropagationEngine",
    "propagate_volume",
    "resume_propagation",
]

_STATE_VERSION = 1
STATE_NAME = "propagation"


@dataclass(frozen=True)
class PropagationConfig:
    """Propagation parameters (part of the pipeline config fingerprint)."""

    n_memory_points: int = 6
    erosion_iterations: int = 2
    area_change_limit: float = 0.55  # |Δarea|/EMA-area beyond this halves the observation
    reground: bool = True  # confidence gate may fall back to DINO grounding
    seed: int = 0
    # Keyframe policy: schedule a full DINO grounding after this many
    # propagated slices (0 disables scheduled keyframes — grounding then
    # happens only on the first slice and on confidence drops).
    keyframe_interval: int = 8
    # Confidence gate: re-ground when the area-weighted mean of the
    # per-object EMA IoU confidences falls below this floor.
    confidence_floor: float = 0.35
    ema_alpha: float = 0.5  # EMA weight of the newest observation
    # Object model.
    match_iou: float = 0.2  # grounded component ↔ tracked object association
    min_candidate_iou: float = 0.2  # below this a propagated candidate is a miss
    max_misses: int = 2  # consecutive misses beyond this kill the object
    min_object_area: int = 12  # px; smaller grounded components are noise
    max_objects: int = 32
    merge_iou: float = 0.8  # propagated masks overlapping this much merge
    resurrect_cosine: float = 0.85  # embedding-centroid match to revive a dead id
    # Propagated decodes run inside a window of the object's memory-mask
    # bbox padded by this many pixels; 0 decodes on the full frame.  An
    # object cannot move further than the margin between adjacent slices,
    # and the window bounds the morphology cost per object by object size
    # instead of frame size.
    roi_margin_px: int = 16

    def __post_init__(self):
        if self.n_memory_points < 1:
            raise PipelineError("n_memory_points must be >= 1")
        if self.roi_margin_px < 0:
            raise PipelineError("roi_margin_px must be >= 0")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise PipelineError("ema_alpha must lie in (0, 1]")
        if self.keyframe_interval < 0:
            raise PipelineError("keyframe_interval must be >= 0")


@dataclass
class ObjectMemory:
    """Memory entry for one tracked object."""

    object_id: int
    mask: np.ndarray  # (H, W) bool — previous accepted mask
    centroid: np.ndarray  # (C,) float32 — embedding centroid at last grounding
    conf: float = 1.0  # EMA IoU confidence
    ema_area: float = 0.0  # EMA mask area in px
    misses: int = 0  # consecutive slices without an accepted observation
    born_at: int = 0  # slice index of birth


@dataclass
class PropagationState:
    """Everything needed to resume propagation bit-identically mid-volume."""

    objects: list[ObjectMemory] = field(default_factory=list)
    graveyard: list[tuple[int, np.ndarray]] = field(default_factory=list)
    next_object_id: int = 0
    z: int = -1  # last completed slice index
    steps_since_ground: int = 0
    last_raw_key: str | None = None
    last_mask: np.ndarray | None = None
    # Counters (also surfaced as repro_temporal_* metrics).
    grounded_slices: int = 0
    propagated_slices: int = 0
    regrounds: int = 0  # confidence/lost-triggered groundings only
    keyframes: int = 0  # scheduled groundings (excludes the initial one)
    births: int = 0
    deaths: int = 0
    resurrections: int = 0
    short_circuits: int = 0

    _COUNTERS = (
        "grounded_slices",
        "propagated_slices",
        "regrounds",
        "keyframes",
        "births",
        "deaths",
        "resurrections",
        "short_circuits",
    )

    def clone(self) -> "PropagationState":
        return copy.deepcopy(self)

    def stats(self) -> dict:
        return {name: int(getattr(self, name)) for name in self._COUNTERS}

    # -- serialization (CheckpointManager state shards) -----------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten into named arrays for an atomic ``.npz`` state shard."""
        objs = sorted(self.objects, key=lambda o: o.object_id)
        cdim = max([o.centroid.size for o in objs] + [g[1].size for g in self.graveyard] + [0])
        masks = (
            np.stack([o.mask for o in objs])
            if objs
            else np.zeros((0, 0, 0), dtype=bool)
        )
        centroids = np.zeros((len(objs), cdim), dtype=np.float32)
        for i, o in enumerate(objs):
            centroids[i, : o.centroid.size] = o.centroid
        grave_cent = np.zeros((len(self.graveyard), cdim), dtype=np.float32)
        for i, (_, c) in enumerate(self.graveyard):
            grave_cent[i, : c.size] = c
        meta = {
            "version": _STATE_VERSION,
            "z": int(self.z),
            "next_object_id": int(self.next_object_id),
            "steps_since_ground": int(self.steps_since_ground),
            "last_raw_key": self.last_raw_key,
            "counters": self.stats(),
        }
        return {
            "masks": masks,
            "centroids": centroids,
            "conf": np.array([o.conf for o in objs], dtype=np.float64),
            "ema_area": np.array([o.ema_area for o in objs], dtype=np.float64),
            "misses": np.array([o.misses for o in objs], dtype=np.int64),
            "ids": np.array([o.object_id for o in objs], dtype=np.int64),
            "born_at": np.array([o.born_at for o in objs], dtype=np.int64),
            "grave_ids": np.array([g[0] for g in self.graveyard], dtype=np.int64),
            "grave_centroids": grave_cent,
            "last_mask": (
                self.last_mask if self.last_mask is not None else np.zeros((0, 0), dtype=bool)
            ),
            "meta_json": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PropagationState":
        meta = json.loads(bytes(np.asarray(arrays["meta_json"], dtype=np.uint8)).decode("utf-8"))
        if int(meta.get("version", -1)) != _STATE_VERSION:
            raise PipelineError(
                f"propagation state version {meta.get('version')} != {_STATE_VERSION}"
            )
        state = cls(
            next_object_id=int(meta["next_object_id"]),
            z=int(meta["z"]),
            steps_since_ground=int(meta["steps_since_ground"]),
            last_raw_key=meta.get("last_raw_key"),
        )
        for name, value in meta.get("counters", {}).items():
            if name in cls._COUNTERS:
                setattr(state, name, int(value))
        masks = np.asarray(arrays["masks"], dtype=bool)
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        for i in range(len(ids)):
            state.objects.append(
                ObjectMemory(
                    object_id=int(ids[i]),
                    mask=masks[i].copy(),
                    centroid=np.asarray(arrays["centroids"][i], dtype=np.float32).copy(),
                    conf=float(arrays["conf"][i]),
                    ema_area=float(arrays["ema_area"][i]),
                    misses=int(arrays["misses"][i]),
                    born_at=int(arrays["born_at"][i]),
                )
            )
        grave_ids = np.asarray(arrays["grave_ids"], dtype=np.int64)
        for i in range(len(grave_ids)):
            state.graveyard.append(
                (int(grave_ids[i]), np.asarray(arrays["grave_centroids"][i], dtype=np.float32).copy())
            )
        last_mask = np.asarray(arrays["last_mask"], dtype=bool)
        state.last_mask = last_mask if last_mask.size else None
        return state


def _memory_points(mask: np.ndarray, n: int, rng, *, iterations: int = 2) -> np.ndarray | None:
    """Sample (x, y) prompt points from the confident interior of a mask."""
    interior = erode(mask, iterations) if iterations > 0 else mask
    ys, xs = np.nonzero(interior if interior.any() else mask)
    if ys.size == 0:
        return None
    idx = rng.choice(ys.size, size=min(n, ys.size), replace=False)
    return np.stack([xs[idx], ys[idx]], axis=1).astype(np.float64)


def _mask_roi(
    mask: np.ndarray, shape: tuple[int, int], margin: int
) -> tuple[int, int, int, int] | None:
    """Padded bbox ``(y0, y1, x0, x1)`` of a mask; None → decode full-frame.

    None when the margin is 0 (windowing disabled), the mask is empty, or
    the padded window already covers the whole frame.
    """
    if margin <= 0 or not mask.any():
        return None
    ys, xs = np.nonzero(mask)
    h, w = shape
    y0 = max(int(ys.min()) - margin, 0)
    y1 = min(int(ys.max()) + margin + 1, h)
    x0 = max(int(xs.min()) - margin, 0)
    x1 = min(int(xs.max()) + margin + 1, w)
    if (y1 - y0) * (x1 - x0) >= h * w:
        return None
    return y0, y1, x0, x1


def _embedding_centroid(embedding: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean embedding over the grid cells the mask touches."""
    gh, gw, c = embedding.shape
    h, w = mask.shape
    yy, xx = np.nonzero(mask)
    if yy.size == 0:
        return np.zeros(c, dtype=np.float32)
    cells = np.unique((yy * gh) // h * gw + (xx * gw) // w)
    return embedding.reshape(-1, c)[cells].mean(axis=0).astype(np.float32)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 or b.size == 0 or a.size != b.size:
        return 0.0
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= 0.0 or nb <= 0.0:
        return 0.0
    return float(np.dot(a.astype(np.float64), b.astype(np.float64)) / (na * nb))


class PropagationEngine:
    """Streaming per-slice propagation with per-object memory.

    Callers drive the engine one slice at a time with :meth:`step`; the
    engine never sees the whole volume, so jobs can checkpoint
    ``engine.state`` after every slice and resume bit-identically.
    """

    def __init__(
        self,
        pipeline: "ZenesisPipeline",
        prompt: str,
        *,
        config: PropagationConfig | None = None,
        state: PropagationState | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.prompt = str(prompt)
        self.config = config or PropagationConfig()
        self.state = state if state is not None else PropagationState()
        self.last_detection = None  # provenance for propagated SliceResults

    # -- confidence model ------------------------------------------------------

    @staticmethod
    def update_confidence(conf: float, obs: float, alpha: float) -> float:
        """EMA confidence update; obs=1 never decreases, obs in [0,1] stays bounded."""
        return (1.0 - alpha) * conf + alpha * obs

    def confidence(self) -> float:
        """Area-weighted mean of the live objects' EMA IoU confidences."""
        objs = self.state.objects
        if not objs:
            return 0.0
        weights = np.array([max(o.ema_area, 1.0) for o in objs], dtype=np.float64)
        confs = np.array([o.conf for o in objs], dtype=np.float64)
        return float((weights * confs).sum() / weights.sum())

    # -- one slice -------------------------------------------------------------

    def step(self, z: int, raw_slice: np.ndarray) -> tuple[np.ndarray, dict]:
        """Process slice ``z``; returns (mask, per-slice metadata)."""
        check_deadline(f"propagation (slice {z})")
        cfg = self.config
        st = self.state
        raw = np.asarray(raw_slice)
        raw_key = array_content_key(raw)
        registry = get_registry()

        initial = st.grounded_slices == 0
        scheduled = initial or (
            cfg.keyframe_interval > 0 and st.steps_since_ground >= cfg.keyframe_interval
        )

        if not scheduled and st.last_raw_key == raw_key and st.last_mask is not None:
            # Identical-slice short-circuit: content-addressed volumes repeat
            # slices verbatim; the memory observation is exact (IoU = 1).
            for obj in st.objects:
                obj.conf = self.update_confidence(obj.conf, 1.0, cfg.ema_alpha)
                obj.misses = 0
            mask = st.last_mask.copy()
            st.propagated_slices += 1
            st.short_circuits += 1
            st.steps_since_ground += 1
            meta = {
                "slice": int(z),
                "grounded": False,
                "short_circuit": True,
                "confidence": self.confidence(),
                "n_objects": len(st.objects),
            }
            self._commit(z, raw_key, mask, registry, meta)
            return mask, meta

        if scheduled:
            reason = "initial" if initial else "keyframe"
            mask, meta = self._ground_step(z, raw, reason)
        else:
            union = self._propagate_step(z, raw)
            conf = self.confidence()
            if cfg.reground and (not st.objects or conf < cfg.confidence_floor):
                reason = "lost" if not st.objects else "confidence"
                mask, meta = self._ground_step(z, raw, reason)
            else:
                mask = union
                st.propagated_slices += 1
                st.steps_since_ground += 1
                meta = {
                    "slice": int(z),
                    "grounded": False,
                    "confidence": conf,
                    "n_objects": len(st.objects),
                }
        self._commit(z, raw_key, mask, registry, meta)
        return mask, meta

    def _commit(self, z: int, raw_key: str, mask: np.ndarray, registry, meta: dict) -> None:
        st = self.state
        st.z = int(z)
        st.last_raw_key = raw_key
        st.last_mask = mask.copy()
        if meta.get("grounded", False):
            registry.counter("repro_temporal_grounded_slices_total").inc()
        else:
            registry.counter("repro_temporal_propagated_slices_total").inc()
        registry.gauge("repro_temporal_confidence").set(float(meta.get("confidence", 0.0)))

    # -- grounded slice (keyframe / confidence fallback) -----------------------

    def _ground_step(self, z: int, raw: np.ndarray, reason: str) -> tuple[np.ndarray, dict]:
        cfg = self.config
        st = self.state
        pipe = self.pipeline
        registry = get_registry()
        with trace("propagate.ground", slice=z, reason=reason):
            det_img, seg_img = pipe.adapt(raw)
            detection = pipe.ground(det_img, self.prompt, slice_index=z)
            mask, per_box, kinds = pipe.segment_with_boxes(seg_img, detection)
        self.last_detection = detection
        embedding = pipe.predictor.embedding  # encoded here: keyframes only

        comps = connected_components(mask, min_area=cfg.min_object_area)
        comps.sort(key=lambda m: int(m.sum()), reverse=True)
        comps = comps[: cfg.max_objects]

        # Associate grounded components with tracked objects by mask IoU.
        assigned: dict[int, np.ndarray] = {}
        births: list[np.ndarray] = []
        for comp in comps:
            best_obj, best_iou = None, 0.0
            for obj in st.objects:
                iou_val = masks_iou(comp, obj.mask)
                if iou_val >= cfg.match_iou and iou_val > best_iou:
                    best_obj, best_iou = obj, iou_val
            if best_obj is None:
                births.append(comp)
            elif best_obj.object_id in assigned:
                assigned[best_obj.object_id] |= comp
            else:
                assigned[best_obj.object_id] = comp.copy()

        survivors: list[ObjectMemory] = []
        for obj in st.objects:
            observed = assigned.get(obj.object_id)
            if observed is not None:
                obj.mask = observed
                obj.conf = 1.0  # grounded observation resets the memory
                obj.misses = 0
                area = float(observed.sum())
                obj.ema_area = (
                    area
                    if obj.ema_area <= 0.0
                    else self.update_confidence(obj.ema_area, area, cfg.ema_alpha)
                )
                obj.centroid = _embedding_centroid(embedding, observed)
                survivors.append(obj)
            else:
                obj.misses += 1
                obj.conf = self.update_confidence(obj.conf, 0.0, cfg.ema_alpha)
                if obj.misses > cfg.max_misses:
                    self._bury(obj, registry)
                else:
                    survivors.append(obj)
        st.objects = survivors

        for comp in births:
            if len(st.objects) >= cfg.max_objects:
                break
            centroid = _embedding_centroid(embedding, comp)
            object_id = self._resurrect(centroid)
            if object_id is None:
                object_id = st.next_object_id
                st.next_object_id += 1
                st.births += 1
                registry.counter("repro_temporal_births_total").inc()
            st.objects.append(
                ObjectMemory(
                    object_id=object_id,
                    mask=comp.copy(),
                    centroid=centroid,
                    conf=1.0,
                    ema_area=float(comp.sum()),
                    born_at=int(z),
                )
            )

        st.grounded_slices += 1
        st.steps_since_ground = 0
        if reason in ("confidence", "lost"):
            st.regrounds += 1
            registry.counter("repro_temporal_regrounds_total").inc()
        elif reason == "keyframe":
            st.keyframes += 1
        meta = {
            "slice": int(z),
            "grounded": True,
            "reason": reason,
            "confidence": self.confidence(),
            "n_objects": len(st.objects),
            "detection": detection,
            "per_box_masks": tuple(per_box),
            "per_box_kinds": tuple(kinds),
        }
        return mask, meta

    def _bury(self, obj: ObjectMemory, registry) -> None:
        st = self.state
        st.deaths += 1
        registry.counter("repro_temporal_deaths_total").inc()
        st.graveyard.append((obj.object_id, obj.centroid))
        if len(st.graveyard) > self.config.max_objects:
            st.graveyard = st.graveyard[-self.config.max_objects :]

    def _resurrect(self, centroid: np.ndarray) -> int | None:
        """Match a newborn component against dead objects' embedding centroids."""
        st = self.state
        best_idx, best_cos = None, self.config.resurrect_cosine
        for i, (_, dead_centroid) in enumerate(st.graveyard):
            cos = _cosine(centroid, dead_centroid)
            if cos >= best_cos:
                best_idx, best_cos = i, cos
        if best_idx is None:
            return None
        object_id, _ = st.graveyard.pop(best_idx)
        st.resurrections += 1
        get_registry().counter("repro_temporal_resurrections_total").inc()
        return object_id

    # -- propagated slice (no DINO, no ViT encode) -----------------------------

    def _analytic_ctx(self, raw: np.ndarray):
        """Analytic decode context for a slice; ``set_image`` never encodes."""
        pipe = self.pipeline
        _, seg_img = pipe.adapt(raw)
        pipe.predictor.set_image(seg_img)
        return pipe.predictor.analytic_context

    def _propagate_step(self, z: int, raw: np.ndarray) -> np.ndarray:
        cfg = self.config
        st = self.state
        registry = get_registry()
        with trace("propagate.decode", slice=z, n_objects=len(st.objects)):
            ctx = self._analytic_ctx(raw)
            union = np.zeros(raw.shape[:2], dtype=bool)
            survivors: list[ObjectMemory] = []
            for obj in sorted(st.objects, key=lambda o: o.object_id):
                rng = spawn_rng(cfg.seed, "propagation", z, obj.object_id)
                points = _memory_points(
                    obj.mask, cfg.n_memory_points, rng, iterations=cfg.erosion_iterations
                )
                candidate = None
                if points is not None:
                    analytic = self.pipeline.sam.analytic
                    labels = np.ones(len(points), dtype=int)
                    roi = _mask_roi(obj.mask, raw.shape[:2], cfg.roi_margin_px)
                    if roi is not None:
                        # Windowed decode: the object fits in its padded
                        # bbox, so the band/clean morphology only touches
                        # O(object) pixels instead of the whole frame.
                        y0, y1, x0, x1 = roi
                        hyps = analytic.masks_from_points(
                            analytic.crop_context(ctx, roi),
                            points - np.array([x0, y0], dtype=np.float64),
                            labels,
                        )
                    else:
                        hyps = analytic.masks_from_points(ctx, points, labels)
                    best_iou, best_mask = 0.0, None
                    for hyp in hyps:
                        mask = hyp.mask
                        if not mask.any():
                            continue
                        if roi is not None:
                            full = np.zeros(raw.shape[:2], dtype=bool)
                            full[y0:y1, x0:x1] = mask
                            mask = full
                        iou_val = masks_iou(mask, obj.mask)
                        if best_mask is None or iou_val > best_iou:
                            best_iou, best_mask = iou_val, mask
                    if best_mask is not None and best_iou >= cfg.min_candidate_iou:
                        candidate = (best_iou, best_mask)
                if candidate is None:
                    obj.misses += 1
                    obj.conf = self.update_confidence(obj.conf, 0.0, cfg.ema_alpha)
                    if obj.misses > cfg.max_misses:
                        self._bury(obj, registry)
                    else:
                        survivors.append(obj)
                    continue
                obs_iou, cand_mask = candidate
                area = float(cand_mask.sum())
                ref_area = max(obj.ema_area, 1.0)
                obs = obs_iou * (0.5 if abs(area - ref_area) / ref_area > cfg.area_change_limit else 1.0)
                obj.conf = self.update_confidence(obj.conf, obs, cfg.ema_alpha)
                obj.ema_area = self.update_confidence(obj.ema_area, area, cfg.ema_alpha)
                obj.mask = cand_mask
                obj.misses = 0
                union |= cand_mask
                survivors.append(obj)
            # Merge objects whose propagated masks converged (split/merge
            # topology): the older id absorbs the newer one.
            merged: list[ObjectMemory] = []
            for obj in sorted(survivors, key=lambda o: o.object_id):
                absorbed = False
                for keeper in merged:
                    if masks_iou(obj.mask, keeper.mask) > cfg.merge_iou:
                        keeper.mask |= obj.mask
                        self._bury(obj, registry)
                        absorbed = True
                        break
                if not absorbed:
                    merged.append(obj)
            st.objects = merged
        return union


def resume_propagation(ckpt, engine: PropagationEngine) -> int:
    """Restore ``engine.state`` from a checkpoint; returns the first slice to compute.

    Returns 0 when the checkpoint has no usable propagation state.  A
    usable state requires every mask shard up to ``state.z`` — the state
    shard is written *after* the slice shard, so a crash between the two
    leaves shards ahead of the state, which are simply recomputed
    (deterministically, to identical bytes).  The restored prefix's masks
    stay in the checkpoint; the caller reads them back.
    """
    arrays = ckpt.load_state(STATE_NAME)
    if arrays is None:
        return 0
    state = PropagationState.from_arrays(arrays)
    z_done = state.z
    if z_done < 0 or z_done >= ckpt.n_slices:
        return 0
    if any(z not in ckpt.completed for z in range(z_done + 1)):
        return 0
    engine.state = state
    return z_done + 1


def _combined_stats(parts: list[PropagationState], base: PropagationState | None) -> dict:
    """Sum counters across directional passes, removing the forked baseline."""
    totals = {name: 0 for name in PropagationState._COUNTERS}
    for part in parts:
        for name in totals:
            totals[name] += int(getattr(part, name))
    if base is not None:
        for name in totals:
            totals[name] -= int(getattr(base, name))
    return totals


def propagate_volume(
    pipeline: "ZenesisPipeline",
    volume,
    prompt: str,
    *,
    reference_slice: int = 0,
) -> VolumeResult:
    """Segment ``reference_slice`` with full grounding, propagate to the rest.

    Propagation runs outward from the reference in both Z directions, each
    direction with its own memory forked from the post-reference state.
    The engine runs ``pipeline.config.propagation``, as the volume driver
    does.
    """
    cfg = pipeline.config.propagation
    voxels = volume.voxels if hasattr(volume, "voxels") else np.asarray(volume)
    if voxels.ndim != 3:
        raise PipelineError(f"propagate_volume expects a 3-D volume, got shape {voxels.shape}")
    n = voxels.shape[0]
    if not 0 <= reference_slice < n:
        raise PipelineError(f"reference_slice {reference_slice} out of range [0, {n})")
    text = prompt.text if hasattr(prompt, "text") else str(prompt)

    masks = np.zeros(voxels.shape, dtype=bool)
    metas: dict[int, dict] = {}
    forward = PropagationEngine(pipeline, text, config=cfg)
    with trace("volume.propagate", prompt=text, n_slices=n, reference=reference_slice):
        masks[reference_slice], metas[reference_slice] = forward.step(
            reference_slice, voxels[reference_slice]
        )
        fork = forward.state.clone()
        for z in range(reference_slice + 1, n):
            masks[z], metas[z] = forward.step(z, voxels[z])
        states = [forward.state]
        base = None
        if reference_slice > 0:
            backward = PropagationEngine(pipeline, text, config=cfg, state=fork.clone())
            for z in range(reference_slice - 1, -1, -1):
                masks[z], metas[z] = backward.step(z, voxels[z])
            states.append(backward.state)
            base = fork

    stats = _combined_stats(states, base)
    ref_detection = metas[reference_slice].get("detection")
    results = []
    for z in range(n):
        meta = metas[z]
        if meta.get("grounded"):
            results.append(
                SliceResult(
                    mask=masks[z],
                    detection=meta.get("detection"),
                    per_box_masks=meta.get("per_box_masks", ()),
                    per_box_kinds=meta.get("per_box_kinds", ()),
                    prompt=text,
                    metadata={"slice": z, "grounded": True, "reason": meta.get("reason")},
                )
            )
        else:
            results.append(
                SliceResult(
                    mask=masks[z],
                    detection=ref_detection,
                    prompt=text,
                    metadata={
                        "propagated": True,
                        "slice": z,
                        "confidence": meta.get("confidence"),
                    },
                )
            )
    report = {"mode": "propagation", **stats}
    return VolumeResult(
        masks=masks,
        slice_results=tuple(results),
        prompt=text,
        refinement_report=report,
    )
