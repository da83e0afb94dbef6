"""Platform sessions: the state behind one user's workspace.

A session holds the loaded image/volume, the active pipeline, accumulated
results, and the interactive sub-sessions (rectify, hierarchy).  The JSON
API (:mod:`repro.platform.api`) is a thin, stateless translation layer over
these objects.

Serving contract (see DESIGN.md §"Serving failure model"):

* every session carries an :class:`threading.RLock`; the API layer holds it
  for the duration of a mutating action, so concurrent requests against
  *one* session serialize while distinct sessions run in parallel;
* mutations commit atomically at the end of an action — the per-request
  deadline (:func:`repro.resilience.serving.check_deadline`) is re-checked
  at stage boundaries and immediately before commit, so a 504 never leaves
  a half-mutated session;
* :meth:`Session.segment` runs the pipeline *decomposed* (adapt → ground →
  decode) under the store's circuit breakers: a tripped grounding breaker
  degrades to the session's last-good boxes (or the SAM-only automatic
  path), a tripped SAM breaker degrades to the relevance-threshold mask,
  and the result is tagged ``degraded`` instead of failing the request;
* :class:`SessionStore` is fully synchronized, TTL-evicts idle sessions,
  and LRU-evicts above a capacity cap so session memory is bounded under
  sustained traffic.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..adapt.readiness import score_readiness
from ..core.hierarchy import SegmentNode, further_segment
from ..core.hitl import RectifySession
from ..core.pipeline import ZenesisConfig, ZenesisPipeline
from ..core.results import SliceResult, VolumeResult
from ..data.image import ScientificImage
from ..data.volume import ScientificVolume
from ..errors import (
    GroundingError,
    PipelineError,
    RetryExhaustedError,
    SessionError,
    UnknownSessionError,
)
from ..io.formats import load_image_file
from ..io.lazy import LazyVolume, open_lazy_volume
from ..models.dino import Detection
from ..observability.metrics import get_registry
from ..observability.trace import trace
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from ..resilience.serving.lifecycle import check_deadline
from ..utils.validation import ensure_finite

__all__ = ["Session", "SessionStore"]

_session_counter = itertools.count(1)

#: How many evicted session ids the store remembers (for the "evicted"
#: hint on late requests); beyond this, old ids degrade to plain unknown.
_EVICTED_MEMORY = 512


@dataclass
class Session:
    """One user workspace: data + pipeline + results."""

    session_id: str
    pipeline: ZenesisPipeline
    image: ScientificImage | None = None
    volume: ScientificVolume | None = None
    #: Streamed (out-of-core) volume attached via ``load_file(stream=True)``.
    #: Holds shape/dtype/metadata and per-tile readers only — the voxels are
    #: never fully resident; Mode B on it runs as a streaming background job.
    lazy_volume: LazyVolume | None = None
    active_slice: int = 0
    last_result: SliceResult | None = None
    last_volume_result: VolumeResult | None = None
    rectify: RectifySession | None = None
    hierarchy_root: SegmentNode | None = None
    history: list[dict] = field(default_factory=list)
    #: Serialize concurrent API actions against this session (reentrant:
    #: handlers re-resolve the session while already holding it).
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    #: Shared circuit breakers ({"grounding": ..., "sam": ...}); empty for
    #: plain library use, where stage failures propagate unchanged.
    breakers: Mapping[str, Any] = field(default_factory=dict, repr=False)
    #: Last successful grounding — the degraded path's best fallback.
    last_good_detection: Detection | None = None
    #: Background jobs this session submitted.  Provenance only: the job
    #: subsystem snapshots its inputs at submit time, so these jobs keep
    #: running (and their results stay fetchable) after the session is
    #: dropped or evicted.
    job_ids: list[str] = field(default_factory=list)
    #: Store bookkeeping: last-touch timestamp for TTL eviction.
    last_used: float = field(default=0.0, repr=False)

    # -- data loading ----------------------------------------------------------

    def load_array(self, array: np.ndarray, *, modality: str = "unknown") -> dict:
        """Load a 2-D image or 3-D volume from an in-memory array.

        Rejects empty and NaN/inf-poisoned arrays up front (structured
        :class:`~repro.errors.ValidationError`) — the upload path must fail
        loudly here, not as empty masks three stages later.
        """
        arr = ensure_finite(array, "uploaded array")
        if arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] in (3, 4)):
            new_image: ScientificImage | None = ScientificImage(pixels=arr, modality=modality)
            new_volume: ScientificVolume | None = None
        elif arr.ndim == 3:
            new_volume = ScientificVolume(voxels=arr, modality=modality)
            new_image = None
        else:
            raise SessionError(f"cannot interpret array of shape {arr.shape}")
        check_deadline("load_array (pre-commit)")
        self._close_lazy()
        self.image, self.volume = new_image, new_volume
        self.active_slice = 0
        self._reset_interactions()
        self.history.append({"action": "load", "shape": list(arr.shape)})
        return self.preview()

    def load_file(self, path: str, *, modality: str = "unknown", stream: bool = False) -> dict:
        """Load from disk (TIFF/PNG/npy/npz, sniffed by magic bytes).

        With ``stream=True`` the file (or slice directory) is attached as a
        :class:`~repro.io.LazyVolume` instead of being read into memory:
        only the header is parsed, per-slice tiles load on demand, and Mode B
        runs as a streaming background job.  The structured errors of
        :func:`~repro.io.open_lazy_volume` (empty file, unknown format,
        truncated header) surface here, at upload time.
        """
        if stream:
            return self.load_lazy(path, modality=modality)
        return self.load_array(load_image_file(path), modality=modality)

    def load_lazy(self, path: str, *, modality: str = "unknown") -> dict:
        """Attach an on-disk volume for out-of-core streaming (no full read)."""
        volume = open_lazy_volume(path)
        check_deadline("load_file stream (pre-commit)")
        self._close_lazy()
        self.image, self.volume = None, None
        self.lazy_volume = volume
        self.modality = str(modality)
        self.active_slice = 0
        self._reset_interactions()
        self.history.append(
            {"action": "load_stream", "shape": list(volume.shape), "source": volume.source_path}
        )
        return self.preview()

    def _close_lazy(self) -> None:
        if self.lazy_volume is not None:
            self.lazy_volume.close()
            self.lazy_volume = None

    def close(self) -> None:
        """Release held resources (open file maps); idempotent."""
        self._close_lazy()

    def _reset_interactions(self) -> None:
        self.last_result = None
        self.last_volume_result = None
        self.rectify = None
        self.hierarchy_root = None
        self.last_good_detection = None

    # -- introspection -----------------------------------------------------------

    def current_image(self) -> ScientificImage:
        """The active 2-D view (the image, or the selected volume slice)."""
        if self.image is not None:
            return self.image
        if self.volume is not None:
            return self.volume.slice_image(self.active_slice)
        if self.lazy_volume is not None:
            # One tile read — interactive Mode A on a streamed volume stays
            # O(slice), never materializing the stack.
            tile = self.lazy_volume.read_tile(self.active_slice)
            return ScientificImage(pixels=tile, modality=getattr(self, "modality", "unknown"))
        raise SessionError("no data loaded; call load first")

    def preview(self) -> dict:
        """Data summary + readiness scores (the UI's preview card)."""
        if self.lazy_volume is not None:
            desc: dict[str, Any] = self.lazy_volume.describe()
            desc["kind"] = "lazy_volume"
            desc["active_slice"] = self.active_slice
        elif self.volume is not None:
            desc = self.volume.describe()
            desc["kind"] = "volume"
            desc["active_slice"] = self.active_slice
        elif self.image is not None:
            desc = self.image.describe()
            desc["kind"] = "image"
        else:
            raise SessionError("no data loaded; call load first")
        desc["readiness"] = score_readiness(self.current_image()).as_dict()
        return desc

    def select_slice(self, index: int) -> dict:
        if self.lazy_volume is not None:
            n_slices = self.lazy_volume.n_tiles
        elif self.volume is not None:
            n_slices = self.volume.n_slices
        else:
            raise SessionError("select_slice requires a loaded volume")
        if not 0 <= index < n_slices:
            raise SessionError(f"slice {index} out of range [0, {n_slices})")
        self.active_slice = int(index)
        return self.preview()

    # -- Mode A: guarded, degradable segmentation ---------------------------------

    def _ground_guarded(self, det_img: np.ndarray, prompt: str, degraded: list[str]) -> Detection | None:
        """Grounding under the breaker: failures degrade to last-good boxes.

        Returns ``None`` when grounding is unavailable *and* no last-good
        detection exists — the caller then takes the SAM-only path.
        Without a breaker configured, failures propagate unchanged.
        """
        breaker = self.breakers.get("grounding")
        if breaker is not None and not breaker.allow():
            degraded.append("grounding:open")
        else:
            try:
                if get_fault_plan().should_fire("grounding_error", action="segment"):
                    raise GroundingError("injected grounding_error fault")
                detection = self.pipeline.ground(np.asarray(det_img), prompt)
            except (GroundingError, PipelineError, RetryExhaustedError) as exc:
                if breaker is None:
                    raise
                breaker.record_failure()
                degraded.append(f"grounding:{type(exc).__name__}")
            else:
                if breaker is not None:
                    breaker.record_success()
                self.last_good_detection = detection
                return detection
        if self.last_good_detection is not None:
            degraded.append("grounding:last_good_boxes")
            return self.last_good_detection
        degraded.append("grounding:sam_only_fallback")
        return None

    def _relevance_mask(self, detection: Detection) -> np.ndarray:
        """SAM-free fallback: threshold the text-grounded relevance map."""
        return np.asarray(detection.relevance) >= self.pipeline.config.box_threshold

    def _sam_only_mask(self, seg_img: np.ndarray) -> np.ndarray:
        """Grounding-free fallback: SAM's automatic max-confidence mask.

        If the SAM breaker is also open (both model stages down), fall all
        the way back to a classical Otsu mask — the request still answers.
        """
        sam_breaker = self.breakers.get("sam")
        if sam_breaker is not None and not sam_breaker.allow():
            from ..baselines.otsu import otsu_segment

            return otsu_segment(seg_img)
        from ..models.sam.automatic import SamAutomaticMaskGenerator

        try:
            generator = SamAutomaticMaskGenerator(self.pipeline.sam, points_per_side=6)
            records = generator.generate(np.asarray(seg_img, dtype=np.float32))
        except Exception:
            if sam_breaker is not None:
                sam_breaker.record_failure()
            from ..baselines.otsu import otsu_segment

            return otsu_segment(seg_img)
        if sam_breaker is not None:
            sam_breaker.record_success()
        if not records:
            return np.zeros(np.asarray(seg_img).shape, dtype=bool)
        return np.asarray(records[0]["segmentation"], dtype=bool)

    def _decode_guarded(
        self,
        seg_img: np.ndarray,
        detection: Detection | None,
        boxes: np.ndarray | None,
        degraded: list[str],
    ) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
        """SAM decoding under its breaker; degrades to the relevance mask."""
        if detection is None:
            return self._sam_only_mask(seg_img), [], []
        breaker = self.breakers.get("sam")
        if breaker is not None and not breaker.allow():
            degraded.append("sam:open")
            return self._relevance_mask(detection), [], []
        try:
            if get_fault_plan().should_fire("sam_error", action="segment"):
                raise PipelineError("injected sam_error fault")
            mask, per_box, kinds = self.pipeline.segment_with_boxes(seg_img, detection, boxes)
        except (PipelineError, RetryExhaustedError) as exc:
            if breaker is None:
                raise
            breaker.record_failure()
            degraded.append(f"sam:{type(exc).__name__}")
            return self._relevance_mask(detection), [], []
        if breaker is not None:
            breaker.record_success()
        return mask, per_box, kinds

    def segment(self, prompt: str, hints=None) -> SliceResult:
        """Interactive segmentation of the active image/slice.

        Runs the pipeline decomposed so each model stage sits behind its
        circuit breaker; the per-request deadline is re-checked between
        stages and before the session mutation commits.  A degraded result
        lists what fell back in ``result.metadata["degraded"]``.
        """
        image = self.current_image()
        text = str(prompt)
        degraded: list[str] = []
        det_img, seg_img = self.pipeline.adapt(image)
        check_deadline("segment (post-adapt)")
        detection = self._ground_guarded(det_img, text, degraded)
        check_deadline("segment (post-ground)")
        boxes = None
        if detection is not None:
            boxes = detection.boxes
            if hints is not None and hints.boxes:
                user_boxes = np.stack(hints.validated_boxes(seg_img.shape))
                boxes = np.concatenate([boxes, user_boxes], axis=0) if len(boxes) else user_boxes
        mask, per_box, kinds = self._decode_guarded(seg_img, detection, boxes, degraded)
        if detection is not None and hints is not None and hints.has_points:
            coords, labels = hints.point_arrays()
            with trace("sam.point_prompts"):
                masks, _, _ = self.pipeline.predictor.predict(
                    point_coords=coords, point_labels=labels, multimask_output=False
                )
            mask = mask | masks[0]
        if detection is None:
            h, w = np.asarray(seg_img).shape[:2]
            detection = Detection(
                boxes=np.zeros((0, 4), dtype=np.float64),
                scores=np.zeros(0, dtype=np.float64),
                phrases=(),
                relevance=np.zeros((h, w), dtype=np.float32),
                ungrounded=(text,),
            )
        if degraded:
            record_event("server.degraded")
            for stage in degraded:
                get_registry().counter(
                    "repro_server_degraded_total", stage=stage.split(":", 1)[0]
                ).inc()
        get_registry().counter("repro_pipeline_images_total").inc()
        metadata: dict = {"n_user_boxes": 0 if hints is None else len(hints.boxes)}
        if degraded:
            metadata["degraded"] = tuple(degraded)
        result = SliceResult(
            mask=mask,
            detection=detection,
            per_box_masks=tuple(per_box),
            per_box_kinds=tuple(kinds),
            prompt=text,
            metadata=metadata,
        )
        # Commit point: nothing above mutated the session, so a deadline
        # expiry here leaves the workspace exactly as the client knew it.
        check_deadline("segment (pre-commit)")
        self.last_result = result
        self.rectify = None
        self.history.append({"action": "segment", "prompt": text, "coverage": result.coverage})
        return result

    def rectify_click(self, x: float, y: float) -> dict:
        """HITL rectification round at pixel (x, y)."""
        if self.last_result is None:
            raise SessionError("rectify requires a prior segment call")
        if self.rectify is None:
            _, seg_img = self.pipeline.adapt(self.current_image())
            check_deadline("rectify (post-adapt)")
            self.rectify = RectifySession(
                self.pipeline.predictor, seg_img, initial_mask=self.last_result.mask
            )
        step = self.rectify.rectify((x, y))
        self.history.append({"action": "rectify", "click": [x, y]})
        return {
            "added_area": int(step.added_mask.sum()),
            "total_area": int(self.rectify.mask.sum()),
            "candidates": step.candidate_count,
        }

    def current_mask(self) -> np.ndarray:
        """The current working mask (rectified if a rectify round happened)."""
        if self.rectify is not None:
            return self.rectify.mask
        if self.last_result is not None:
            return self.last_result.mask
        raise SessionError("no segmentation yet")

    def further_segment(self, region, prompt: str) -> SegmentNode:
        """Hierarchical re-segmentation of a sub-region of the active image."""
        _, seg_img = self.pipeline.adapt(self.current_image())
        check_deadline("further_segment (post-adapt)")
        if self.hierarchy_root is None:
            self.hierarchy_root = SegmentNode(mask=self.current_mask(), prompt="(root)")
        node = further_segment(self.pipeline, seg_img, region, prompt, parent=self.hierarchy_root)
        self.history.append({"action": "further_segment", "prompt": prompt})
        return node

    # -- Mode B --------------------------------------------------------------------

    def segment_volume(
        self,
        prompt: str,
        *,
        temporal: bool = True,
        temporal_mode: str | None = None,
        n_workers: int = 1,
    ) -> VolumeResult:
        if self.volume is None:
            if self.lazy_volume is not None:
                raise SessionError(
                    "this volume was loaded with stream=True; synchronous "
                    "segment_volume would materialize it — use the streaming "
                    "job route (segment_volume via the API with jobs enabled)"
                )
            raise SessionError("segment_volume requires a loaded volume")
        result = self.pipeline.segment_volume(
            self.volume,
            prompt,
            temporal=temporal,
            temporal_mode=temporal_mode,
            n_workers=n_workers,
        )
        check_deadline("segment_volume (pre-commit)")
        self.last_volume_result = result
        self.history.append(
            {
                "action": "segment_volume",
                "prompt": prompt,
                "n_slices": result.n_slices,
                "temporal_mode": temporal_mode or self.pipeline.config.temporal_mode,
            }
        )
        return result


class SessionStore:
    """Synchronized in-memory session registry with TTL + capacity eviction.

    * every public method is safe under concurrent callers (RLock);
    * sessions idle longer than ``ttl_s`` are evicted opportunistically on
      the next store access (``reason="ttl"``);
    * creating beyond ``max_sessions`` evicts the least-recently-used
      session first (``reason="capacity"``), so resident memory is bounded
      no matter how many clients churn workspaces;
    * recently evicted ids are remembered so a late request gets the
      ``unknown_session`` contract *with* an ``evicted`` hint instead of a
      bare unknown.
    """

    def __init__(
        self,
        *,
        pipeline_config: ZenesisConfig | None = None,
        max_sessions: int = 64,
        ttl_s: float | None = None,
        breakers: Mapping[str, Any] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self._config = pipeline_config or ZenesisConfig()
        self._lock = threading.RLock()
        self._evicted: OrderedDict[str, str] = OrderedDict()
        self._clock = clock
        self.max_sessions = int(max_sessions)
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self.breakers: Mapping[str, Any] = breakers if breakers is not None else {}

    # -- eviction ---------------------------------------------------------

    def _remember_eviction(self, sid: str, reason: str, session: "Session | None" = None) -> None:
        if session is not None:
            session.close()
        self._evicted[sid] = reason
        while len(self._evicted) > _EVICTED_MEMORY:
            self._evicted.popitem(last=False)
        record_event(f"server.session_evicted_{reason}")
        get_registry().counter("repro_server_sessions_evicted_total", reason=reason).inc()

    def _sweep_idle(self) -> None:
        """Evict TTL-expired sessions (called under the lock).

        LRU order approximates idle order, so the scan stops at the first
        live session — the sweep is O(evicted), not O(sessions).
        """
        if self.ttl_s is None:
            return
        now = self._clock()
        while self._sessions:
            sid, session = next(iter(self._sessions.items()))
            if now - session.last_used < self.ttl_s:
                break
            del self._sessions[sid]
            self._remember_eviction(sid, "ttl", session)

    def _publish_gauge(self) -> None:
        get_registry().gauge("repro_server_sessions").set(len(self._sessions))

    # -- registry ---------------------------------------------------------

    def create(self, session_id: str | None = None) -> Session:
        """Create a session, optionally under a caller-proposed id.

        Proposed ids exist for the cluster router: it mints the id *before*
        forwarding ``create_session`` so consistent hashing lands the
        session on the replica that will actually hold it.  Re-proposing an
        existing id returns the live session unchanged (idempotent), so a
        rerouted retry of an unsent create never builds a second workspace.
        """
        if session_id is not None:
            sid = str(session_id)
            if not sid or len(sid) > 128:
                raise SessionError(f"proposed session id must be 1..128 chars, got {len(sid)}")
        else:
            sid = f"s{next(_session_counter):06d}"
        session = Session(
            session_id=sid,
            pipeline=ZenesisPipeline(self._config),
            breakers=self.breakers,
        )
        with self._lock:
            self._sweep_idle()
            existing = self._sessions.get(sid)
            if existing is not None:
                existing.last_used = self._clock()
                self._sessions.move_to_end(sid)
                return existing
            while len(self._sessions) >= self.max_sessions:
                evicted_sid, evicted = self._sessions.popitem(last=False)
                self._remember_eviction(evicted_sid, "capacity", evicted)
            session.last_used = self._clock()
            self._sessions[sid] = session
            self._publish_gauge()
        return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            self._sweep_idle()
            session = self._sessions.get(session_id)
            if session is None:
                reason = self._evicted.get(session_id)
                hint = f" (evicted: {reason})" if reason else ""
                raise UnknownSessionError(
                    f"unknown session {session_id!r}{hint}", evicted_reason=reason
                )
            session.last_used = self._clock()
            self._sessions.move_to_end(session_id)
            return session

    def drop(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                session.close()
            self._publish_gauge()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
