"""The one Mode B volume driver: a single per-slice loop over a LazyVolume.

Eager arrays (as :class:`~repro.io.ArrayLazyVolume`), streamed sources and
background jobs all run :func:`drive_volume`.  Tiles are read through a
:class:`~repro.io.TileStream` and a bounded :class:`~repro.io.Prefetcher`,
slice z+1 is adapted on the adapt-ahead worker while slice z is processed,
and the temporal engine is a per-slice strategy:

* ``meanbox`` — adapt → ground → incremental box refinement → decode.  The
  paper's Fig. 7 rule replaces an outlier with the mean box of *previous*
  slices, so it is causal and one forward pass suffices;
* ``propagate`` — :meth:`~repro.core.propagation.PropagationEngine.step`.

Checkpoints follow one protocol: a slice's mask shard is written first,
then (propagate only) the engine state, so a kill at any instant resumes
bit-identically.  Their identity is :func:`volume_fingerprint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha1

import numpy as np

from ..cache import combine_keys, config_fingerprint
from ..errors import CorruptTileError, PipelineError
from ..io.integrity import Prefetcher, TileStream
from ..io.lazy import LazyVolume
from ..models.dino import Detection
from ..observability.metrics import get_registry
from ..observability.trace import trace
from ..resilience.checkpoint import CheckpointManager
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from ..resilience.serving.lifecycle import check_deadline
from .propagation import STATE_NAME, PropagationEngine, resume_propagation
from .temporal import BoxRefiner, RefinementReport

__all__ = ["ENGINES", "PHASES", "VolumeRun", "drive_volume", "volume_fingerprint"]

ENGINES = ("meanbox", "propagate")
#: The progress phase (and ``volume.<phase>`` span) of each engine.
PHASES = {"meanbox": "segment", "propagate": "propagate"}


def volume_fingerprint(volume: LazyVolume, text: str, config, extra: str) -> str:
    """Checkpoint identity of one volume run: content, prompt, config, engine.

    The content part is sha1 over ``dtype.str``, ``repr(shape)`` and the
    tile bytes in z order — for an in-memory array exactly its
    :func:`~repro.cache.array_content_key`, so eager, streamed and job runs
    of the same data share checkpoints.  A corrupt tile contributes a
    ``corrupt:{z}:{kind}`` marker instead of bytes, so a volume with a torn
    tail still has a stable identity across resume attempts.
    """
    h = sha1()
    h.update(volume.dtype.str.encode())
    h.update(repr(tuple(int(s) for s in volume.shape)).encode())
    for z in range(volume.n_tiles):
        try:
            h.update(volume.tile_bytes(z))
        except CorruptTileError as exc:
            h.update(f"corrupt:{z}:{exc.kind}".encode())
    return combine_keys(h.hexdigest(), repr(text), config_fingerprint(config), extra)


class _Meanbox:
    """Paper Mode B: every slice is adapted, grounded and refined, then decoded."""

    span = "slice.segment"
    last_detection = None

    def __init__(self, pipeline, text: str, temporal: bool, tile_shape: tuple[int, int]) -> None:
        self.pipeline = pipeline
        self.text = text
        self.refiner = (
            BoxRefiner(pipeline.config.temporal, image_shape=tile_shape) if temporal else None
        )

    def resume(self, ckpt: CheckpointManager | None, done: set[int]) -> int:
        # The refinement history needs every slice's boxes, so the loop
        # replays from slice 0; only decode is skipped for finished slices.
        if done:
            record_event("checkpoint.resumed_slices", len(done))
        return 0

    def run(self, s: "_Slice", tile: np.ndarray, span, ckpt, done: set[int]) -> None:
        """Adapt, ground and refine slice ``s``, then decode it."""
        pipe = self.pipeline
        det_img, seg_img = pipe.adapt(tile)
        detection = pipe.ground(det_img, self.text, slice_index=s.z)
        boxes = detection.boxes
        if self.refiner is not None:
            with trace("temporal.refine"):
                boxes = self.refiner.step(boxes)
        s.info["detection"] = detection
        if s.z in done:
            span.set(resumed=True)
            s.info["resumed"] = True
            s.mask = np.asarray(ckpt.load_slice(s.z), dtype=bool)
        else:
            s.mask, per_box, kinds = pipe.segment_with_boxes(seg_img, detection, boxes)
            s.info.update(per_box_masks=tuple(per_box), per_box_kinds=tuple(kinds))

    def save_state(self, ckpt: CheckpointManager) -> None:
        pass  # the refiner is rebuilt by replaying every slice

    def report(self, n: int) -> dict:
        report = self.refiner.report if self.refiner is not None else RefinementReport(n_slices=n)
        return report.as_dict()


class _Propagate:
    """Memory-conditioned Mode B: keyframe grounding + mask propagation."""

    span = "slice.propagate"

    def __init__(self, pipeline, text: str) -> None:
        self.engine = PropagationEngine(pipeline, text, config=pipeline.config.propagation)

    @property
    def last_detection(self) -> Detection | None:
        return self.engine.last_detection

    def resume(self, ckpt: CheckpointManager | None, done: set[int]) -> int:
        # Restores the contiguous prefix and the engine state it ended in.
        start = resume_propagation(ckpt, self.engine) if done else 0
        if start:
            record_event("checkpoint.resumed_slices", start)
        return start

    def run(self, s: "_Slice", tile: np.ndarray, span, ckpt, done: set[int]) -> None:
        s.mask, s.info = self.engine.step(s.z, tile)
        span.set(
            grounded=bool(s.info.get("grounded", False)),
            n_objects=int(s.info.get("n_objects", 0)),
        )

    def save_state(self, ckpt: CheckpointManager) -> None:
        ckpt.save_state(STATE_NAME, self.engine.state.to_arrays())

    def report(self, n: int) -> dict:
        return {"mode": "propagation", "temporal_mode": "propagate", **self.engine.state.stats()}


@dataclass
class _Slice:
    """One slice between its tile read and its checkpoint write."""

    z: int
    reason: str | None  # the TileStream's degraded marker, None for a clean read
    mask: np.ndarray | None = None
    info: dict = field(default_factory=dict)


def _with_next(items):
    """Yield ``(item, next_item)`` pairs, reading one item ahead.

    ``next_item`` is None after the last item, and also when reading it
    failed: the error is raised where that item would have been yielded,
    so a corrupt tile still fails at its own slice, after the slices
    before it are done.
    """
    it = iter(items)
    current = next(it, None)
    while current is not None:
        try:
            upcoming = next(it, None)
        except Exception:
            yield current, None
            raise
        yield current, upcoming
        current = upcoming


@dataclass
class VolumeRun:
    """What :func:`drive_volume` leaves besides the per-slice callbacks."""

    report: dict  # the temporal engine's refinement / propagation report
    resumed: int  # slices restored from the checkpoint
    stream: TileStream
    checkpoint: CheckpointManager | None
    last_detection: Detection | None = None  # propagate: the latest keyframe's

    @property
    def degraded(self) -> dict[int, str]:
        return self.checkpoint.degraded if self.checkpoint is not None else dict(self.stream.degraded)

    def io_stats(self) -> dict:
        volume = self.stream.volume
        return {
            "n_tiles": volume.n_tiles,
            "tile_nbytes": volume.tile_nbytes,
            "degraded": len(self.degraded),
            "quarantined": list(self.stream.quarantined),
            "source": volume.source_path,
            "meta": dict(volume.meta),
        }


def drive_volume(
    pipeline,
    volume: LazyVolume,
    text: str,
    *,
    mode: str,
    temporal: bool = True,
    checkpoint_dir=None,
    resume: bool = False,
    meta: dict | None = None,
    policy=None,
    on_slice=None,
    crash_fault: str = "volume_crash",
) -> VolumeRun:
    """Segment every slice of ``volume`` in one forward pass.

    ``on_slice(z, mask, info)`` is called per slice, in z order, once it is
    checkpointed; ``info`` holds ``resumed``, the meanbox ``detection`` and
    ``per_box_masks``/``per_box_kinds``, or the propagation step's metadata.
    ``resume`` reloads the finished slices of an interrupted run with the
    same fingerprint (another run's checkpoint raises
    :class:`~repro.errors.CheckpointError`).  ``policy`` is the
    :class:`~repro.io.IngestPolicy`.  ``crash_fault`` is the
    ``REPRO_FAULTS`` kind that hard-exits the process as slice N begins
    (``slice=N``): every earlier slice is checkpointed by then.
    """
    if mode not in ENGINES:
        raise PipelineError(f"temporal_mode must be 'meanbox' or 'propagate', got {mode!r}")
    n = volume.n_tiles
    stream = TileStream(volume, policy)
    ckpt: CheckpointManager | None = None
    done: set[int] = set()
    if checkpoint_dir is not None:
        extra = "temporal_mode=propagate" if mode == "propagate" else f"temporal={bool(temporal)}"
        with trace("volume.fingerprint", n_slices=n):
            fingerprint = volume_fingerprint(volume, text, pipeline.config, extra)
        ckpt = CheckpointManager(
            checkpoint_dir,
            fingerprint=fingerprint,
            n_slices=n,
            meta={"prompt": text, "temporal_mode": mode, **(meta or {})},
        )
        done = ckpt.load(resume=resume)
    if mode == "meanbox":
        engine = _Meanbox(pipeline, text, temporal, volume.tile_shape)
    else:
        engine = _Propagate(pipeline, text)
    start = engine.resume(ckpt, done)
    resumed = len(done) if mode == "meanbox" else start
    registry = get_registry()
    plan = get_fault_plan()

    def finish(s: _Slice) -> None:
        if s.info.get("resumed"):
            registry.counter("repro_pipeline_resumed_slices_total").inc()
        else:
            registry.counter("repro_pipeline_slices_total").inc()
            if ckpt is not None:
                if s.reason is not None:
                    ckpt.mark_degraded(s.z, s.reason)
                ckpt.save_slice(s.z, s.mask)
                engine.save_state(ckpt)
        if on_slice is not None:
            on_slice(s.z, s.mask, s.info)

    for z in range(start):
        finish(_Slice(z, None, np.asarray(ckpt.load_slice(z), dtype=bool), {"resumed": True}))
    tiles = Prefetcher(stream, start=start)
    try:
        with trace(f"volume.{PHASES[mode]}", prompt=text, n_slices=n), pipeline.adapt_ahead():
            for (z, tile, reason), upcoming in _with_next(tiles):
                check_deadline(f"segment_volume (slice {z})")
                if plan.active:
                    plan.crash_if(crash_fault, slice=z)
                    if plan.should_fire("volume_abort", slice=z):
                        raise PipelineError(f"injected volume_abort fault at slice {z}")
                if upcoming is not None:
                    pipeline.prefetch_adapt(upcoming[1])
                s = _Slice(z, reason)
                with trace(engine.span, slice=z) as span:
                    engine.run(s, tile, span, ckpt, done)
                    finish(s)
    finally:
        tiles.close()
    registry.gauge("repro_io_stream_max_resident_bytes").set(tiles.max_resident_bytes)
    if ckpt is not None:
        # Tiles the policy substituted this run; prior runs' markers are in
        # the manifest meta already (merged by ckpt.load).
        for z, reason in stream.degraded.items():
            if z not in ckpt.degraded:
                ckpt.mark_degraded(z, reason)
        ckpt.finalize()
        registry.gauge("repro_io_stream_degraded_slices").set(len(ckpt.degraded))
    return VolumeRun(
        report=engine.report(n),
        resumed=resumed,
        stream=stream,
        checkpoint=ckpt,
        last_detection=engine.last_detection,
    )
