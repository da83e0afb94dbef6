"""Which library calls make up each layer, and the per-layer metrics.

The layer names follow the package layout (``repro.adapt``,
``repro.models.dino``, ``repro.models.sam``, ``repro.core``, ``repro.io``,
``repro.resilience.checkpoint``, ``repro.jobs``, ``repro.platform``).
Layers that run on every workload report their time in seconds per
pass; layers that run on some workloads only report it as a share of
the pass's wall time (``*_frac``), so that a layer that does not run
reads as a zero share rather than as a constant zero time.
"""

from __future__ import annotations

import statistics

from .tracing import Recorder, self_times

#: Span names that are entry points, not layers: their self time is glue.
ROOTS = ("core.pipeline", "platform.handle")

#: Cache namespaces reported per layer (the four the pipeline leans on).
CACHE_NAMESPACES = ("pipeline.adapt", "dino.ground", "sam.image", "sam.analytic_box")


def instrument(rec: Recorder) -> None:
    """Wrap the public methods of every layer's classes."""
    import repro.core.pipeline as pipeline_mod
    import repro.core.temporal as temporal_mod
    from repro.core.hitl import RectifySession
    from repro.core.pipeline import ZenesisPipeline
    from repro.core.propagation import PropagationEngine
    from repro.io.integrity import Prefetcher, TileStream
    from repro.jobs.store import JobStore
    from repro.models.sam.analytic import AnalyticMaskHead
    from repro.models.sam.image_encoder import ImageEncoderViT
    from repro.models.sam.model import SamPredictor
    from repro.platform.api import ApiHandler
    from repro.platform.session import Session
    from repro.resilience.checkpoint import CheckpointManager

    rec.wrap(ZenesisPipeline, "segment_volume", "core.pipeline")
    rec.wrap(ZenesisPipeline, "segment_volume_stream", "core.pipeline")
    rec.wrap(ZenesisPipeline, "adapt", "adapt")
    rec.wrap(ZenesisPipeline, "ground", "dino")
    rec.wrap(ZenesisPipeline, "segment_with_boxes", "core.select")
    rec.wrap(pipeline_mod, "refine_box_sequences", "core.temporal")
    rec.wrap(temporal_mod, "refine_box_sequences", "core.temporal")
    rec.wrap(PropagationEngine, "step", "core.propagation",
             units=lambda args, out: int(bool(out[1].get("grounded"))))
    rec.wrap(SamPredictor, "set_image", "sam.predictor")
    rec.wrap(SamPredictor, "precompute_images", "sam.predictor")
    rec.wrap(ImageEncoderViT, "__call__", "sam.encoder")
    rec.wrap(ImageEncoderViT, "encode_batch", "sam.encoder", units=lambda args, out: len(out))
    rec.wrap(SamPredictor, "decode_boxes", "sam.decoder", units=lambda args, out: len(out))
    rec.wrap(AnalyticMaskHead, "prepare", "sam.analytic.prepare")
    rec.wrap(SamPredictor, "masks_from_box", "sam.analytic.box")
    rec.wrap(AnalyticMaskHead, "masks_from_points", "sam.analytic.points")
    rec.wrap(RectifySession, "rectify", "core.hitl")
    rec.wrap(TileStream, "fetch", "io.fetch", units=lambda args, out: int(out[0].nbytes))
    rec.wrap_iter(Prefetcher, "__iter__", "io.wait")
    for method in ("save_slice", "save_state", "finalize"):
        rec.wrap(CheckpointManager, method, "checkpoint")
    rec.wrap(JobStore, "upsert", "jobs.journal")
    rec.wrap(JobStore, "append_event", "jobs.journal")
    rec.wrap(Session, "preview", "platform.preview")
    rec.wrap(ApiHandler, "handle", "platform.handle")


def _by_name(spans) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for s in spans:
        out.setdefault(s[2], []).append(s)
    return out


def layer_self_seconds(spans) -> dict[str, float]:
    """Self time per span name over ``spans``."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s[2]] = out.get(s[2], 0.0) + own[s[0]]
    return out


def pass_metrics(spans, wall_s: float, untraced_wall_s: float, harness: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Shares are of the traced pass's wall time, except the self-time
    coverage, which is of the untraced reference pass.  ``harness`` carries
    what the workload measured itself: cache counters, checkpoint bytes,
    job timestamps, client-side HTTP call times.
    """
    named = _by_name(spans)
    own = layer_self_seconds(spans)

    def busy(name):
        return sum(s[4] - s[3] for s in named.get(name, ()))

    def calls(name):
        return len(named.get(name, ()))

    def units(name):
        return sum(s[6] for s in named.get(name, ()))

    def p50_ms(name):
        durs = [s[4] - s[3] for s in named.get(name, ())]
        return 1000.0 * statistics.median(durs) if durs else 0.0

    def share(seconds):
        return seconds / wall_s if wall_s > 0 else 0.0

    steps = calls("core.propagation")
    m = {
        "adapt.calls": calls("adapt"),
        "adapt.busy_s": busy("adapt"),
        "adapt.call_p50_ms": p50_ms("adapt"),
        "dino.calls": calls("dino"),
        "dino.busy_s": busy("dino"),
        "dino.call_p50_ms": p50_ms("dino"),
        "sam.encoder.images": units("sam.encoder"),
        "sam.encoder.busy_s": busy("sam.encoder"),
        "sam.encoder.images_per_call": units("sam.encoder") / max(calls("sam.encoder"), 1),
        "sam.decoder.boxes": units("sam.decoder"),
        "sam.decoder.busy_s": busy("sam.decoder"),
        "sam.analytic.prepare_busy_s": busy("sam.analytic.prepare"),
        "sam.analytic.boxes": calls("sam.analytic.box"),
        "sam.analytic.box_busy_s": busy("sam.analytic.box"),
        "sam.analytic.box_p50_ms": p50_ms("sam.analytic.box"),
        "sam.analytic.points_busy_frac": share(busy("sam.analytic.points")),
        "core.select.self_s": own.get("core.select", 0.0),
        "core.temporal.busy_frac": share(busy("core.temporal")),
        "core.propagation.steps": steps,
        "core.propagation.self_frac": share(own.get("core.propagation", 0.0)),
        "core.propagation.grounded_frac": units("core.propagation") / steps if steps else 0.0,
        "io.tiles": calls("io.fetch"),
        "io.bytes": units("io.fetch"),
        "io.fetch_busy_frac": share(busy("io.fetch")),
        "io.wait_frac": share(busy("io.wait")),
        "checkpoint.writes": calls("checkpoint"),
        "checkpoint.bytes": harness.get("checkpoint_bytes", 0),
        "checkpoint.busy_frac": share(busy("checkpoint")),
        "jobs.queue_wait_frac": harness.get("queue_wait_frac", 0.0),
        "jobs.journal_bytes": harness.get("journal_bytes", 0),
        "jobs.journal_busy_frac": share(busy("jobs.journal")),
        "platform.requests": calls("platform.handle"),
        "platform.http_overhead_frac": 0.0,
        "trace.self_coverage_frac": sum(
            v for k, v in own.items() if k not in ROOTS and k != "io.wait"
        ) / untraced_wall_s,
    }
    client_ms = harness.get("client_ms")
    if calls("platform.handle") and client_ms:
        handled = busy("platform.handle")
        total = sum(client_ms) / 1000.0
        m["platform.http_overhead_frac"] = max(total - handled, 0.0) / total
    for ns in CACHE_NAMESPACES:
        hits, misses = harness.get("cache", {}).get(ns, (0, 0))
        m[f"cache.{ns}.hits"] = hits
        m[f"cache.{ns}.misses"] = misses
        m[f"cache.{ns}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return m
