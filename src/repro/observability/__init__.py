"""Unified observability: span tracing, metrics registry, run manifests.

One instrumentation path feeds every reader:

* :mod:`~repro.observability.trace` — :func:`trace` spans.  Closing one
  observes ``repro_stage_seconds{stage}``; while a tracer is active the
  spans also form a hierarchical trace with JSON and Chrome-trace export,
  serializable across the worker pool.
* :mod:`~repro.observability.metrics` — the registry of counters, gauges
  and fixed-bucket histograms: resilience events, cache stats and stage
  latencies all live here.  JSON snapshots, :func:`stage_rows`, and
  Prometheus text for ``GET /metrics``.
* :mod:`~repro.observability.manifest` — ``run.json`` documents, the
  ``--profile`` table, and ``repro metrics diff`` between two runs.
"""

from .manifest import build_manifest, diff_manifests, format_profile, load_manifest, write_manifest
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    STAGE_SECONDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
    stage_rows,
)
from .trace import (
    Span,
    Tracer,
    end_trace,
    export_spans,
    get_tracer,
    reset_tracing,
    span_topology,
    start_trace,
    trace,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "STAGE_SECONDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "build_manifest",
    "diff_manifests",
    "end_trace",
    "export_spans",
    "format_profile",
    "get_registry",
    "get_tracer",
    "load_manifest",
    "reset_registry",
    "reset_tracing",
    "span_topology",
    "stage_rows",
    "start_trace",
    "trace",
    "write_manifest",
]
