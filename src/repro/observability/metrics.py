"""The central metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the one place instrumentation lands.  Closing a
:func:`~repro.observability.trace` span observes ``repro_stage_seconds``;
:func:`~repro.resilience.events.record_event` increments
``repro_resilience_*_total``; :func:`~repro.cache.export_cache_metrics`
publishes the cache's tier and namespace stats as ``repro_cache_*``.  Every
reader — ``--profile``, ``run.json``, the dashboard, ``GET /metrics`` — reads
it, in two shapes: a JSON snapshot and Prometheus text exposition.

Naming scheme: ``repro_<layer>_<name>`` with ``_total`` suffixed on
counters and ``_seconds``/``_bytes`` unit suffixes, per Prometheus
conventions; dimensions (stage, tier, namespace, method) are labels.

Every metric update takes that metric's own lock, so concurrent threads
(the adapt-ahead worker, server request threads) lose no increment.  The
locks are held only for the update itself.

Like the tracer, this module imports nothing from the rest of the package
so every layer can feed it without cycles.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "stage_rows",
    "DEFAULT_LATENCY_BUCKETS",
    "STAGE_SECONDS",
]

#: The per-stage latency histogram every closed span observes.
STAGE_SECONDS = "repro_stage_seconds"

#: Default latency bucket upper bounds (seconds): sub-ms adaptation kernels
#: through multi-minute volume jobs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


class _Metric:
    """Name, labels and the lock that makes each update atomic."""

    kind = ""

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        """``name{label="value",...}``, as snapshots and ``/metrics`` print it."""
        return f"{self.name}{_format_labels(self.labels)}"


class _Scalar(_Metric):
    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def snapshot(self) -> float:
        return self.value


class Counter(_Scalar):
    """A monotonically non-decreasing count."""

    kind = "counter"

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        with self._lock:
            self.value += n

    def set_to(self, value: float) -> None:
        """Publish a cumulative count kept elsewhere (the cache's own stats).

        Monotone: a stale (smaller) snapshot never rolls the value back, so
        interleaved publishes of the same source cannot lose increments.
        """
        with self._lock:
            self.value = max(self.value, float(value))


class Gauge(_Scalar):
    """A value that can go up and down (bytes resident, entries, ...)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n


class Histogram(_Metric):
    """Fixed-boundary histogram with exact bucket counts and a running sum.

    ``boundaries`` are inclusive upper bounds of the finite buckets; one
    overflow bucket catches everything beyond the last boundary.  Merging
    two histograms with identical boundaries is exact on bucket counts and
    observation counts (floats only touch ``sum``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        boundaries: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name}: boundaries must be strictly increasing, got {bounds}")
        super().__init__(name, labels)
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.bucket_counts[idx] += 1
            self.count += 1
            self.sum += value

    def merge(self, other: "Histogram") -> "Histogram":
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        with other._lock:
            counts, count, total = list(other.bucket_counts), other.count, other.sum
        with self._lock:
            for i, n in enumerate(counts):
                self.bucket_counts[i] += n
            self.count += count
            self.sum += total
        return self

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) by linear in-bucket interpolation.

        The estimate always lies within the bounds of the bucket holding the
        target rank; the overflow bucket clamps to the last finite boundary
        (histograms cannot bound what they did not measure).
        """
        with self._lock:
            counts = list(self.bucket_counts)
        return self._quantile(counts, q)

    def _quantile(self, counts: list[int], q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        cum = 0
        lo = 0.0
        for i, n in enumerate(counts):
            hi = self.boundaries[i] if i < len(self.boundaries) else self.boundaries[-1]
            if n and cum + n >= target:
                frac = (target - cum) / n
                # min(): lo + (hi - lo) can round one ulp above hi.
                return min(lo + (hi - lo) * min(max(frac, 0.0), 1.0), hi)
            cum += n
            if i < len(self.boundaries):
                lo = hi
        return self.boundaries[-1]

    def snapshot(self) -> dict:
        """Counts, sum and p50/p95/p99, all from one consistent read."""
        with self._lock:
            counts, count, total = list(self.bucket_counts), self.count, self.sum
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": counts,
            "count": count,
            "sum": total,
            "p50": self._quantile(counts, 0.50),
            "p95": self._quantile(counts, 0.95),
            "p99": self._quantile(counts, 0.99),
        }


class MetricsRegistry:
    """Thread-safe home for every metric in the process."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get_or_create(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}, "
                    f"requested {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, boundaries: Iterable[float] = DEFAULT_LATENCY_BUCKETS, **labels: str
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, boundaries=boundaries)

    # -- views ----------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """A counter's or gauge's value; 0 when the series does not exist.

        Reading never creates a series, so probing for an event that never
        fired leaves ``/metrics`` unchanged.
        """
        with self._lock:
            metric = self._metrics.get((name, _label_key(labels)))
        return 0.0 if metric is None else metric.value

    def metrics(self) -> list:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """JSON-safe snapshot: ``{kind: {"name{labels}": value-or-dict}}``."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            out[metric.kind + "s"][metric.key] = metric.snapshot()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for metric in self.metrics():
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_types.add(metric.name)
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                cum = 0
                for i, bound in enumerate(metric.boundaries):
                    cum += snap["bucket_counts"][i]
                    labels = _format_labels(metric.labels + (("le", repr(bound)),))
                    lines.append(f"{metric.name}_bucket{labels} {cum}")
                cum += snap["bucket_counts"][-1]
                labels = _format_labels(metric.labels + (("le", "+Inf"),))
                lines.append(f"{metric.name}_bucket{labels} {cum}")
                plain = _format_labels(metric.labels)
                lines.append(f"{metric.name}_sum{plain} {snap['sum']}")
                lines.append(f"{metric.name}_count{plain} {snap['count']}")
            else:
                value = metric.snapshot()
                text = repr(int(value)) if float(value).is_integer() else repr(value)
                lines.append(f"{metric.name}{_format_labels(metric.labels)} {text}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: The process-global registry every layer feeds by default.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def reset_registry() -> None:
    """Clear the global registry (tests)."""
    _REGISTRY.reset()


def stage_rows(registry: MetricsRegistry | None = None) -> list[dict]:
    """Per-stage rows from the ``repro_stage_seconds`` histograms.

    Each row holds stage, calls, total/mean seconds and p50/p95/p99
    (bucket-interpolated); largest total first.  ``--profile``, ``run.json``
    ``stages``, the dashboard latency card and ``repro metrics diff`` all
    read these rows.
    """
    reg = registry or get_registry()
    rows: list[dict] = []
    for metric in reg.metrics():
        if not isinstance(metric, Histogram) or metric.name != STAGE_SECONDS:
            continue
        snap = metric.snapshot()
        calls, total = snap["count"], snap["sum"]
        rows.append(
            {
                "stage": dict(metric.labels).get("stage", "?"),
                "calls": calls,
                "total_s": total,
                "mean_s": total / calls if calls else 0.0,
                "p50_s": snap["p50"],
                "p95_s": snap["p95"],
                "p99_s": snap["p99"],
            }
        )
    rows.sort(key=lambda r: -r["total_s"])
    return rows
