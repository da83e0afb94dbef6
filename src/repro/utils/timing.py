"""Wall-clock instrumentation for pipeline stages.

The paper advertises a *real-time* evaluation framework; the reproduction
treats timing as a first-class output so the Fig. 2 workflow bench can report
per-stage latencies.  Following the "no optimization without measuring" rule
from the scientific-python optimisation guide, every pipeline exposes its
:class:`StageProfiler` rather than ad-hoc prints.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..observability.metrics import get_registry
from ..observability.trace import get_tracer

__all__ = ["Timer", "StageProfiler", "StageRecord"]


class Timer:
    """A minimal stopwatch based on :func:`time.perf_counter`.

    Usable either as a context manager or via explicit ``start``/``stop``.
    ``elapsed`` reports the latest completed interval in seconds.

    Re-entrant safe: ``start``/``with`` calls nest (a stack of start
    times), so the historical ``stop()``-without-``start()`` asymmetry —
    ``with`` blocks blowing up when the body already called ``stop()``, or
    nested use corrupting the outer interval — is gone.  ``stop()`` on a
    never-started timer still raises, as that is always a caller bug.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self.elapsed: float = 0.0

    @property
    def running(self) -> bool:
        return bool(self._starts)

    def start(self) -> "Timer":
        self._starts.append(time.perf_counter())
        return self

    def stop(self) -> float:
        if not self._starts:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._starts.pop()
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        # Tolerate a body that already stopped its own interval; exceptions
        # still record the partial interval instead of raising a second time.
        if self._starts:
            self.stop()


@dataclass
class StageRecord:
    """Aggregate timing for one named stage."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, dt: float) -> None:
        self.calls += 1
        self.total_s += dt
        self.min_s = min(self.min_s, dt)
        self.max_s = max(self.max_s, dt)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


@dataclass
class StageProfiler:
    """Accumulates wall time per named stage across repeated pipeline runs.

    Besides stage timings the profiler carries named integer *counters*
    (cache hits/misses/evictions, bytes per tier, …) so one object feeds
    both the timing table and the Fig. 8 dashboard's cache card.

    Thread-safe: the adapt-ahead worker and concurrent jobs sharing one
    pipeline record into the same profiler, so every update of a record or
    counter happens under one lock.
    """

    records: dict[str, StageRecord] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    @contextmanager
    def stage(self, name: str):
        """Context manager timing one execution of ``name``.

        Each call also feeds the unified observability layer: the duration
        is observed into the global ``repro_stage_seconds`` histogram
        (latency percentiles for manifests and the dashboard), and when a
        tracer is active the stage becomes a span in the trace tree.
        """
        tracer = get_tracer()
        span = tracer.begin(name) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self.records.setdefault(name, StageRecord(name)).add(dt)
            get_registry().histogram("repro_stage_seconds", stage=name).observe(dt)
            if tracer is not None:
                tracer.finish(span)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def set_counter(self, name: str, value: int) -> None:
        """Set counter ``name`` to an absolute value (gauges: bytes, entries)."""
        with self._lock:
            self.counters[name] = int(value)

    def set_counters(self, values: dict[str, int]) -> None:
        """Bulk :meth:`set_counter` (e.g. a cache counter snapshot)."""
        for name, value in values.items():
            self.set_counter(name, value)

    def counter_rows(self) -> list[dict]:
        """Counters as name-sorted rows for tables and the dashboard."""
        return [{"counter": k, "value": self.counters[k]} for k in sorted(self.counters)]

    def merge(self, other: "StageProfiler") -> None:
        """Fold another profiler's records into this one (for Mode B workers)."""
        with self._lock:
            for name, rec in other.records.items():
                mine = self.records.setdefault(name, StageRecord(name))
                mine.calls += rec.calls
                mine.total_s += rec.total_s
                mine.min_s = min(mine.min_s, rec.min_s)
                mine.max_s = max(mine.max_s, rec.max_s)
        for name, value in other.counters.items():
            self.count(name, value)

    def total(self) -> float:
        """Sum of all stage totals (>= true wall time when stages nest)."""
        return sum(r.total_s for r in self.records.values())

    def as_rows(self) -> list[dict]:
        """Rows for the dashboard: stage, calls, total/mean/min/max seconds."""
        return [
            {
                "stage": r.name,
                "calls": r.calls,
                "total_s": r.total_s,
                "mean_s": r.mean_s,
                "min_s": r.min_s,
                "max_s": r.max_s,
            }
            for r in sorted(self.records.values(), key=lambda r: -r.total_s)
        ]

    def format_table(self) -> str:
        """Fixed-width text table, largest total first; counters below."""
        rows = self.as_rows()
        if not rows and not self.counters:
            return "(no stages recorded)"
        lines: list[str] = []
        if rows:
            header = f"{'stage':<28}{'calls':>7}{'total[s]':>11}{'mean[s]':>11}{'min[s]':>11}{'max[s]':>11}"
            lines += [header, "-" * len(header)]
            for r in rows:
                lines.append(
                    f"{r['stage']:<28}{r['calls']:>7}{r['total_s']:>11.4f}"
                    f"{r['mean_s']:>11.4f}{r['min_s']:>11.4f}{r['max_s']:>11.4f}"
                )
        if self.counters:
            if lines:
                lines.append("")
            chead = f"{'counter':<40}{'value':>15}"
            lines += [chead, "-" * len(chead)]
            for row in self.counter_rows():
                lines.append(f"{row['counter']:<40}{row['value']:>15}")
        return "\n".join(lines)
