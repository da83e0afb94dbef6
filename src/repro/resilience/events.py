"""Process-wide recovery-event counters, kept in the metrics registry.

Every resilience mechanism (retries, cache quarantines, checkpoint
resumes, fired fault injections) records what it did with
:func:`record_event`, so recoveries are *observable*: event
``grounding.retries`` is the registry counter
``repro_resilience_grounding_retries_total``, which ``--profile``,
``run.json``, the Fig 8 dashboard's resilience card and ``GET /metrics``
all read.  :func:`event_count` reads one back.

Fault handling happens deep inside layers that hold no handle on anything,
hence the process-global registry.
"""

from __future__ import annotations

from ..observability.metrics import MetricsRegistry, get_registry

__all__ = ["record_event", "event_count"]


def _series(name: str) -> str:
    return f"repro_resilience_{name.replace('.', '_')}_total"


def record_event(name: str, n: int = 1) -> None:
    """Record ``n`` occurrences of event ``name``."""
    get_registry().counter(_series(name)).inc(int(n))


def event_count(name: str, registry: MetricsRegistry | None = None) -> int:
    """How often event ``name`` was recorded (0 if never)."""
    return int((registry or get_registry()).value(_series(name)))
