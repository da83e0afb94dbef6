"""Overload-safe serving primitives for the online platform path.

PR 2 gave the *offline* batch path its failure contract (retries,
checkpoints, supervised failover); this package gives the *online* path the
same treatment, as four composable pieces the platform server wires
together:

* :class:`AdmissionGate` — bounded in-flight admission with a short wait
  queue; excess load is shed as HTTP 429 + ``Retry-After``
  (:mod:`repro.resilience.serving.admission`);
* request **deadlines** — each API action runs under a
  :class:`~repro.resilience.policy.Deadline` bound via
  :func:`request_scope`; deep stage code calls :func:`check_deadline` so
  expiry surfaces as a structured 504 *before* session state mutates
  (:mod:`repro.resilience.serving.lifecycle`);
* :class:`CircuitBreaker` — closed/open/half-open breakers around the
  grounding and SAM stages, with degraded fallbacks instead of failures
  (:mod:`repro.resilience.serving.breaker`);
* :class:`ServerLifecycle` — in-flight tracking + graceful drain for
  zero-dropped-work rolling restarts
  (:mod:`repro.resilience.serving.lifecycle`).

See DESIGN.md §"Serving failure model" for the admission → deadline →
breaker → drain state machine.
"""

from __future__ import annotations

from typing import Mapping

from ..events import event_count
from .admission import AdmissionGate
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, default_breakers
from .lifecycle import ServerLifecycle, check_deadline, current_deadline, request_scope

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "ServerLifecycle",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "check_deadline",
    "current_deadline",
    "default_breakers",
    "request_scope",
    "serving_snapshot",
]


def serving_snapshot(
    *,
    gate: AdmissionGate | None = None,
    breakers: Mapping[str, CircuitBreaker] | None = None,
    store=None,
) -> dict:
    """One JSON-safe view of the serving layer (dashboard card, debugging).

    Components not passed in are summarised from the resilience-event
    counters, so a partial view (e.g. an :class:`ApiHandler` without the
    HTTP gate) still renders.
    """
    snap: dict = {
        "shed_total": event_count("server.shed"),
        "client_disconnects": event_count("server.client_disconnect"),
        "drain_aborted": event_count("server.drain_aborted"),
        "sessions_evicted_ttl": event_count("server.session_evicted_ttl"),
        "sessions_evicted_capacity": event_count("server.session_evicted_capacity"),
        "degraded_requests": event_count("server.degraded"),
    }
    if gate is not None:
        snap["admission"] = gate.snapshot()
        snap["shed_total"] = snap["admission"]["shed_total"]
    if breakers:
        snap["breakers"] = {name: b.snapshot() for name, b in breakers.items()}
    if store is not None:
        snap["sessions"] = len(store)
        cap = getattr(store, "max_sessions", None)
        if cap is not None:
            snap["session_cap"] = cap
    return snap
