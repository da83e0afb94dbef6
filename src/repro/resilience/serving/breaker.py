"""Circuit breakers around the inference stages (closed / open / half-open).

A breaker wraps one failure-prone stage (DINO grounding, SAM decoding).
While **closed** every call passes through; ``failure_threshold``
consecutive failures trip it **open**, after which calls are refused
immediately (the caller degrades — last-good boxes, SAM-only fallback,
relevance-threshold mask) instead of hammering a broken stage.  After
``recovery_timeout_s`` the breaker admits up to ``half_open_max_calls``
**half-open** probe calls: one success closes it again, one failure
re-opens it and restarts the timer.  An admitted call that ends in
neither (the request's own error) hands its probe back
(:meth:`~CircuitBreaker.release`).

State is published to the metrics registry on every transition
(``repro_server_breaker_state`` gauge: 0 closed / 1 open / 2 half-open,
plus ``repro_server_breaker_transitions_total``) and recorded as
``breaker.<name>.<state>`` resilience events, so the closed→open→half-open
→closed cycle required by the serving failure model is visible on
``GET /metrics``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ...observability.metrics import get_registry
from ..events import record_event

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN", "default_breakers"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of breaker states for Prometheus exposition.
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


class CircuitBreaker:
    """A classic three-state circuit breaker (thread-safe).

    A caller asks :meth:`allow` before the protected stage runs and ends
    every admitted call with exactly one of :meth:`record_success`,
    :meth:`record_failure` or :meth:`release`.
    """

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        recovery_timeout_s: float = 10.0,
        half_open_max_calls: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if half_open_max_calls < 1:
            raise ValueError(f"half_open_max_calls must be >= 1, got {half_open_max_calls}")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.recovery_timeout_s = float(recovery_timeout_s)
        self.half_open_max_calls = int(half_open_max_calls)
        self._clock = clock
        self._lock = threading.RLock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_probes = 0
        self._transitions: list[str] = []
        self._rejected_total = 0
        self._publish_state()

    # -- state machine ----------------------------------------------------

    def _publish_state(self) -> None:
        get_registry().gauge("repro_server_breaker_state", breaker=self.name).set(
            STATE_CODES[self._state]
        )

    def _transition(self, new_state: str) -> None:
        """Move to ``new_state`` (called under the lock); publish + record."""
        if new_state == self._state:
            return
        self._state = new_state
        self._transitions.append(new_state)
        if new_state == OPEN:
            self._opened_at = self._clock()
        if new_state in (CLOSED, OPEN):
            self._half_open_probes = 0
        record_event(f"breaker.{self.name}.{new_state}")
        get_registry().counter(
            "repro_server_breaker_transitions_total", breaker=self.name, to=new_state
        ).inc()
        self._publish_state()

    def _tick(self) -> None:
        """Apply the time-driven open → half-open transition (under lock)."""
        if self._state == OPEN and self._clock() - self._opened_at >= self.recovery_timeout_s:
            self._transition(HALF_OPEN)

    @property
    def state(self) -> str:
        with self._lock:
            self._tick()
            return self._state

    # -- protocol ---------------------------------------------------------

    def allow(self) -> bool:
        """May the protected stage run now?  (Counts half-open probes.)"""
        with self._lock:
            self._tick()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._half_open_probes < self.half_open_max_calls:
                self._half_open_probes += 1
                return True
            self._rejected_total += 1
            get_registry().counter(
                "repro_server_breaker_rejected_total", breaker=self.name
            ).inc()
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            if self._state == HALF_OPEN:
                self._transition(OPEN)
                return
            self._consecutive_failures += 1
            if self._state == CLOSED and self._consecutive_failures >= self.failure_threshold:
                self._transition(OPEN)

    def release(self) -> None:
        """End an admitted call that neither succeeded nor failed: a
        half-open probe is handed back for the next call."""
        with self._lock:
            if self._state == HALF_OPEN and self._half_open_probes > 0:
                self._half_open_probes -= 1

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            self._tick()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "rejected_total": self._rejected_total,
                "transitions": list(self._transitions),
            }


def default_breakers(**options) -> dict[str, CircuitBreaker]:
    """The serving layer's standard breaker set: grounding + SAM decode.

    ``options`` (``failure_threshold``, ``recovery_timeout_s``, ``clock``)
    go to each :class:`CircuitBreaker`; unset ones keep its defaults.
    """
    return {name: CircuitBreaker(name, **options) for name in ("grounding", "sam")}
