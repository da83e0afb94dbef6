"""Admission control: a bounded in-flight gate with a short wait queue.

The paper's platform runs on a single inference server; an unbounded
``ThreadingHTTPServer`` accepts every connection and lets request threads
pile up behind the CPU until latency (and memory) diverge.
:class:`AdmissionGate` bounds the damage: at most ``max_inflight`` requests
execute concurrently, at most ``max_queue`` more wait (each for at most
``queue_timeout_s``), and everything beyond that is *shed* immediately —
the caller converts the shed into HTTP 429 + ``Retry-After`` so a load
balancer or client backs off instead of stacking threads.

Observability: the gate keeps the ``repro_server_inflight`` gauge and the
``repro_server_shed_total`` counter in the global metrics registry current,
and records ``server.shed`` resilience events, so overload is visible on
``GET /metrics`` and the Fig. 8 serving card rather than only in latency.
"""

from __future__ import annotations

import math
import threading

from ...observability.metrics import get_registry
from ..events import record_event

__all__ = ["AdmissionGate"]


class AdmissionGate:
    """Bounded concurrent-admission gate (thread-safe).

    ``try_acquire`` either admits the caller (possibly after queueing up to
    ``queue_timeout_s``) or returns ``False`` having counted a shed; an
    admitted caller hands its slot back with :meth:`release`.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        *,
        max_queue: int = 16,
        queue_timeout_s: float = 0.5,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.queue_timeout_s = float(queue_timeout_s)
        self._cond = threading.Condition()
        self._inflight = 0
        self._waiting = 0
        self._shed_total = 0
        self._admitted_total = 0

    # -- metrics ----------------------------------------------------------

    def _publish(self) -> None:
        """Keep the registry gauge in sync (called under the lock)."""
        registry = get_registry()
        registry.gauge("repro_server_inflight").set(self._inflight)
        registry.gauge("repro_server_queued").set(self._waiting)

    def _count_shed(self) -> None:
        self._shed_total += 1
        get_registry().counter("repro_server_shed_total").inc()
        record_event("server.shed")

    # -- admission --------------------------------------------------------

    def try_acquire(self, timeout_s: float | None = None) -> bool:
        """Admit the caller, queueing up to ``timeout_s`` if at capacity.

        Returns ``False`` (and counts a shed) when the gate is full and the
        queue is full, or when the queue wait times out.  Every ``True``
        must be paired with :meth:`release`.
        """
        wait_budget = self.queue_timeout_s if timeout_s is None else float(timeout_s)
        with self._cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self._admitted_total += 1
                self._publish()
                return True
            if self._waiting >= self.max_queue or wait_budget <= 0.0:
                self._count_shed()
                self._publish()
                return False
            self._waiting += 1
            self._publish()
            try:
                admitted = self._cond.wait_for(
                    lambda: self._inflight < self.max_inflight, timeout=wait_budget
                )
            finally:
                self._waiting -= 1
            if not admitted:
                self._count_shed()
                self._publish()
                return False
            self._inflight += 1
            self._admitted_total += 1
            self._publish()
            return True

    def release(self) -> None:
        with self._cond:
            if self._inflight <= 0:
                raise RuntimeError("AdmissionGate.release without a matching acquire")
            self._inflight -= 1
            self._publish()
            self._cond.notify()

    # -- introspection ----------------------------------------------------

    def retry_after_s(self) -> float:
        """The backoff hint for shed requests (whole seconds, >= 1)."""
        return float(max(1, math.ceil(self.queue_timeout_s)))

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def shed_total(self) -> int:
        with self._cond:
            return self._shed_total

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "waiting": self._waiting,
                "admitted_total": self._admitted_total,
                "shed_total": self._shed_total,
            }
