"""A supervised process pool for Mode B volume work.

``run_partitioned`` forks one process per :class:`SlicePartition`; each
child inherits its inputs by fork and runs ``fn(partition, *args)``, and
the parent collects the per-worker results through a queue.  The volume
driver's pooled decode sends back each slice's masks and spans this way.

The collection loop is a *supervisor*: instead of blocking on the result
queue for the full timeout, it polls the queue with a short interval and
watches each child's liveness.  A worker that dies before reporting
(SIGKILL, OOM, ``os._exit``) is detected within ~1 s via ``Process.exitcode``
— not after the 600 s queue timeout — and its partition is re-executed
inline in the parent (bounded failover) before :class:`ParallelError` is
raised.  Workers that are alive but exceed the wall-clock deadline are
terminated and reported as hung; hangs are *not* failed over (re-running a
deterministic hang inline would hang the parent too).

Worker exceptions propagate with the original traceback text attached;
every recovery action is recorded with :func:`repro.resilience.record_event`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from queue import Empty
from typing import Any, Callable, Sequence

from ..errors import ParallelError
from ..observability.metrics import get_registry
from ..observability.trace import trace
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from ..resilience.policy import Deadline
from .scheduler import SlicePartition

__all__ = ["run_partitioned", "default_worker_count"]


def default_worker_count() -> int:
    """Workers to use by default: cpu count capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


def _trampoline(fn: Callable, part: SlicePartition, args: tuple, queue: mp.Queue) -> None:
    get_fault_plan().crash_if("worker_crash", child_only=True, worker=part.worker)
    try:
        result = fn(part, *args)
        queue.put((part.worker, "ok", result))
    except Exception:
        queue.put((part.worker, "error", traceback.format_exc()))


def run_partitioned(
    fn: Callable[..., Any],
    partitions: Sequence[SlicePartition],
    *args,
    timeout_s: float = 600.0,
    max_failovers: int = 1,
    poll_s: float = 0.2,
    grace_s: float = 1.0,
) -> list[Any]:
    """Run ``fn(partition, *args)`` in one forked process per partition.

    Returns results ordered by worker id.  ``fn`` must be module-level
    (picklable by reference under fork); its return value is pickled back
    to the parent.

    ``timeout_s`` is a wall-clock deadline for the whole pool; a crashed or
    errored partition is retried up to ``max_failovers`` times *inline in
    the parent* before the pool raises.  ``grace_s`` is how long a worker
    that exited cleanly may leave its result in flight before being
    declared dead (crashes with a non-zero exit code skip the grace).
    """
    if not partitions:
        raise ParallelError("run_partitioned needs at least one partition")
    if len(partitions) == 1:
        # Degenerate case: run inline (no fork overhead, same code path for
        # the worker function).
        return [fn(partitions[0], *args)]
    ctx = mp.get_context("fork")
    queue: mp.Queue = ctx.Queue()
    procs: dict[int, mp.Process] = {
        part.worker: ctx.Process(target=_trampoline, args=(fn, part, args, queue), daemon=True)
        for part in partitions
    }
    for p in procs.values():
        p.start()

    results: dict[int, Any] = {}
    failures: dict[int, str] = {}
    pending: set[int] = set(procs)
    dead_since: dict[int, float] = {}
    deadline = Deadline(timeout_s)

    def drain(wait_s: float) -> bool:
        """Pull one report off the queue; returns False on timeout."""
        try:
            worker, status, payload = queue.get(timeout=max(wait_s, 0.0))
        except Empty:
            return False
        pending.discard(worker)
        dead_since.pop(worker, None)
        if status == "ok":
            results[worker] = payload
        else:
            failures[worker] = f"raised:\n{payload}"
            record_event("pool.worker_errors")
        return True

    try:
        while pending and not deadline.expired:
            if drain(deadline.clamp(poll_s)):
                continue
            for worker in sorted(pending):
                p = procs[worker]
                if p.is_alive():
                    dead_since.pop(worker, None)
                    continue
                # The child has exited; its report may still be in flight.
                while drain(0.02):
                    pass
                if worker not in pending:
                    continue
                if p.exitcode not in (0, None):
                    # Crashed (signal / os._exit): no report is coming.
                    failures[worker] = f"died without result (exit code {p.exitcode})"
                    record_event("pool.dead_workers")
                    pending.discard(worker)
                    continue
                first_seen = dead_since.setdefault(worker, time.monotonic())
                if time.monotonic() - first_seen >= grace_s:
                    failures[worker] = f"exited (code {p.exitcode}) without delivering a result"
                    record_event("pool.dead_workers")
                    pending.discard(worker)
        for worker in sorted(pending):
            failures[worker] = (
                f"hung past the {timeout_s:.0f}s pool deadline (still alive, terminated)"
            )
            record_event("pool.hung_workers")
            procs[worker].terminate()
        pending.clear()
    finally:
        for p in procs.values():
            p.join(timeout=10)
            if p.is_alive():  # pragma: no cover - hung worker resisting join
                p.terminate()

    # Bounded failover: re-execute crashed/errored partitions inline in the
    # parent.  The fault plan's child-only rules (e.g. worker_crash) do not
    # re-fire here, so an injected crash recovers on this path.
    if failures and max_failovers > 0:
        by_worker = {part.worker: part for part in partitions}
        for worker in sorted(failures):
            if "hung past" in failures[worker]:
                continue  # do not re-run a hang inline
            original = failures[worker]
            for _ in range(max_failovers):
                with trace("pool.failover", worker=worker) as span:
                    try:
                        results[worker] = fn(by_worker[worker], *args)
                    except Exception:
                        record_event("pool.failover_failures")
                        span.set(recovered=False)
                        failures[worker] = (
                            f"{original}\nfailover re-execution also failed:\n"
                            f"{traceback.format_exc()}"
                        )
                    else:
                        record_event("pool.failovers")
                        span.set(recovered=True)
                        del failures[worker]
                        break

    if failures:
        detail = "\n".join(f"worker {w}: {msg}" for w, msg in sorted(failures.items()))
        raise ParallelError(f"worker failure(s):\n{detail}")
    get_registry().counter("repro_pool_partitions_total").inc(len(partitions))
    return [results[part.worker] for part in partitions]
