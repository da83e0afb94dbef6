"""Priority + FIFO-fair job scheduling with leases and heartbeats.

The scheduler owns every state transition of the job state machine; the
store only persists what the scheduler decides.  Dispatch order is strict
priority (higher first) with FIFO submit order inside a priority band, so a
flood of low-priority work cannot starve an earlier submission at the same
priority and an operator can always jump the queue.

Leases are the crash detector: a worker that acquires a job must heartbeat
within ``lease_ttl_s`` or the job is *reclaimed* — sent back to ``queued``
for another attempt under the configured
:class:`~repro.resilience.RetryPolicy` backoff (``not_before`` gate), or
moved to ``failed`` with a structured error once ``max_attempts`` is spent.
Reclaim is how a SIGKILL'd worker's job survives: the next scheduler to
look at the store (same process or a restarted one) notices the expired
lease and re-queues the work, and checkpoint shards make the re-run cheap.

Cancellation is cooperative: ``cancel`` flips ``cancel_requested`` on a
running job and the runner's deadline guard turns that flag into a
:class:`~repro.errors.JobCancelledError` at the next per-slice check.

Thread-safety: every state transition holds one scheduler-level mutex for
its whole read-modify-write sequence.  The store's own lock only makes each
*call* atomic; :meth:`acquire` spans several (refresh, reclaim, select,
upsert) and mutates the live record the store handed out, so without the
outer mutex two runner threads could lease the same job and execute it
twice.

Process-safety: the mutex is a :class:`_TransitionLock` — the RLock above
plus an advisory ``flock`` on ``<jobs-dir>/scheduler.lock`` taken at the
outermost entry.  The journal alone is multi-*writer* durable but not
transactional: two processes sharing one jobs directory (``repro jobs``
beside ``repro serve``) could both refresh, both see the same queued job,
and both lease it.  With the file lock, refresh→select→lease is atomic
across processes too, so a job is executed by exactly one worker.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: thread-safety only
    fcntl = None

from ..errors import JobError
from ..observability.metrics import get_registry
from ..resilience.events import record_event
from ..resilience.policy import RetryPolicy
from .model import (
    ACTIVE_STATES,
    CANCELLED,
    FAILED,
    JOB_KINDS,
    LEASED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    JobRecord,
)
from .store import JobStore

__all__ = ["JobScheduler"]

#: Default retry backoff for reclaimed / retryably-failed jobs.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.2, max_delay_s=5.0)


class _TransitionLock:
    """Reentrant thread lock + cross-process advisory file lock.

    The thread RLock serializes this process's runner threads; the
    ``flock`` (taken only at the outermost acquisition, tracked by a depth
    counter so nested transitions like acquire→reclaim_expired don't
    deadlock on the non-reentrant file lock) serializes the processes
    sharing one jobs directory.  If the lock file cannot be opened the
    scheduler degrades to thread-level safety — correct for every
    single-process deployment, which is all that can exist then.
    """

    def __init__(self, path) -> None:
        self._local = threading.RLock()
        self._path = path
        self._depth = 0
        self._fh = None

    def __enter__(self) -> "_TransitionLock":
        self._local.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            try:
                self._fh = open(self._path, "ab")
                fcntl.flock(self._fh, fcntl.LOCK_EX)
            except OSError:
                if self._fh is not None:
                    self._fh.close()
                self._fh = None
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fh is not None:
            try:
                fcntl.flock(self._fh, fcntl.LOCK_UN)
            except OSError:
                pass
            self._fh.close()
            self._fh = None
        self._local.release()


class JobScheduler:
    """Transitions :class:`JobRecord` objects through the job state machine."""

    def __init__(
        self,
        store: JobStore,
        *,
        lease_ttl_s: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        self.store = store
        self.lease_ttl_s = float(lease_ttl_s)
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self._clock = clock
        # Serializes whole transitions (see module docstring): reentrant so
        # acquire -> reclaim_expired nests, and flock-backed so separate
        # processes sharing the jobs directory cannot double-lease.
        self._mutex = _TransitionLock(store.root / "scheduler.lock")

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict | None = None,
        *,
        priority: int = 0,
        session_id: str | None = None,
        input_path: str | None = None,
    ) -> JobRecord:
        """Queue one job; returns the journaled record."""
        if kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {kind!r}; known: {sorted(JOB_KINDS)}")
        with self._mutex:
            # Pick up peer processes' journal lines first so submit_seq is
            # FIFO-ordered across every process sharing the directory.
            self.store.refresh()
            job_id, seq = self.store.new_job_id()
            now = self._clock()
            record = JobRecord(
                job_id=job_id,
                kind=kind,
                params=dict(params or {}),
                priority=int(priority),
                submit_seq=seq,
                max_attempts=self.retry_policy.max_attempts,
                created_at=now,
                session_id=session_id,
                input_path=input_path,
                checkpoint_dir=str(self.store.checkpoint_dir(job_id)),
            )
            self.store.upsert(record)
            self.store.append_event(job_id, "state", state=QUEUED)
        record_event("jobs.submitted")
        get_registry().counter("repro_jobs_submitted_total", kind=kind).inc()
        self._publish_gauges()
        return record

    # -- dispatch -------------------------------------------------------------

    def acquire(self, worker_id: str) -> JobRecord | None:
        """Lease the best runnable job (priority desc, then FIFO), or None.

        Picks up journal lines from other submitters and reclaims expired
        leases first, so a single acquire loop is a complete scheduler tick.
        """
        with self._mutex:
            self.store.refresh()
            self.reclaim_expired()
            now = self._clock()
            runnable = [
                r
                for r in self.store.list_jobs(states=(QUEUED,))
                if r.not_before <= now and not r.cancel_requested
            ]
            if not runnable:
                return None
            job = min(runnable, key=lambda r: (-r.priority, r.submit_seq))
            job.state = LEASED
            job.attempt += 1
            job.lease_owner = str(worker_id)
            job.lease_expires_at = now + self.lease_ttl_s
            self.store.upsert(job)
            self._publish_gauges()
            return job

    def started(self, job_id: str, worker_id: str) -> JobRecord:
        """Mark a leased job running (the worker is about to execute)."""
        with self._mutex:
            job = self._owned(job_id, worker_id)
            job.state = RUNNING
            self.store.upsert(job)
            self.store.append_event(job_id, "state", state=RUNNING, attempt=job.attempt, worker=worker_id)
            self._publish_gauges()
            return job

    def heartbeat(self, job_id: str, worker_id: str, *, progress: dict | None = None) -> JobRecord | None:
        """Extend the lease; returns None when the lease was lost.

        A worker whose heartbeat returns None must abandon the job silently:
        another worker already owns (or finished) the reclaimed attempt.
        """
        with self._mutex:
            # Refresh first: a peer process may have reclaimed this lease
            # after we went silent, and its journal lines are the truth.
            self.store.refresh()
            rec = self.store.maybe_get(job_id)
            if rec is None or rec.state not in ACTIVE_STATES or rec.lease_owner != str(worker_id):
                record_event("jobs.lost_leases")
                return None
            rec.lease_expires_at = self._clock() + self.lease_ttl_s
            if progress:
                rec.progress = dict(progress)
            self.store.upsert(rec)
            return rec

    # -- completion -----------------------------------------------------------

    def complete(self, job_id: str, worker_id: str, result: dict, *, spans: list | None = None) -> JobRecord:
        with self._mutex:
            job = self._owned(job_id, worker_id)
            job.state = SUCCEEDED
            job.result = result
            job.error = None
            job.lease_owner = None
            job.lease_expires_at = None
            if spans:
                job.spans = list(spans)
            self.store.upsert(job)
            self.store.append_event(job_id, "state", state=SUCCEEDED)
            self._count_terminal(job)
            return job

    def fail(
        self,
        job_id: str,
        worker_id: str,
        error: dict,
        *,
        retryable: bool = True,
        spans: list | None = None,
    ) -> JobRecord:
        """Record a failed attempt: requeue with backoff, or go terminal."""
        with self._mutex:
            job = self._owned(job_id, worker_id)
            if spans:
                job.spans = list(job.spans) + list(spans)
            return self._fail_attempt(job, dict(error), retryable=retryable)

    def cancelled(self, job_id: str, worker_id: str, *, spans: list | None = None) -> JobRecord:
        """A worker observed the cancel flag and stopped cleanly."""
        with self._mutex:
            job = self._owned(job_id, worker_id)
            if spans:
                job.spans = list(job.spans) + list(spans)
            return self._go_cancelled(job)

    def cancel(self, job_id: str) -> JobRecord:
        """Client-side cancel: immediate when queued, cooperative when running."""
        with self._mutex:
            self.store.refresh()
            job = self.store.get(job_id)
            if job.terminal:
                return job
            if job.state == QUEUED:
                return self._go_cancelled(job)
            job.cancel_requested = True
            self.store.upsert(job)
            self.store.append_event(job_id, "cancel_requested")
            return job

    # -- lease reclaim --------------------------------------------------------

    def reclaim_expired(self) -> list[JobRecord]:
        """Requeue (or fail out) every job whose lease expired."""
        with self._mutex:
            now = self._clock()
            reclaimed = []
            for job in self.store.list_jobs(states=ACTIVE_STATES):
                if not job.lease_expired(now):
                    continue
                record_event("jobs.lease_reclaimed")
                get_registry().counter("repro_jobs_reclaimed_total").inc()
                self.store.append_event(
                    job.job_id, "lease_reclaimed", attempt=job.attempt, worker=job.lease_owner
                )
                error = {
                    "type": "JobError",
                    "error": f"lease expired on attempt {job.attempt} "
                    f"(worker {job.lease_owner!r} stopped heartbeating)",
                }
                if job.cancel_requested:
                    self._go_cancelled(job)
                else:
                    self._fail_attempt(job, error, retryable=True)
                reclaimed.append(job)
            if reclaimed:
                self._publish_gauges()
            return reclaimed

    # -- internals ------------------------------------------------------------

    def _owned(self, job_id: str, worker_id: str) -> JobRecord:
        # Cross-process ownership check: see the peers' reclaims first.
        self.store.refresh()
        job = self.store.get(job_id)
        if job.lease_owner != str(worker_id) or job.state not in ACTIVE_STATES:
            raise JobError(
                f"job {job_id} is not leased to worker {worker_id!r} "
                f"(state {job.state}, owner {job.lease_owner!r})"
            )
        return job

    def _fail_attempt(self, job: JobRecord, error: dict, *, retryable: bool) -> JobRecord:
        error.setdefault("attempt", job.attempt)
        job.lease_owner = None
        job.lease_expires_at = None
        job.error = error
        if retryable and job.attempt < job.max_attempts:
            job.state = QUEUED
            job.not_before = self._clock() + self.retry_policy.delay_s(
                max(job.attempt, 1), key=f"job:{job.job_id}"
            )
            self.store.upsert(job)
            self.store.append_event(job.job_id, "retry_scheduled", attempt=job.attempt, error=error)
            record_event("jobs.retries")
            get_registry().counter("repro_jobs_retries_total").inc()
        else:
            job.state = FAILED
            self.store.upsert(job)
            self.store.append_event(job.job_id, "state", state=FAILED, error=error)
            self._count_terminal(job)
        self._publish_gauges()
        return job

    def _go_cancelled(self, job: JobRecord) -> JobRecord:
        job.state = CANCELLED
        job.lease_owner = None
        job.lease_expires_at = None
        self.store.upsert(job)
        self.store.append_event(job.job_id, "state", state=CANCELLED)
        self._count_terminal(job)
        return job

    def _count_terminal(self, job: JobRecord) -> None:
        record_event(f"jobs.{job.state}")
        get_registry().counter("repro_jobs_terminal_total", state=job.state, kind=job.kind).inc()
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        registry = get_registry()
        by_state: dict[str, int] = {}
        for rec in self.store.list_jobs():
            by_state[rec.state] = by_state.get(rec.state, 0) + 1
        registry.gauge("repro_jobs_queued").set(by_state.get(QUEUED, 0))
        registry.gauge("repro_jobs_running").set(
            by_state.get(RUNNING, 0) + by_state.get(LEASED, 0)
        )
