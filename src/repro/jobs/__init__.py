"""repro.jobs — durable background jobs for asynchronous volume segmentation.

The serving layer (PR 4) made requests survive overload; this package makes
*work* survive everything else.  A job is journaled before it runs
(:class:`JobStore`: append-only JSONL + atomic snapshot compaction),
scheduled under priority + FIFO fairness with crash-detecting leases
(:class:`JobScheduler`), and executed through the one volume driver with
per-slice checkpoints (:class:`JobRunner`) — so a SIGKILL'd worker, a
restarted server, or a torn journal write costs at most one retry round,
never the job, and a resumed ``segment_volume`` produces bit-identical
masks.

:class:`JobService` is the façade everything else uses::

    svc = JobService("jobs/").start()
    job = svc.submit_segment_volume(voxels, "catalyst particles")
    svc.wait(job.job_id)
    svc.result(job.job_id)["result"]["masks_path"]

See DESIGN.md §"Job lifecycle" for the state machine and journal format.
"""

from .model import (
    ACTIVE_STATES,
    CANCELLED,
    FAILED,
    JOB_KINDS,
    LEASED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    JobRecord,
)
from .runner import JobGuard, JobRunner
from .scheduler import JobScheduler
from .service import JobService
from .store import JobStore

__all__ = [
    "JobRecord",
    "JobStore",
    "JobScheduler",
    "JobRunner",
    "JobGuard",
    "JobService",
    "JOB_KINDS",
    "QUEUED",
    "LEASED",
    "RUNNING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "ACTIVE_STATES",
]
