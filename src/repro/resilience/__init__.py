"""Fault tolerance for the Zenesis pipeline (retry, deadline, checkpoint, faults).

The paper's platform runs hour-long FIB-SEM volume jobs interactively; a
single corrupt slice, hung worker, or transient grounding failure must not
destroy accumulated work.  This package supplies the failure model:

* :class:`RetryPolicy` / :class:`Deadline` — bounded retries with
  deterministic-jitter backoff, and wall-clock budgets
  (:mod:`repro.resilience.policy`);
* :class:`CheckpointManager` — atomic per-slice manifest + mask shards for
  ``segment_volume`` resume (:mod:`repro.resilience.checkpoint`);
* :class:`FaultPlan` / :func:`get_fault_plan` — declarative fault injection
  driven by ``$REPRO_FAULTS`` (:mod:`repro.resilience.faults`);
* :func:`record_event` / :func:`event_count` — recovery-event counters,
  kept as ``repro_resilience_*_total`` series in the metrics registry
  (:mod:`repro.resilience.events`);
* :mod:`repro.resilience.serving` — the online path's overload contract:
  admission control, per-request deadlines, circuit breakers, and graceful
  drain (imported explicitly by the platform layer; not re-exported here).

See DESIGN.md §"Failure model and recovery" for what retries, what
checkpoints, what degrades, and what raises.
"""

from .checkpoint import CheckpointManager
from .events import event_count, record_event
from .faults import FaultPlan, FaultRule, fault_crash_exit_code, get_fault_plan
from .policy import Deadline, RetryPolicy

__all__ = [
    "CheckpointManager",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "event_count",
    "fault_crash_exit_code",
    "get_fault_plan",
    "record_event",
]
