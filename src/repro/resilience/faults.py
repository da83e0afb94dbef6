"""Fault injection: a declarative plan of failures to provoke.

The ``REPRO_FAULTS`` environment variable holds a comma-separated list of
fault rules, each ``kind`` plus optional ``&``-joined conditions::

    REPRO_FAULTS="volume_crash@slice=3,disk_corrupt@p=0.1,grounding_empty@slice=5"

Supported kinds (hook sites in parentheses):

``volume_crash``     hard-exit the process (``os._exit``) as slice N of a
                     ``segment_volume`` begins (``slice=N``), after every
                     earlier slice is checkpointed — for exercising
                     checkpoint/resume across real process death.
``volume_abort``     raise :class:`~repro.errors.PipelineError` mid
                     ``segment_volume`` — the in-process (testable) twin of
                     ``volume_crash``.
``grounding_empty``  force one grounding call to return zero boxes
                     (grounding stage), exercising the relaxed-threshold
                     retry path.
``disk_corrupt``     overwrite a just-written disk-cache entry with garbage
                     (cache disk tier), exercising quarantine.
``grounding_error``  raise :class:`~repro.errors.GroundingError` inside the
                     platform session's guarded segment path, exercising
                     the grounding circuit breaker + degraded fallbacks.
``sam_error``        raise :class:`~repro.errors.PipelineError` in the SAM
                     decode stage of the same path (SAM breaker /
                     relevance-mask fallback).
``job_crash``        hard-exit the process as slice N of a background
                     volume job begins (``slice=N``), or after ensemble
                     member N of a zoo job (``member=N``) — the job-queue
                     twin of ``volume_crash``, exercising lease reclaim +
                     checkpoint resume.
``journal_torn``     write half a job-journal line then hard-exit
                     (``line=N`` matches the Nth append of the process) —
                     a power cut mid-append, exercising torn-tail recovery
                     in :class:`repro.jobs.JobStore`.
``io_transient``     raise ``OSError`` from one lazy-volume tile fetch
                     (``slice=N``) — an NFS hiccup; exercises the bounded
                     retry-with-backoff in :class:`repro.io.TileStream`.
``io_torn``          make one tile fetch fail as a truncated tail
                     (``slice=N``): a ``CorruptTileError(kind="torn")``
                     carrying a zero-filled salvage, exercising the
                     ``on_corrupt`` skip/degrade policies and quarantine.
``io_flip``          flip one bit in a decoded tile (``slice=N``) without
                     touching disk — detected as ``kind="flip"`` when a
                     checksum sidecar is active, silent otherwise (which
                     is exactly why sidecars exist).

Conditions: ``key=N`` pairs (``slice``, ``line``, ``member``) match the
hook's context, ``p=F`` fires probabilistically (deterministic per-rule RNG
stream), ``times=N`` caps total fires.  Deterministic rules default to
firing **once** (so a retry after the injected failure succeeds);
``p=``-rules default to unlimited fires.  An unset/empty spec is a no-op
plan.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..utils.rng import GLOBAL_SEED, derive_seed, make_rng
from .events import record_event

__all__ = ["FaultRule", "FaultPlan", "get_fault_plan"]

#: Exit code used by injected hard-crash faults (the docker OOM-kill code).
CRASH_EXIT_CODE = 137


def _parse_value(raw: str) -> int | float | str:
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


@dataclass
class FaultRule:
    """One injectable fault: a kind, match conditions, and a fire budget."""

    kind: str
    match: dict[str, int | float | str] = field(default_factory=dict)
    p: float = 1.0
    times: float = 1.0  # max fires; math.inf for unlimited
    fired: int = 0
    _rng: np.random.Generator | None = None

    @classmethod
    def parse(cls, entry: str, index: int) -> "FaultRule":
        entry = entry.strip()
        if not entry:
            raise ValidationError("empty fault rule")
        kind, _, conds = entry.partition("@")
        kind = kind.strip()
        if not kind:
            raise ValidationError(f"fault rule {entry!r} has no kind")
        match: dict[str, int | float | str] = {}
        p = 1.0
        times: float | None = None
        for cond in filter(None, (c.strip() for c in conds.split("&"))):
            key, sep, raw = cond.partition("=")
            if not sep:
                raise ValidationError(f"fault condition {cond!r} is not key=value")
            value = _parse_value(raw.strip())
            key = key.strip()
            if key == "p":
                p = float(value)
                if not (0.0 <= p <= 1.0):
                    raise ValidationError(f"fault probability must be in [0, 1], got {p}")
            elif key == "times":
                times = math.inf if raw.strip() in ("inf", "-1") else float(value)
            else:
                match[key] = value
        if times is None:
            # Probabilistic rules keep firing; deterministic ones fire once
            # so the recovery path (retry/resume) can succeed.
            times = math.inf if p < 1.0 else 1.0
        rule = cls(kind=kind, match=match, p=p, times=times)
        rule._rng = make_rng(derive_seed(GLOBAL_SEED, "faults", kind, index))
        return rule

    def should_fire(self, context: dict) -> bool:
        if self.fired >= self.times:
            return False
        for key, expected in self.match.items():
            if context.get(key) != expected:
                return False
        if self.p < 1.0:
            assert self._rng is not None
            if float(self._rng.random()) >= self.p:
                return False
        self.fired += 1
        return True


class FaultPlan:
    """A parsed set of fault rules plus fire bookkeeping."""

    def __init__(self, rules: list[FaultRule], spec: str = "") -> None:
        self.rules = rules
        self.spec = spec

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        spec = (spec or "").strip()
        if not spec:
            return cls([], "")
        rules = [FaultRule.parse(entry, i) for i, entry in enumerate(spec.split(",")) if entry.strip()]
        return cls(rules, spec)

    @property
    def active(self) -> bool:
        return bool(self.rules)

    def should_fire(self, kind: str, **context) -> bool:
        """True when a rule of ``kind`` matching ``context`` fires now."""
        if not self.rules:
            return False
        for rule in self.rules:
            if rule.kind == kind and rule.should_fire(context):
                record_event(f"faults.{kind}")
                return True
        return False

    def crash_if(self, kind: str, **context) -> None:
        """Hard-exit the process when the fault fires (no cleanup, no flush)."""
        if self.should_fire(kind, **context):
            os._exit(CRASH_EXIT_CODE)


_plan_cache: tuple[str, FaultPlan] | None = None


def get_fault_plan() -> FaultPlan:
    """The plan described by ``$REPRO_FAULTS`` (re-parsed when it changes).

    Re-parsing on change resets per-rule fire counts, which is what tests
    toggling the variable expect; within one run the plan (and its
    bookkeeping) is stable.
    """
    global _plan_cache
    spec = os.environ.get("REPRO_FAULTS", "")
    if _plan_cache is not None and _plan_cache[0] == spec:
        return _plan_cache[1]
    plan = FaultPlan.parse(spec)
    _plan_cache = (spec, plan)
    return plan


def reset_fault_plan() -> None:
    """Drop the cached plan so the next lookup re-parses (and re-arms) it.

    Needed by tests that set ``$REPRO_FAULTS`` to the *same* spec twice:
    the spec-keyed cache would otherwise carry fire counts across tests.
    """
    global _plan_cache
    _plan_cache = None
