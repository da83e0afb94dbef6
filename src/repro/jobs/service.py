"""The job façade the platform, CLI, and tests share.

:class:`JobService` wires a :class:`~repro.jobs.store.JobStore`,
:class:`~repro.jobs.scheduler.JobScheduler`, and
:class:`~repro.jobs.runner.JobRunner` over one jobs directory and exposes
the five client verbs (submit / status / result / events / cancel) plus the
operator verbs (gc, snapshot, start/stop workers).

Inputs are made durable at submit time: ``submit_segment_volume`` snapshots
the voxel array into ``jobs/inputs/`` before the job is journaled, so the
job survives the session (and the server) that created it.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.driver import ENGINES
from ..errors import JobError, ValidationError
from ..io.integrity import ON_CORRUPT, budget_bytes, sidecar_path
from ..io.lazy import open_lazy_volume
from ..observability.trace import Tracer
from ..resilience.events import record_event
from ..resilience.policy import RetryPolicy
from .model import TERMINAL_STATES, JobRecord
from .runner import JobRunner
from .scheduler import JobScheduler
from .store import JobStore

__all__ = ["JobService"]

#: Longest :meth:`JobService.wait` goes without re-reading the journal.  A
#: transition in this process wakes it at once through the store's change
#: signal; the poll is for what raises none: transitions journaled by a
#: peer process, an expired lease.
_WAIT_POLL_S = 0.05


def _input_stem() -> str:
    return f"vol-{os.urandom(6).hex()}"


def _existing_source(path: Path | str) -> Path:
    src = Path(path)
    if not src.exists():
        raise JobError(f"no such volume source: {os.fspath(src)!r}")
    return src


def _check_choice(value: str, allowed: tuple[str, ...], what: str) -> None:
    if value not in allowed:
        raise JobError(f"unknown {what} {value!r}")


def _check_budget(memory_budget_mb: float) -> float:
    try:
        budget_bytes(memory_budget_mb)
    except ValidationError as exc:
        raise JobError(str(exc)) from None
    return float(memory_budget_mb)


def _volume_params(prompt: str, temporal: bool, temporal_mode: str) -> dict:
    """The params every ``segment_volume`` job carries, checked."""
    _check_choice(temporal_mode, ENGINES, "temporal_mode")
    return {"prompt": str(prompt), "temporal": bool(temporal), "temporal_mode": str(temporal_mode)}


def _with_deadline(params: dict, deadline_s: float | None) -> dict:
    if deadline_s is not None:
        params["deadline_s"] = float(deadline_s)
    return params


def _remove_input(path: Path) -> None:
    """Delete an input snapshot: a file, or a slice-directory copy."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


class JobService:
    """One jobs directory, fully wired: persistence, scheduling, execution."""

    def __init__(
        self,
        jobs_dir: Path | str,
        *,
        n_workers: int = 1,
        lease_ttl_s: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = JobStore(jobs_dir, clock=clock)
        self.scheduler = JobScheduler(
            self.store, lease_ttl_s=lease_ttl_s, retry_policy=retry_policy, clock=clock
        )
        self.runner = JobRunner(self.scheduler, self.store, n_workers=n_workers, tracer=tracer)
        self._clock = clock

    # -- worker lifecycle ------------------------------------------------------

    def start(self) -> "JobService":
        self.runner.start()
        return self

    def stop(self, timeout_s: float = 5.0) -> None:
        self.runner.stop(timeout_s=timeout_s)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict | None = None,
        *,
        priority: int = 0,
        session_id: str | None = None,
        input_path: str | None = None,
    ) -> JobRecord:
        """Queue a job of any known kind; see :meth:`submit_segment_volume`."""
        return self.scheduler.submit(
            kind,
            params,
            priority=priority,
            session_id=session_id,
            input_path=input_path,
        )

    def submit_segment_volume(
        self,
        voxels: np.ndarray,
        prompt: str,
        *,
        temporal: bool = True,
        temporal_mode: str = "meanbox",
        deadline_s: float | None = None,
        priority: int = 0,
        session_id: str | None = None,
    ) -> JobRecord:
        """Snapshot the volume to durable storage and queue a Mode B job.

        The snapshot is written *before* the job is journaled (a crash in
        between leaves an orphan file, cleaned by :meth:`gc` — never a job
        pointing at a missing input).
        """
        voxels = np.asarray(voxels)
        if voxels.ndim != 3:
            raise JobError(f"segment_volume jobs need a 3-D volume, got shape {voxels.shape}")
        params = _volume_params(prompt, temporal, temporal_mode)
        snap = self.store.input_path(_input_stem())
        np.save(snap, voxels, allow_pickle=False)
        return self.submit(
            "segment_volume",
            _with_deadline(params, deadline_s),
            priority=priority,
            session_id=session_id,
            input_path=str(snap),
        )

    def submit_segment_volume_path(
        self,
        path: Path | str,
        prompt: str,
        *,
        temporal: bool = True,
        temporal_mode: str = "meanbox",
        on_corrupt: str = "fail",
        memory_budget_mb: float = 64.0,
        deadline_s: float | None = None,
        priority: int = 0,
        session_id: str | None = None,
    ) -> JobRecord:
        """Queue a *streaming* Mode B job over an on-disk volume.

        The volume is snapshotted by copying the source file (or slice
        directory) — plus its checksum sidecar, when present — into
        ``jobs/inputs/``; the runner opens it as a
        :class:`~repro.io.LazyVolume` and streams it slice by slice with
        per-slice checkpoints, so the voxels are never fully resident.  This is the
        upload-by-path route for volumes too large to post through the API.
        """
        src = _existing_source(path)
        params = _volume_params(prompt, temporal, temporal_mode)
        _check_choice(on_corrupt, ON_CORRUPT, "on_corrupt policy")
        params.update(
            stream=True, on_corrupt=str(on_corrupt), memory_budget_mb=_check_budget(memory_budget_mb)
        )
        return self.submit(
            "segment_volume",
            _with_deadline(params, deadline_s),
            priority=priority,
            session_id=session_id,
            input_path=str(self._snapshot_source(src)),
        )

    def submit_zoo_segment(
        self,
        path: Path | str,
        preset: str,
        *,
        mode: str = "best",
        stream: bool = False,
        on_corrupt: str = "fail",
        memory_budget_mb: float = 64.0,
        ensemble: dict | None = None,
        content_key: str | None = None,
        pixel_size_nm: float | None = None,
        deadline_s: float | None = None,
        priority: int = 0,
        session_id: str | None = None,
    ) -> tuple[JobRecord, bool]:
        """Queue one zoo job for a volume; idempotent by content key.

        Returns ``(record, created)``.  Identity is the hash of (volume
        content key, preset fingerprint, mode, ensemble params, stream flag,
        pixel size): resubmitting the same volume under the same registry
        state reuses any existing non-failed job instead of duplicating it —
        what makes crash-and-rerun batch orchestration safe.  Failed or
        cancelled jobs do *not* block a fresh attempt.
        """
        import hashlib
        import json

        from ..zoo.registry import load_registry

        src = _existing_source(path)
        if mode not in ("best", "ensemble"):
            raise JobError(f"zoo mode must be 'best' or 'ensemble', got {mode!r}")
        _check_choice(on_corrupt, ON_CORRUPT, "on_corrupt policy")
        memory_budget_mb = _check_budget(memory_budget_mb)
        if mode == "ensemble" and stream:
            raise JobError(
                "ensemble mode needs per-slice detections for semantic verification "
                "and cannot run over the streaming path; drop --stream or use mode 'best'"
            )
        registry = load_registry(self.store.root)
        task = registry.get(preset)  # raises UnknownPresetError
        with open_lazy_volume(src) as vol:
            if content_key is None:
                content_key = vol.content_key()
        zoo_key = hashlib.sha1(
            json.dumps(
                {
                    "content_key": content_key,
                    "preset": task.fingerprint(),
                    "mode": mode,
                    "ensemble": ensemble or {},
                    "stream": bool(stream),
                    "pixel_size_nm": pixel_size_nm,
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()[:16]
        self.store.refresh()
        for rec in self.store.list_jobs():
            if (
                rec.kind == "zoo_segment"
                and rec.params.get("zoo_key") == zoo_key
                and rec.state not in ("failed", "cancelled")
            ):
                return rec, False
        params = {
            "preset": task.name,
            "preset_fingerprint": task.fingerprint(),
            "registry_fingerprint": registry.fingerprint(),
            "prompt": task.prompt,
            "mode": mode,
            "zoo_key": zoo_key,
            "content_key": content_key,
            "source_name": src.name,
            "stream": bool(stream),
            "on_corrupt": str(on_corrupt),
            "memory_budget_mb": memory_budget_mb,
        }
        if pixel_size_nm is not None:
            params["pixel_size_nm"] = float(pixel_size_nm)
        if ensemble:
            params["ensemble"] = dict(ensemble)
        rec = self.submit(
            "zoo_segment",
            _with_deadline(params, deadline_s),
            priority=priority,
            session_id=session_id,
            input_path=str(self._snapshot_source(src, opened=True)),
        )
        return rec, True

    def _snapshot_source(self, src: Path, *, opened: bool = False) -> Path:
        """Check ``src`` opens as a volume, then copy it into ``inputs/``.

        A file is copied with its checksum sidecar, when present; a slice
        directory is copied whole.  Opening first turns an unreadable source
        into a structured error at submit, not a failed job an hour later;
        ``opened=True`` skips it for a caller that has just opened ``src``.
        """
        if not opened:
            with open_lazy_volume(src):
                pass
        if src.is_dir():
            snap = self.store.input_path(_input_stem(), suffix="")
            shutil.copytree(src, snap)
            return snap
        snap = self.store.input_path(_input_stem(), suffix=src.suffix)
        shutil.copyfile(src, snap)
        side = sidecar_path(src)
        if side.is_file():
            shutil.copyfile(side, sidecar_path(snap))
        return snap

    # -- client verbs ----------------------------------------------------------

    def status(self, job_id: str) -> dict:
        """The public view of one job (refreshes from the journal first)."""
        self.store.refresh()
        return self.store.get(job_id).public_view()

    def result(self, job_id: str) -> dict:
        """Terminal outcome: result payload, structured error, or not-done."""
        self.store.refresh()
        rec = self.store.get(job_id)
        out = {"job_id": rec.job_id, "state": rec.state, "done": rec.terminal}
        if rec.result is not None:
            out["result"] = dict(rec.result)
        if rec.error is not None:
            out["error"] = dict(rec.error)
        return out

    def events(self, job_id: str, cursor: int = 0, limit: int | None = None) -> dict:
        """Progress events past ``cursor`` plus the monotone next cursor.

        ``truncated: true`` appears when retention trimming discarded events
        between the caller's cursor and the oldest retained one — the stream
        is still strictly increasing, but no longer complete.
        """
        self.store.refresh()
        events, next_cursor, truncated = self.store.events_after(job_id, cursor=cursor, limit=limit)
        out = {"job_id": job_id, "events": events, "cursor": next_cursor}
        if truncated:
            out["truncated"] = True
        return out

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: immediate when queued, cooperative when running."""
        return self.scheduler.cancel(job_id).public_view()

    def wait(self, job_id: str, *, timeout_s: float = 60.0) -> dict:
        """Block until the job is terminal (tests / CLI watch); returns status."""
        t0 = time.monotonic()
        while True:
            generation = self.store.generation
            self.store.refresh()
            self.scheduler.reclaim_expired()
            rec = self.store.get(job_id)
            if rec.terminal:
                return rec.public_view()
            if time.monotonic() - t0 > timeout_s:
                raise JobError(f"timed out waiting {timeout_s}s for job {job_id} ({rec.state})")
            self.store.wait_for_change(generation, _WAIT_POLL_S)

    # -- operator verbs --------------------------------------------------------

    def gc(self, *, max_age_s: float = 24 * 3600.0) -> dict:
        """Delete terminal jobs (and their artifacts) older than ``max_age_s``.

        Also sweeps orphaned input snapshots no live job references — the
        residue of a crash between input save and journal append.  Orphans
        get the same ``max_age_s`` grace (by file mtime): submit writes the
        input *before* the journal line, and a shared-dir CLI submitter's
        line may not be visible to this process yet, so a freshly written
        snapshot is very likely a job mid-submission, not residue.
        """
        self.store.refresh()
        now = self._clock()
        removed = []
        for rec in self.store.list_jobs(states=TERMINAL_STATES):
            if now - rec.updated_at < max_age_s:
                continue
            self._delete_artifacts(rec)
            self.store.remove(rec.job_id)
            removed.append(rec.job_id)
        referenced = {r.input_path for r in self.store.list_jobs() if r.input_path}
        orphans = 0
        wall_now = time.time()  # mtimes are wall-clock, not self._clock
        for path in (self.store.root / "inputs").iterdir():
            if str(path) in referenced:
                continue
            try:
                age_s = wall_now - path.stat().st_mtime
            except OSError:
                continue  # swept by a peer mid-scan
            if age_s < max_age_s:
                continue
            _remove_input(path)
            orphans += 1
        self.store.compact()
        if removed or orphans:
            record_event("jobs.gc_removed", len(removed) + orphans)
        return {"removed": removed, "orphan_inputs": orphans}

    def _delete_artifacts(self, rec: JobRecord) -> None:
        if rec.input_path:
            _remove_input(Path(rec.input_path))
        self.store.result_path(rec.job_id).unlink(missing_ok=True)
        if rec.checkpoint_dir:
            shutil.rmtree(rec.checkpoint_dir, ignore_errors=True)

    def snapshot(self) -> dict:
        """Queue overview for the dashboard / metrics: counts + recent jobs."""
        self.store.refresh()
        jobs = self.store.list_jobs()
        by_state: dict[str, int] = {}
        for rec in jobs:
            by_state[rec.state] = by_state.get(rec.state, 0) + 1
        return {
            "total": len(jobs),
            "by_state": by_state,
            "jobs": [rec.public_view() for rec in jobs[-20:]],
        }
