"""Crash-safe job persistence: append-only journal + atomic snapshots.

Layout under the jobs directory::

    jobs/
      journal.jsonl     append-only log of job upserts / events / removals
      snapshot.json     atomic full-state snapshot (compaction output)
      inputs/           durable input payloads (volume .npy snapshots)
      results/          durable result artifacts (mask bundles)
      checkpoints/      per-job CheckpointManager directories

Durability contract:

* every state change is one JSON line appended to ``journal.jsonl``; a
  process crash at any instant loses at most the line being written;
* recovery loads ``snapshot.json`` (if present) then replays the journal.
  A torn trailing line — the signature of a crash mid-append — is dropped
  and counted (``jobs.journal_torn_lines``), never fatal.  Replay is
  idempotent: upserts overwrite, events dedupe on their sequence number;
* when the journal grows past ``compact_every`` lines the store writes a
  fresh snapshot (tmp + ``os.replace``) and truncates the journal.  A crash
  between the two steps merely replays journal lines onto an already-current
  snapshot — the same idempotence that makes recovery safe makes compaction
  safe;
* :meth:`refresh` tail-reads lines appended by *other* processes (the CLI
  submitting into a directory a server is working), so one coordinator can
  pick up work queued offline.  Appends by this process never assume they
  landed at the read watermark: when a foreign writer interleaved lines the
  watermark stays put and refresh replays them (own-line replay is
  idempotent), and a foreign torn tail is newline-terminated before the next
  append so two writers' bytes never fuse into one corrupt line.  Compaction
  and GC belong to the coordinator only.

Change signal: every :meth:`upsert` bumps an in-process generation counter
and notifies one condition, so a thread waiting for work or for a terminal
state (:meth:`wait_for_change`) wakes on the transition itself instead of a
poll.  Lines appended by other processes raise no signal; their readers
still find them by polling :meth:`refresh`.

Fault injection: a ``journal_torn`` rule in ``REPRO_FAULTS`` makes an
append write half its line and hard-exit — a power cut mid-write — so the
chaos suite can exercise torn-tail recovery end to end (conditions:
``line=N`` matches the Nth append of the process).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

from ..errors import JobError, UnknownJobError
from ..observability.metrics import get_registry
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from .model import JobRecord

__all__ = ["JobStore"]

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
_SNAPSHOT_VERSION = 1

#: Progress events retained per job (oldest dropped beyond this).
_MAX_EVENTS_PER_JOB = 10_000


class JobStore:
    """Durable registry of :class:`~repro.jobs.model.JobRecord` objects."""

    def __init__(
        self,
        root: Path | str,
        *,
        compact_every: int = 1024,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for sub in ("inputs", "results", "checkpoints"):
            (self.root / sub).mkdir(exist_ok=True)
        self.compact_every = int(compact_every)
        self._clock = clock
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._generation = 0  # bumped by every in-process transition
        self._jobs: dict[str, JobRecord] = {}
        self._events: dict[str, list[dict]] = {}
        self._seq = 0  # submit-order sequence (FIFO tie-break)
        self._read_pos = 0  # journal bytes consumed (refresh watermark)
        self._journal_lines = 0  # lines since last compaction (trigger)
        self._appends = 0  # total appends by this process (fault context)
        self._load()

    # -- paths ----------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.root / SNAPSHOT_NAME

    def input_path(self, job_id: str, suffix: str = ".npy") -> Path:
        return self.root / "inputs" / f"{job_id}{suffix}"

    def result_path(self, job_id: str, suffix: str = ".npz") -> Path:
        return self.root / "results" / f"{job_id}{suffix}"

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.root / "checkpoints" / job_id

    # -- recovery -------------------------------------------------------------

    def _load(self) -> None:
        """Snapshot + full journal replay (fresh process / truncated file)."""
        with self._lock:
            self._jobs.clear()
            self._events.clear()
            self._seq = 0
            self._read_pos = 0
            self._journal_lines = 0
            if self.snapshot_path.exists():
                try:
                    snap = json.loads(self.snapshot_path.read_text())
                except (OSError, json.JSONDecodeError) as exc:
                    raise JobError(
                        f"unreadable job snapshot {self.snapshot_path}: {exc} "
                        "(delete it to rebuild from the journal)"
                    ) from exc
                self._seq = int(snap.get("seq", 0))
                for jid, rec in snap.get("jobs", {}).items():
                    self._jobs[jid] = JobRecord.from_dict(rec)
                for jid, events in snap.get("events", {}).items():
                    self._events[jid] = list(events)
            self._consume_journal(initial=True)

    def refresh(self) -> int:
        """Replay journal lines appended since the last read; returns count.

        Detects truncation (compaction by another process shrank the file
        below our watermark) and falls back to a full reload.
        """
        with self._lock:
            try:
                size = self.journal_path.stat().st_size
            except FileNotFoundError:
                size = 0
            if size < self._read_pos:
                self._load()
                return 0
            if size == self._read_pos:
                return 0
            return self._consume_journal(initial=False)

    def _consume_journal(self, *, initial: bool) -> int:
        """Apply complete journal lines beyond the watermark.

        A trailing chunk without a newline is a line still being written (or
        torn by a crash): it is left unconsumed on refresh, and dropped with
        a counted event on initial load (the writer is gone).
        """
        if not self.journal_path.exists():
            return 0
        with self.journal_path.open("rb") as fh:
            fh.seek(self._read_pos)
            data = fh.read()
        applied = 0
        consumed = 0
        lines = data.split(b"\n")
        tail = lines.pop()  # bytes after the last newline ("" when none)
        for chunk in lines:
            consumed += len(chunk) + 1
            if not chunk:
                continue
            try:
                entry = json.loads(chunk)
                self._apply(entry)
                applied += 1
                self._journal_lines += 1
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                record_event("jobs.journal_corrupt_lines")
                get_registry().counter("repro_jobs_journal_corrupt_total").inc()
        if tail and initial:
            record_event("jobs.journal_torn_lines")
            get_registry().counter("repro_jobs_journal_torn_total").inc()
            # The writer is gone: skip the torn tail, and terminate it so the
            # next append starts on a fresh line instead of fusing with it.
            with self.journal_path.open("ab") as fh:
                fh.write(b"\n")
            consumed += len(tail) + 1
        self._read_pos += consumed
        return applied

    def _apply(self, entry: dict) -> None:
        kind = entry.get("t")
        if kind == "job":
            rec = JobRecord.from_dict(entry["job"])
            events = self._events.get(rec.job_id)
            if events:
                # Never regress the event sequence: the record may have been
                # serialized before events that are already indexed (a crash
                # between an event append and the next upsert, or a replay of
                # our own older line after a foreign writer interleaved).
                rec.events_seq = max(rec.events_seq, events[-1]["seq"])
            self._jobs[rec.job_id] = rec
            self._seq = max(self._seq, rec.submit_seq)
        elif kind == "event":
            jid = entry["job_id"]
            events = self._events.setdefault(jid, [])
            seq = int(entry["seq"])
            if not events or seq > events[-1]["seq"]:  # replay dedupe
                events.append({k: v for k, v in entry.items() if k != "t"})
                if len(events) > _MAX_EVENTS_PER_JOB:
                    del events[: len(events) - _MAX_EVENTS_PER_JOB]
            rec = self._jobs.get(jid)
            if rec is not None and seq > rec.events_seq:
                rec.events_seq = seq
        elif kind == "gone":
            self._jobs.pop(entry["job_id"], None)
            self._events.pop(entry["job_id"], None)

    # -- journaling -----------------------------------------------------------

    def _tail_unterminated(self) -> bool:
        """True when the journal ends mid-line — a foreign writer's torn tail."""
        try:
            size = self.journal_path.stat().st_size
        except FileNotFoundError:
            return False
        if size == 0:
            return False
        with self.journal_path.open("rb") as fh:
            fh.seek(size - 1)
            return fh.read(1) != b"\n"

    def _append(self, entry: dict) -> None:
        line = json.dumps(entry, separators=(",", ":")).encode() + b"\n"
        self._appends += 1
        torn = get_fault_plan().should_fire("journal_torn", line=self._appends)
        # A foreign writer (CLI submitting into a live server's directory)
        # may have crashed mid-append since our last look: terminate its torn
        # tail first, so our line starts fresh instead of fusing with it into
        # one corrupt line that loses BOTH entries for every reader.
        lead = b""
        if self._tail_unterminated():
            record_event("jobs.journal_torn_lines")
            get_registry().counter("repro_jobs_journal_torn_total").inc()
            lead = b"\n"
        with self.journal_path.open("ab") as fh:
            start = fh.tell()
            if torn:
                # A power cut mid-append: half the line, no newline, gone.
                fh.write(lead + line[: max(1, len(line) // 2)])
                fh.flush()
                os.fsync(fh.fileno())
                os._exit(137)
            fh.write(lead + line)
            end = fh.tell()
        self._journal_lines += 1
        # Advance the read watermark only when our bytes landed exactly at
        # it.  Otherwise a foreign writer interleaved lines the watermark
        # must not skip: refresh() replays them (and replaying our own line
        # alongside is idempotent — upserts overwrite, events dedupe).
        if start == self._read_pos and end == start + len(lead) + len(line):
            self._read_pos = end
        if self._journal_lines >= self.compact_every:
            self.compact()

    def compact(self) -> None:
        """Write an atomic snapshot of full state, then truncate the journal."""
        with self._lock:
            payload = {
                "version": _SNAPSHOT_VERSION,
                "seq": self._seq,
                "jobs": {jid: rec.to_dict() for jid, rec in self._jobs.items()},
                "events": self._events,
            }
            tmp = self.snapshot_path.with_suffix(f".tmp.{os.getpid()}")
            try:
                tmp.write_text(json.dumps(payload))
                os.replace(tmp, self.snapshot_path)
            except OSError as exc:
                tmp.unlink(missing_ok=True)
                raise JobError(f"cannot write job snapshot: {exc}") from exc
            self.journal_path.write_bytes(b"")
            self._read_pos = 0
            self._journal_lines = 0
            record_event("jobs.compactions")

    # -- registry -------------------------------------------------------------

    def new_job_id(self) -> tuple[str, int]:
        """Allocate the next (job id, submit seq); id is collision-hardened
        against a second process submitting into the same directory."""
        with self._lock:
            self._seq += 1
            return f"j{self._seq:06d}-{os.urandom(3).hex()}", self._seq

    def upsert(self, record: JobRecord) -> JobRecord:
        """Persist (journal) and index one record; stamps ``updated_at``."""
        with self._lock:
            record.updated_at = self._clock()
            self._jobs[record.job_id] = record
            self._append({"t": "job", "job": record.to_dict()})
            self.notify_change()
            return record

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            rec = self._jobs.get(job_id)
            if rec is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            return rec

    def maybe_get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self, states: Iterable[str] | None = None) -> list[JobRecord]:
        """Records in submit order, optionally filtered by state."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda r: r.submit_seq)
            if states is not None:
                wanted = set(states)
                jobs = [r for r in jobs if r.state in wanted]
            return jobs

    def remove(self, job_id: str) -> None:
        """Forget a job (GC); journaled so the removal survives restart."""
        with self._lock:
            if job_id in self._jobs:
                self._jobs.pop(job_id, None)
                self._events.pop(job_id, None)
                self._append({"t": "gone", "job_id": job_id})

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # -- change signal --------------------------------------------------------

    @property
    def generation(self) -> int:
        """Counter of in-process transitions; read it before checking state."""
        with self._lock:
            return self._generation

    def notify_change(self) -> None:
        """Bump the generation and wake every :meth:`wait_for_change`."""
        with self._changed:
            self._generation += 1
            self._changed.notify_all()

    def wait_for_change(self, generation: int, timeout_s: float) -> None:
        """Block until the generation moves past ``generation`` or the timeout.

        The timeout is the poll for what raises no signal, such as
        transitions journaled by another process sharing the directory.
        """
        with self._changed:
            self._changed.wait_for(lambda: self._generation != generation, timeout_s)

    # -- progress events ------------------------------------------------------

    def append_event(self, job_id: str, kind: str, **data) -> dict:
        """Record one progress event with a monotone per-job sequence number."""
        with self._lock:
            rec = self.get(job_id)
            rec.events_seq += 1
            event = {"job_id": job_id, "seq": rec.events_seq, "ts": self._clock(), "kind": kind}
            event.update(data)
            events = self._events.setdefault(job_id, [])
            events.append(event)
            if len(events) > _MAX_EVENTS_PER_JOB:
                del events[: len(events) - _MAX_EVENTS_PER_JOB]
            self._append({"t": "event", **event})
            return event

    def events_after(
        self, job_id: str, cursor: int = 0, limit: int | None = None
    ) -> tuple[list[dict], int, bool]:
        """Events with ``seq > cursor``, the next cursor, and a gap flag.

        The returned cursor always advances to the last delivered event, so
        concurrent pollers each see a strictly increasing stream.  The stream
        is gap-free unless retention trimming (``_MAX_EVENTS_PER_JOB``)
        discarded events past the caller's cursor — a slow poller cannot get
        them back, but the returned ``truncated`` flag tells it the events
        between its cursor and the oldest retained one are gone, instead of
        silently skipping them.
        """
        with self._lock:
            self.get(job_id)  # raise UnknownJobError on bogus ids
            retained = self._events.get(job_id, [])
            truncated = bool(retained) and int(cursor) < retained[0]["seq"] - 1
            events = [e for e in retained if e["seq"] > int(cursor)]
            if limit is not None:
                events = events[: int(limit)]
            next_cursor = events[-1]["seq"] if events else int(cursor)
            return [dict(e) for e in events], next_cursor, truncated
