"""Tests for repro.jobs: store durability, scheduling, leases, execution.

The subprocess tests at the bottom exercise *real* process death — a worker
hard-killed mid-decode (``job_crash``) and a power cut mid journal append
(``journal_torn``) — and assert the store recovers and the resumed job is
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import array_content_key
from repro.core.pipeline import ZenesisPipeline
from repro.errors import JobCancelledError, JobError, UnknownJobError
from repro.jobs import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    JobGuard,
    JobRecord,
    JobScheduler,
    JobService,
    JobStore,
)
from repro.resilience import event_count
from repro.resilience.policy import RetryPolicy

PROMPT = "dark catalyst particles"


class FakeClock:
    """Deterministic wall clock for lease/backoff tests."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _volume(n_slices: int = 3, edge: int = 64) -> np.ndarray:
    return repro.make_sample("crystalline", shape=(edge, edge), n_slices=n_slices).volume.voxels


# -- store ---------------------------------------------------------------------


class TestJobStore:
    def test_journal_replay_round_trip(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        rec = JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq, params={"x": 1})
        store.upsert(rec)
        store.append_event(job_id, "state", state=QUEUED)
        rec.state = RUNNING
        store.upsert(rec)

        reloaded = JobStore(tmp_path / "jobs")
        got = reloaded.get(job_id)
        assert got.state == RUNNING and got.params == {"x": 1}
        events, cursor, truncated = reloaded.events_after(job_id)
        assert [e["kind"] for e in events] == ["state"] and cursor == 1 and not truncated
        # sequence numbering continues, never reuses
        next_id, next_seq = reloaded.new_job_id()
        assert next_seq == seq + 1 and next_id != job_id

    def test_torn_tail_dropped_not_fatal(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        with store.journal_path.open("ab") as fh:
            fh.write(b'{"t": "job", "job": {"job_id": "torn')  # crash mid-append

        reloaded = JobStore(tmp_path / "jobs")
        assert len(reloaded) == 1  # the complete line survived, the torn one is gone
        assert event_count("jobs.journal_torn_lines") == 1

    def test_corrupt_complete_line_skipped(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        with store.journal_path.open("ab") as fh:
            fh.write(b"not json at all\n")
        store.upsert(store.get(job_id))  # append a good line after the bad one

        reloaded = JobStore(tmp_path / "jobs")
        assert reloaded.get(job_id).job_id == job_id
        assert event_count("jobs.journal_corrupt_lines") == 1

    def test_compaction_preserves_state_and_truncates(self, tmp_path):
        store = JobStore(tmp_path / "jobs", compact_every=10_000)
        ids = []
        for _ in range(5):
            job_id, seq = store.new_job_id()
            store.upsert(JobRecord(job_id=job_id, kind="synthesize", submit_seq=seq))
            store.append_event(job_id, "state", state=QUEUED)
            ids.append(job_id)
        store.compact()
        assert store.journal_path.read_bytes() == b""
        assert store.snapshot_path.exists()

        reloaded = JobStore(tmp_path / "jobs")
        assert sorted(r.job_id for r in reloaded.list_jobs()) == sorted(ids)
        assert reloaded.events_after(ids[0])[1] == 1
        # post-compaction appends replay on top of the snapshot
        rec = reloaded.get(ids[0])
        rec.state = SUCCEEDED
        reloaded.upsert(rec)
        assert JobStore(tmp_path / "jobs").get(ids[0]).state == SUCCEEDED

    def test_auto_compaction_fires(self, tmp_path):
        store = JobStore(tmp_path / "jobs", compact_every=4)
        for _ in range(3):
            job_id, seq = store.new_job_id()
            store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        store.append_event(store.list_jobs()[0].job_id, "tick")
        assert event_count("jobs.compactions") >= 1
        assert len(JobStore(tmp_path / "jobs")) == 3

    def test_refresh_tails_cross_process_appends(self, tmp_path):
        a = JobStore(tmp_path / "jobs")
        b = JobStore(tmp_path / "jobs")  # second handle, same directory
        job_id, seq = a.new_job_id()
        a.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        assert b.maybe_get(job_id) is None
        assert b.refresh() == 1
        assert b.get(job_id).kind == "evaluate"

    def test_interleaved_foreign_append_is_not_skipped(self, tmp_path):
        """A CLI line appended between a live server's own writes must still
        be scheduled: the server's append may not advance the read watermark
        past foreign bytes it has never parsed."""
        server = JobStore(tmp_path / "jobs")
        cli = JobStore(tmp_path / "jobs")  # second process, same directory
        sid, sseq = server.new_job_id()
        server.upsert(JobRecord(job_id=sid, kind="evaluate", submit_seq=sseq))
        # the CLI submits while the server is mid-stream ...
        cid, cseq = cli.new_job_id()
        cli.upsert(JobRecord(job_id=cid, kind="synthesize", submit_seq=cseq))
        # ... and the server appends again, on top of the foreign line
        rec = server.get(sid)
        rec.state = RUNNING
        server.upsert(rec)

        server.refresh()
        assert server.get(cid).kind == "synthesize"  # CLI job picked up
        assert server.get(sid).state == RUNNING  # own replay is idempotent
        # a cold reader agrees: nothing was fused or dropped
        assert {r.job_id for r in JobStore(tmp_path / "jobs").list_jobs()} == {sid, cid}

    def test_append_terminates_foreign_torn_tail(self, tmp_path):
        """A foreign writer crashing mid-append while this process is live:
        the next append must not fuse its line onto the torn bytes."""
        store = JobStore(tmp_path / "jobs")
        a_id, a_seq = store.new_job_id()
        store.upsert(JobRecord(job_id=a_id, kind="evaluate", submit_seq=a_seq))
        with store.journal_path.open("ab") as fh:
            fh.write(b'{"t": "job", "job": {"job_id": "torn')  # foreign power cut
        b_id, b_seq = store.new_job_id()
        store.upsert(JobRecord(job_id=b_id, kind="synthesize", submit_seq=b_seq))
        assert event_count("jobs.journal_torn_lines") == 1

        reloaded = JobStore(tmp_path / "jobs")
        assert reloaded.get(b_id).kind == "synthesize"  # survived on its own line
        assert reloaded.get(a_id).kind == "evaluate"

    def test_remove_survives_restart(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        store.remove(job_id)
        assert JobStore(tmp_path / "jobs").maybe_get(job_id) is None

    def test_unknown_job_raises(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        with pytest.raises(UnknownJobError):
            store.get("j999999-000000")
        with pytest.raises(UnknownJobError):
            store.events_after("j999999-000000")

    def test_event_cursor_is_monotone_and_complete(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        for i in range(7):
            store.append_event(job_id, "progress", done=i)
        batch1, c1, _ = store.events_after(job_id, cursor=0, limit=3)
        batch2, c2, _ = store.events_after(job_id, cursor=c1, limit=3)
        batch3, c3, _ = store.events_after(job_id, cursor=c2)
        seqs = [e["seq"] for e in batch1 + batch2 + batch3]
        assert seqs == list(range(1, 8))  # gap-free, strictly increasing
        assert store.events_after(job_id, cursor=c3) == ([], c3, False)  # stable at tail

    def test_events_trimmed_past_cursor_signalled(self, tmp_path, monkeypatch):
        """A slow poller whose cursor fell behind the retention window is
        told about the gap instead of silently skipping events."""
        from repro.jobs import store as store_mod

        monkeypatch.setattr(store_mod, "_MAX_EVENTS_PER_JOB", 5)
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        for i in range(12):
            store.append_event(job_id, "progress", done=i)
        events, cursor, truncated = store.events_after(job_id, cursor=0)
        assert truncated  # seqs 1..7 are gone and the caller knows
        assert [e["seq"] for e in events] == list(range(8, 13))
        # a poller at (or past) the trim boundary sees no gap
        assert store.events_after(job_id, cursor=7)[2] is False
        assert store.events_after(job_id, cursor=cursor) == ([], cursor, False)

    def test_event_seq_never_reissued_after_reload(self, tmp_path):
        """events_seq recovers from indexed events even when the last upsert
        predates the last event (crash between event append and upsert)."""
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        for i in range(3):
            store.append_event(job_id, "progress", done=i)  # no upsert afterwards

        reloaded = JobStore(tmp_path / "jobs")
        event = reloaded.append_event(job_id, "progress", done=3)
        assert event["seq"] == 4  # continues, never reuses 1..3
        seqs = [e["seq"] for e in reloaded.events_after(job_id)[0]]
        assert seqs == [1, 2, 3, 4]


# -- scheduler -----------------------------------------------------------------


def _plain_scheduler(tmp_path, clock, **kw):
    store = JobStore(tmp_path / "jobs", clock=clock)
    kw.setdefault("retry_policy", RetryPolicy(max_attempts=3, base_delay_s=0.1, jitter=0.0))
    return JobScheduler(store, clock=clock, **kw)


class TestJobScheduler:
    def test_priority_then_fifo(self, tmp_path):
        clock = FakeClock()
        sched = _plain_scheduler(tmp_path, clock)
        low1 = sched.submit("evaluate", priority=0)
        high = sched.submit("evaluate", priority=5)
        low2 = sched.submit("evaluate", priority=0)
        order = [sched.acquire("w").job_id for _ in range(3)]
        assert order == [high.job_id, low1.job_id, low2.job_id]
        assert sched.acquire("w") is None

    def test_unknown_kind_rejected(self, tmp_path):
        sched = _plain_scheduler(tmp_path, FakeClock())
        with pytest.raises(JobError, match="unknown job kind"):
            sched.submit("mine_bitcoin")

    def test_heartbeat_extends_lease_and_updates_progress(self, tmp_path):
        clock = FakeClock()
        sched = _plain_scheduler(tmp_path, clock, lease_ttl_s=10.0)
        job = sched.submit("evaluate")
        leased = sched.acquire("w1")
        sched.started(job.job_id, "w1")
        clock.advance(8.0)
        beat = sched.heartbeat(job.job_id, "w1", progress={"done": 1, "total": 4})
        assert beat is not None and beat.lease_expires_at == clock() + 10.0
        assert sched.store.get(job.job_id).progress == {"done": 1, "total": 4}
        assert leased.attempt == 1

    def test_expired_lease_reclaimed_and_retried(self, tmp_path):
        clock = FakeClock()
        sched = _plain_scheduler(tmp_path, clock, lease_ttl_s=5.0)
        job = sched.submit("evaluate")
        sched.acquire("w1")
        sched.started(job.job_id, "w1")
        clock.advance(5.1)  # worker went silent
        assert sched.acquire("w2") is None  # backoff gate (not_before) holds it briefly
        rec = sched.store.get(job.job_id)
        assert rec.state == QUEUED and rec.attempt == 1
        assert "lease expired" in rec.error["error"]
        clock.advance(1.0)  # past the 0.1 s backoff
        again = sched.acquire("w2")
        assert again.job_id == job.job_id and again.attempt == 2
        assert event_count("jobs.lease_reclaimed") == 1

    def test_attempts_exhausted_goes_terminal_failed(self, tmp_path):
        clock = FakeClock()
        sched = _plain_scheduler(tmp_path, clock, lease_ttl_s=5.0)
        job = sched.submit("evaluate", max_attempts=2)
        for _ in range(2):
            clock.advance(10.0)
            acquired = sched.acquire("w")
            assert acquired is not None
            sched.fail(job.job_id, "w", {"type": "PipelineError", "error": "boom"})
        rec = sched.store.get(job.job_id)
        assert rec.state == FAILED and rec.error["attempt"] == 2
        clock.advance(100.0)
        assert sched.acquire("w") is None  # terminal jobs never reschedule

    def test_stale_worker_heartbeat_returns_none(self, tmp_path):
        clock = FakeClock()
        sched = _plain_scheduler(tmp_path, clock, lease_ttl_s=1.0)
        job = sched.submit("evaluate")
        sched.acquire("w1")
        clock.advance(2.0)
        sched.acquire("w2")  # reclaim + re-lease to w2
        assert sched.heartbeat(job.job_id, "w1") is None  # w1 lost the lease
        with pytest.raises(JobError, match="not leased"):
            sched.complete(job.job_id, "w1", {})

    def test_cancel_queued_is_immediate(self, tmp_path):
        sched = _plain_scheduler(tmp_path, FakeClock())
        job = sched.submit("evaluate")
        assert sched.cancel(job.job_id).state == CANCELLED
        assert sched.acquire("w") is None
        assert sched.cancel(job.job_id).state == CANCELLED  # idempotent

    def test_cancel_running_sets_cooperative_flag(self, tmp_path):
        sched = _plain_scheduler(tmp_path, FakeClock())
        job = sched.submit("evaluate")
        sched.acquire("w")
        sched.started(job.job_id, "w")
        rec = sched.cancel(job.job_id)
        assert rec.state == RUNNING and rec.cancel_requested
        sched.cancelled(job.job_id, "w")  # the worker noticed and stopped
        assert sched.store.get(job.job_id).state == CANCELLED

    def test_retry_backoff_gates_not_before(self, tmp_path):
        clock = FakeClock()
        sched = _plain_scheduler(tmp_path, clock)
        job = sched.submit("evaluate")
        sched.acquire("w")
        sched.fail(job.job_id, "w", {"type": "PipelineError", "error": "x"}, retryable=True)
        rec = sched.store.get(job.job_id)
        assert rec.state == QUEUED and rec.not_before == pytest.approx(clock() + 0.1)

    def test_non_retryable_failure_is_terminal(self, tmp_path):
        sched = _plain_scheduler(tmp_path, FakeClock())
        job = sched.submit("evaluate")
        sched.acquire("w")
        sched.fail(job.job_id, "w", {"type": "TypeError", "error": "bug"}, retryable=False)
        assert sched.store.get(job.job_id).state == FAILED

    def test_concurrent_acquire_never_double_leases(self, tmp_path):
        """Racing runner threads must each lease a distinct job: acquire's
        refresh/reclaim/select/upsert sequence is atomic end to end."""
        sched = _plain_scheduler(tmp_path, FakeClock())  # frozen clock: leases never expire
        submitted = [sched.submit("evaluate").job_id for _ in range(12)]
        got: list[str] = []
        got_lock = threading.Lock()
        barrier = threading.Barrier(4)

        def grab(worker: str) -> None:
            barrier.wait()
            while True:
                job = sched.acquire(worker)
                if job is None:
                    return
                with got_lock:
                    got.append(job.job_id)

        threads = [threading.Thread(target=grab, args=(f"w{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(got) == len(set(got)) == 12  # every job leased exactly once
        assert sorted(got) == sorted(submitted)
        assert all(r.attempt == 1 for r in sched.store.list_jobs())  # no burned attempts


# -- guard ---------------------------------------------------------------------


class TestJobGuard:
    def test_cancel_flag_raises(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        rec = JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq)
        store.upsert(rec)
        guard = JobGuard(store, job_id)
        guard.check("setup")  # fine while not cancelled
        rec.cancel_requested = True
        store.upsert(rec)
        with pytest.raises(JobCancelledError):
            guard.check("mid-slice")

    def test_without_deadline_never_expires(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="evaluate", submit_seq=seq))
        guard = JobGuard(store, job_id)
        assert guard.remaining() == float("inf")
        assert guard.clamp(12.5) == 12.5
        assert not guard.expired


class TestLeaseLossRace:
    """Two runners racing one reclaimed job: the stalled one must abort.

    This is the cluster's double-write hazard in miniature — worker A (one
    replica) goes silent past its lease TTL, worker B (a peer replica,
    modelled by a second store/scheduler over the same directory) reclaims
    and finishes the job.  A's :class:`JobGuard` must abort A's attempt the
    moment the record names a new owner, and every completion path A could
    still try must bounce, so the journal ends with exactly one terminal
    state.
    """

    def test_stalled_worker_aborts_after_peer_reclaims(self, tmp_path):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        store_a = JobStore(tmp_path / "jobs", clock=clock)
        store_b = JobStore(tmp_path / "jobs", clock=clock)
        sched_a = JobScheduler(store_a, lease_ttl_s=5.0, retry_policy=policy, clock=clock)
        sched_b = JobScheduler(store_b, lease_ttl_s=5.0, retry_policy=policy, clock=clock)

        job = sched_a.submit("evaluate")
        leased = sched_a.acquire("1234-w0")
        assert leased is not None and leased.job_id == job.job_id
        guard = JobGuard(
            store_a, job.job_id, worker_id="1234-w0", lease_check_s=0.0, clock=clock
        )
        guard.check("mid-slice")  # lease held: no objection

        clock.advance(6.0)  # A stalls past its TTL without heartbeating
        reclaimed = sched_b.acquire("5678-w0")  # the peer's scheduler tick
        assert reclaimed is not None and reclaimed.job_id == job.job_id
        assert reclaimed.lease_owner == "5678-w0"

        # A's next cooperative check sees the new owner and aborts the round.
        with pytest.raises(JobCancelledError, match="lease lost"):
            guard.check("mid-slice")

        # Every write path A could still attempt bounces off ownership...
        assert sched_a.heartbeat(job.job_id, "1234-w0") is None
        with pytest.raises(JobError):
            sched_a.complete(job.job_id, "1234-w0", {"winner": "A"})
        # ...while B, the legitimate owner, completes exactly once.
        done = sched_b.complete(job.job_id, "5678-w0", {"winner": "B"})
        assert done.state == SUCCEEDED
        store_a.refresh()
        final = store_a.get(job.job_id)
        assert final.state == SUCCEEDED
        assert final.result == {"winner": "B"}
        events, _, _ = store_a.events_after(job.job_id)
        terminal = [
            e for e in events if e.get("state") in (SUCCEEDED, FAILED, CANCELLED)
        ]
        assert len(terminal) == 1


# -- service + runner ----------------------------------------------------------


class TestJobExecution:
    def test_segment_volume_job_bit_identical_to_sync(self, tmp_path):
        vol = _volume(3)
        baseline = ZenesisPipeline().segment_volume(vol, PROMPT).masks
        svc = JobService(tmp_path / "jobs")
        job = svc.submit_segment_volume(vol, PROMPT, n_workers=2)
        assert svc.runner.run_until_idle() == 1
        res = svc.result(job.job_id)
        assert res["state"] == SUCCEEDED
        assert res["result"]["masks_key"] == array_content_key(baseline)
        with np.load(res["result"]["masks_path"]) as bundle:
            assert np.array_equal(bundle["masks"], baseline)
        # spans of the finished job were exported into the record
        spans = svc.store.get(job.job_id).spans
        assert spans and spans[0]["name"] == "job.run"
        assert [c["name"] for c in spans[0]["children"]] == ["job.volume"]

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        """A job with pre-existing shards skips them and still matches sync."""
        vol = _volume(3)
        baseline = ZenesisPipeline().segment_volume(vol, PROMPT).masks
        svc = JobService(tmp_path / "jobs")
        job = svc.submit_segment_volume(vol, PROMPT)
        # seed the job's checkpoint dir exactly as an interrupted attempt would
        from repro.cache import combine_keys, config_fingerprint
        from repro.core.pipeline import ZenesisConfig
        from repro.resilience.checkpoint import CheckpointManager

        fingerprint = combine_keys(
            array_content_key(vol), repr(PROMPT), config_fingerprint(ZenesisConfig()), "temporal=True"
        )
        ckpt = CheckpointManager(job.checkpoint_dir, fingerprint=fingerprint, n_slices=3, meta={})
        ckpt.load(resume=False)
        ckpt.save_slice(0, baseline[0])
        svc.runner.run_until_idle()
        res = svc.result(job.job_id)
        assert res["state"] == SUCCEEDED
        assert res["result"]["resumed_slices"] == 1
        assert res["result"]["masks_key"] == array_content_key(baseline)

    def test_evaluate_and_synthesize_jobs(self, tmp_path):
        svc = JobService(tmp_path / "jobs")
        ev = svc.submit("evaluate", {"shape": (64, 64), "n_slices": 2, "methods": ["otsu"]})
        sy = svc.submit("synthesize", {"sample_kind": "amorphous", "size": 48, "n_slices": 2})
        assert svc.runner.run_until_idle() == 2
        ev_res = svc.result(ev.job_id)
        assert ev_res["state"] == SUCCEEDED and "otsu" in ev_res["result"]["evaluations"]
        sy_res = svc.result(sy.job_id)
        assert sy_res["state"] == SUCCEEDED
        assert Path(sy_res["result"]["out_path"]).exists()

    def test_cancel_before_run_and_cooperative_cancel(self, tmp_path):
        svc = JobService(tmp_path / "jobs")
        queued = svc.submit_segment_volume(_volume(2), PROMPT)
        assert svc.cancel(queued.job_id)["state"] == CANCELLED
        # cooperative: flag set while leased -> guard raises in prepare
        running = svc.submit_segment_volume(_volume(2), PROMPT)
        job = svc.scheduler.acquire("w")
        assert job.job_id == running.job_id
        svc.scheduler.cancel(job.job_id)
        svc.runner._execute(job, "w")
        assert svc.status(running.job_id)["state"] == CANCELLED
        kinds = [e["kind"] for e in svc.events(running.job_id)["events"]]
        assert "cancel_requested" in kinds

    def test_bad_input_fails_with_structured_error(self, tmp_path):
        svc = JobService(tmp_path / "jobs")
        job = svc.submit("segment_volume", {"prompt": PROMPT}, max_attempts=1)  # no input_path
        svc.runner.run_until_idle()
        res = svc.result(job.job_id)
        assert res["state"] == FAILED
        assert res["error"]["type"] == "JobError" and "input_path" in res["error"]["error"]

    def test_worker_threads_drain_queue(self, tmp_path):
        svc = JobService(tmp_path / "jobs", n_workers=2)
        jobs = [svc.submit("synthesize", {"size": 32, "n_slices": 1, "seed": i}) for i in range(3)]
        svc.start()
        try:
            for j in jobs:
                assert svc.wait(j.job_id, timeout_s=60.0)["state"] == SUCCEEDED
        finally:
            svc.stop()

    def test_jobs_survive_service_restart_mid_queue(self, tmp_path):
        """Server restart loses no job state: queued jobs run after reload."""
        svc = JobService(tmp_path / "jobs")
        submitted = [svc.submit("synthesize", {"size": 32, "n_slices": 1, "seed": i}) for i in range(2)]
        del svc  # no workers ever ran; simulate process restart

        revived = JobService(tmp_path / "jobs")
        assert [r.job_id for r in revived.store.list_jobs(states=(QUEUED,))] == [
            j.job_id for j in submitted
        ]
        assert revived.runner.run_until_idle() == 2
        for j in submitted:
            assert revived.status(j.job_id)["state"] == SUCCEEDED

    def test_gc_removes_old_terminal_jobs_and_orphans(self, tmp_path):
        clock = FakeClock()
        svc = JobService(tmp_path / "jobs", clock=clock)
        done = svc.submit("synthesize", {"size": 32, "n_slices": 1})
        svc.runner.run_until_idle()
        fresh = svc.submit("synthesize", {"size": 32, "n_slices": 1})
        old_orphan = svc.store.input_path("vol-orphan")
        old_orphan.write_bytes(b"x")
        stale = time.time() - 120.0
        os.utime(old_orphan, (stale, stale))  # residue of a long-dead crash
        new_orphan = svc.store.input_path("vol-inflight")
        new_orphan.write_bytes(b"y")  # may belong to a submit not yet journaled
        clock.advance(100.0)
        swept = svc.gc(max_age_s=50.0)
        assert swept["removed"] == [done.job_id] and swept["orphan_inputs"] == 1
        assert svc.store.maybe_get(done.job_id) is None
        assert svc.store.maybe_get(fresh.job_id) is not None  # queued jobs untouched
        assert not old_orphan.exists()
        assert new_orphan.exists()  # fresh snapshots get a grace period

    def test_concurrent_event_polling_monotone_and_complete(self, tmp_path):
        """Pollers racing the writer each see a gap-free increasing stream."""
        svc = JobService(tmp_path / "jobs")
        job = svc.submit_segment_volume(_volume(4), PROMPT)
        seen: dict[int, list[int]] = {i: [] for i in range(3)}
        stop = threading.Event()

        def poll(i: int) -> None:
            cursor = 0
            while True:
                last = stop.is_set()  # checked BEFORE the read: one final poll
                feed = svc.events(job.job_id, cursor=cursor)
                seen[i].extend(e["seq"] for e in feed["events"])
                cursor = feed["cursor"]
                if last:
                    break
                time.sleep(0.005)

        threads = [threading.Thread(target=poll, args=(i,)) for i in seen]
        for t in threads:
            t.start()
        svc.runner.run_until_idle()
        stop.set()
        for t in threads:
            t.join(timeout=10)
        final_cursor = svc.events(job.job_id)["cursor"]
        assert final_cursor > 0
        for seqs in seen.values():
            assert seqs == sorted(set(seqs))  # strictly increasing, no dupes
            assert seqs == list(range(1, final_cursor + 1))  # and complete


# -- real process death --------------------------------------------------------


def _subprocess_env() -> dict:
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env.pop("REPRO_FAULTS", None)
    return env


class TestJobCrashRecovery:
    def test_killed_worker_job_reclaimed_and_resumed_bit_identical(self, tmp_path):
        """SIGKILL-equivalent death mid-decode: lease expires, retry resumes
        from the checkpoint shards, final masks match an uninterrupted run."""
        env = _subprocess_env()
        script = (
            "import sys\n"
            "from repro.jobs import JobService\n"
            "from repro.data import make_sample\n"
            "vol = make_sample('crystalline', shape=(64, 64), n_slices=3).volume.voxels\n"
            "svc = JobService(sys.argv[1], lease_ttl_s=0.5)\n"
            f"job = svc.submit_segment_volume(vol, {PROMPT!r})\n"
            "print(job.job_id, flush=True)\n"
            "svc.runner.run_until_idle()\n"
        )
        jobs_dir = tmp_path / "jobs"
        killed = subprocess.run(
            [sys.executable, "-c", script, str(jobs_dir)],
            env={**env, "REPRO_FAULTS": "job_crash@slice=1"},
            capture_output=True,
            timeout=300,
        )
        assert killed.returncode == 137, killed.stderr.decode()
        job_id = killed.stdout.decode().split()[0]

        svc = JobService(jobs_dir, lease_ttl_s=0.5)
        rec = svc.store.get(job_id)
        assert rec.state == RUNNING and rec.lease_owner is not None  # died holding the lease
        assert (Path(rec.checkpoint_dir) / "slice_00000.npy").exists()  # slice 0 checkpointed
        time.sleep(0.6)  # let the lease expire
        # first acquire reclaims + requeues behind the retry backoff gate
        done = 0
        give_up = time.monotonic() + 300
        while done == 0 and time.monotonic() < give_up:
            done = svc.runner.run_until_idle()
            time.sleep(0.1)
        assert done == 1
        status = svc.status(job_id)
        assert status["state"] == SUCCEEDED and status["attempt"] == 2
        kinds = [e["kind"] for e in svc.events(job_id)["events"]]
        assert "lease_reclaimed" in kinds and "retry_scheduled" in kinds

        vol = _volume(3)
        baseline = ZenesisPipeline().segment_volume(vol, PROMPT).masks
        result = svc.result(job_id)["result"]
        assert result["resumed_slices"] >= 1
        assert result["masks_key"] == array_content_key(baseline)

    def test_torn_journal_write_recovered(self, tmp_path):
        """A crash mid journal append (half a line, no newline) loses only
        that entry; everything before it replays cleanly."""
        env = _subprocess_env()
        script = (
            "import sys\n"
            "from repro.jobs import JobService\n"
            "svc = JobService(sys.argv[1])\n"
            "svc.submit('evaluate', {'methods': ['otsu']})\n"  # appends 1 (job) + 2 (event)
            "svc.submit('synthesize', {'size': 32})\n"  # append 3 tears mid-line\n
            "print('unreachable')\n"
        )
        jobs_dir = tmp_path / "jobs"
        torn = subprocess.run(
            [sys.executable, "-c", script, str(jobs_dir)],
            env={**env, "REPRO_FAULTS": "journal_torn@line=3"},
            capture_output=True,
            timeout=120,
        )
        assert torn.returncode == 137, torn.stderr.decode()
        assert b"unreachable" not in torn.stdout
        raw = (jobs_dir / "journal.jsonl").read_bytes()
        assert not raw.endswith(b"\n")  # the torn tail really is torn

        store = JobStore(jobs_dir)
        jobs = store.list_jobs()
        assert len(jobs) == 1 and jobs[0].kind == "evaluate"  # second submit lost, first intact
        assert event_count("jobs.journal_torn_lines") == 1
        # the recovered store keeps journaling from the repaired tail
        job_id, seq = store.new_job_id()
        store.upsert(JobRecord(job_id=job_id, kind="synthesize", submit_seq=seq))
        assert JobStore(jobs_dir).get(job_id).kind == "synthesize"
