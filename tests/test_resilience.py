"""Tests for the fault-tolerance layer: policies, faults, checkpoints,
cache quarantine, and grounding retries.

Each test manages ``REPRO_FAULTS`` explicitly (the autouse fixture clears
it first), so the suite also passes when the variable is set in the outer
environment — the CI fault-injection job runs it exactly that way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache.disk import DiskTier
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.errors import (
    CheckpointError,
    DeadlineExceededError,
    GroundingError,
    PipelineError,
    RetryExhaustedError,
    ValidationError,
)
from repro.eval.dashboard import render_dashboard
from repro.observability import MetricsRegistry, format_profile, get_registry
from repro.resilience import (
    CheckpointManager,
    Deadline,
    FaultPlan,
    RetryPolicy,
    event_count,
    get_fault_plan,
    record_event,
)

PROMPT = "catalyst particles"


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Start every test without inherited fault injection."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# -- policies -----------------------------------------------------------------


class TestRetryPolicy:
    def test_first_attempt_success_no_sleep(self):
        sleeps = []
        result = RetryPolicy(max_attempts=3).call(lambda i: i + 40, sleep=sleeps.append)
        assert result == 40
        assert sleeps == []

    def test_recovers_after_transient_failures(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, retry_on=(ValueError,), base_delay_s=0.0)
        assert policy.call(flaky, sleep=lambda s: None) == "ok"
        assert calls == [0, 1, 2]

    def test_exhaustion_raises_with_cause(self):
        policy = RetryPolicy(max_attempts=2, retry_on=(ValueError,), base_delay_s=0.0)

        def always(attempt):
            raise ValueError("permanent")

        with pytest.raises(RetryExhaustedError) as exc_info:
            policy.call(always, sleep=lambda s: None)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert isinstance(exc_info.value, repro.ReproError)

    def test_allowlist_passes_other_exceptions_through(self):
        policy = RetryPolicy(max_attempts=5, retry_on=(ValueError,))

        def boom(attempt):
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            policy.call(boom)

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3)
        a = policy.delays(key="stream")
        b = policy.delays(key="stream")
        assert a == b  # deterministic jitter
        assert policy.delays(key="other") != a  # per-stream streams differ
        assert all(d <= 0.3 * (1 + policy.jitter) for d in a)
        # nominal exponential shape survives the jitter envelope
        assert a[1] > a[0] * 2 * (1 - policy.jitter) / (1 + policy.jitter)

    def test_deadline_stops_retry_loop(self):
        clock = iter([0.0, 0.0, 10.0, 10.0, 10.0]).__next__
        deadline = Deadline(1.0, clock=clock)
        policy = RetryPolicy(max_attempts=10, retry_on=(ValueError,), base_delay_s=0.0)

        def always(attempt):
            raise ValueError("nope")

        with pytest.raises(DeadlineExceededError):
            policy.call(always, deadline=deadline, sleep=lambda s: None)


class TestDeadline:
    def test_remaining_and_expiry(self):
        times = [0.0]
        deadline = Deadline(5.0, clock=lambda: times[0])
        assert deadline.remaining() == pytest.approx(5.0)
        times[0] = 4.0
        assert not deadline.expired
        deadline.check("work")  # within budget: no raise
        times[0] = 6.0
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="work"):
            deadline.check("work")

    def test_clamp(self):
        times = [0.0]
        deadline = Deadline(2.0, clock=lambda: times[0])
        times[0] = 1.5
        assert deadline.clamp(10.0) == pytest.approx(0.5)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


# -- fault plans --------------------------------------------------------------


class TestFaultPlan:
    def test_parse_multi_rule_spec(self):
        plan = FaultPlan.parse("volume_crash@slice=3,disk_corrupt@p=0.1,grounding_empty@slice=5")
        kinds = [r.kind for r in plan.rules]
        assert kinds == ["volume_crash", "disk_corrupt", "grounding_empty"]
        assert plan.rules[0].match == {"slice": 3}
        assert plan.rules[1].p == pytest.approx(0.1)
        assert plan.rules[1].times == float("inf")  # p-rules keep firing
        assert plan.rules[0].times == 1  # deterministic rules fire once

    def test_empty_spec_inactive(self):
        plan = FaultPlan.parse("")
        assert not plan.active
        assert not plan.should_fire("volume_crash", slice=3)

    def test_deterministic_rule_fires_once_on_match(self):
        plan = FaultPlan.parse("grounding_empty@slice=5")
        assert not plan.should_fire("grounding_empty", slice=4)
        assert plan.should_fire("grounding_empty", slice=5)
        assert not plan.should_fire("grounding_empty", slice=5)  # budget spent

    def test_times_condition(self):
        plan = FaultPlan.parse("grounding_empty@times=2")
        fires = [plan.should_fire("grounding_empty") for _ in range(4)]
        assert fires == [True, True, False, False]

    def test_zero_probability_never_fires(self):
        plan = FaultPlan.parse("disk_corrupt@p=0.0")
        assert not any(plan.should_fire("disk_corrupt") for _ in range(50))

    def test_bad_specs_rejected(self):
        for spec in ("@slice=3", "kind@slice", "kind@p=7"):
            with pytest.raises(ValidationError):
                FaultPlan.parse(spec)

    def test_env_plan_reparsed_on_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "grounding_empty@slice=1")
        plan = get_fault_plan()
        assert plan.should_fire("grounding_empty", slice=1)
        monkeypatch.setenv("REPRO_FAULTS", "grounding_empty@slice=2")
        fresh = get_fault_plan()
        assert fresh is not plan
        assert fresh.should_fire("grounding_empty", slice=2)


# -- checkpoints --------------------------------------------------------------


class TestCheckpointManager:
    def _manager(self, root, fingerprint="fp-1", n_slices=4):
        return CheckpointManager(root, fingerprint=fingerprint, n_slices=n_slices)

    def test_roundtrip_bit_identical(self, tmp_path, rng):
        ckpt = self._manager(tmp_path / "ck")
        ckpt.load(resume=False)
        mask = rng.random((32, 32)) > 0.5
        ckpt.save_slice(1, mask)
        resumed = self._manager(tmp_path / "ck")
        assert resumed.load(resume=True) == {1}
        assert np.array_equal(resumed.load_slice(1), mask)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        ckpt = self._manager(tmp_path / "ck", fingerprint="job-a")
        ckpt.load(resume=False)
        other = self._manager(tmp_path / "ck", fingerprint="job-b")
        with pytest.raises(CheckpointError, match="different job"):
            other.load(resume=True)

    def test_slice_count_mismatch_raises(self, tmp_path):
        self._manager(tmp_path / "ck", n_slices=4).load(resume=False)
        with pytest.raises(CheckpointError):
            self._manager(tmp_path / "ck", n_slices=8).load(resume=True)

    def test_missing_shard_dropped_from_resume(self, tmp_path):
        ckpt = self._manager(tmp_path / "ck")
        ckpt.load(resume=False)
        ckpt.save_slice(0, np.ones((4, 4), dtype=bool))
        ckpt.save_slice(2, np.ones((4, 4), dtype=bool))
        ckpt.shard_path(2).unlink()
        assert self._manager(tmp_path / "ck").load(resume=True) == {0}

    def test_corrupt_manifest_raises(self, tmp_path):
        ckpt = self._manager(tmp_path / "ck")
        ckpt.load(resume=False)
        ckpt.manifest_path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            self._manager(tmp_path / "ck").load(resume=True)

    def test_fresh_start_discards_previous_progress(self, tmp_path):
        ckpt = self._manager(tmp_path / "ck")
        ckpt.load(resume=False)
        ckpt.save_slice(0, np.zeros((4, 4), dtype=bool))
        assert self._manager(tmp_path / "ck").load(resume=False) == set()

    def test_finalize_marks_complete(self, tmp_path):
        ckpt = self._manager(tmp_path / "ck")
        ckpt.load(resume=False)
        ckpt.finalize()
        manifest = json.loads(ckpt.manifest_path.read_text())
        assert manifest["complete"] is True


# -- disk-cache quarantine ----------------------------------------------------


class TestDiskQuarantine:
    def test_corrupt_entry_quarantined_not_rereadable(self, tmp_path):
        tier = DiskTier(root=tmp_path / "cache")
        assert tier.put("deadbeef01", {"payload": 1})
        path = tier._path("deadbeef01")
        path.write_bytes(b"\x00garbage, not a pickle")
        assert tier.get("deadbeef01") is None
        assert tier.stats.quarantined == 1
        assert not path.exists()
        bad = list((tmp_path / "cache" / ".bad").iterdir())
        assert len(bad) == 1 and bad[0].name == path.name
        # Second read is a plain miss: the entry is gone, not re-quarantined.
        assert tier.get("deadbeef01") is None
        assert tier.stats.quarantined == 1

    def test_quarantine_dir_invisible_to_scan_and_eviction(self, tmp_path):
        tier = DiskTier(root=tmp_path / "cache")
        tier.put("deadbeef01", b"x" * 64)
        tier._path("deadbeef01").write_bytes(b"bad")
        tier.get("deadbeef01")
        fresh = DiskTier(root=tmp_path / "cache")
        fresh._scan()
        assert fresh.stats.entries == 0  # .bad/ contents are not entries

    def test_disk_corrupt_fault_exercises_quarantine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "disk_corrupt@p=1")
        tier = DiskTier(root=tmp_path / "cache")
        assert tier.put("cafebabe02", [1, 2, 3])
        assert tier.get("cafebabe02") is None  # injected corruption detected
        assert tier.stats.quarantined == 1


# -- grounding retry ----------------------------------------------------------


class TestGroundingRetry:
    def test_strict_mode_recovers_via_relaxed_thresholds(self, monkeypatch, crystalline_sample):
        monkeypatch.setenv("REPRO_FAULTS", "grounding_empty")
        pipe = ZenesisPipeline(ZenesisConfig(strict_grounding=True))
        result = pipe.segment_image(crystalline_sample.volume.slice_image(0), PROMPT)
        assert result.detection.n_boxes > 0
        assert event_count("grounding.retries") >= 1
        assert event_count("grounding.recovered") == 1
        assert get_registry().value("repro_resilience_grounding_recovered_total") == 1

    def test_strict_nonsense_prompt_still_raises_after_retries(self, crystalline_sample):
        pipe = ZenesisPipeline(ZenesisConfig(strict_grounding=True))
        with pytest.raises(GroundingError, match="attempt"):
            pipe.segment_image(crystalline_sample.volume.slice_image(0), "wibble wobble")

    def test_non_strict_mode_keeps_empty_result(self, monkeypatch, pipeline, crystalline_sample):
        monkeypatch.setenv("REPRO_FAULTS", "grounding_empty")
        result = pipeline.segment_image(crystalline_sample.volume.slice_image(0), PROMPT)
        assert result.detection.n_boxes == 0  # empty is a valid non-strict answer
        assert event_count("grounding.retries") == 0


# -- checkpoint/resume through the pipeline -----------------------------------


class TestVolumeCheckpointResume:
    def test_abort_then_resume_is_bit_identical(self, tmp_path, monkeypatch):
        vol = repro.make_sample("crystalline", shape=(96, 96), n_slices=3).volume.voxels
        baseline = ZenesisPipeline().segment_volume(vol, PROMPT).masks

        monkeypatch.setenv("REPRO_FAULTS", "volume_abort@slice=2")
        ckdir = tmp_path / "ck"
        with pytest.raises(PipelineError, match="volume_abort"):
            ZenesisPipeline().segment_volume(vol, PROMPT, checkpoint_dir=ckdir)
        manifest = json.loads((ckdir / "manifest.json").read_text())
        assert manifest["completed"] == [0, 1] and not manifest["complete"]

        monkeypatch.delenv("REPRO_FAULTS")
        result = ZenesisPipeline().segment_volume(vol, PROMPT, checkpoint_dir=ckdir, resume=True)
        assert np.array_equal(result.masks, baseline)
        resumed = [bool(sr.metadata.get("resumed")) for sr in result.slice_results]
        assert resumed == [True, True, False]  # only the remaining slice re-segmented
        assert event_count("checkpoint.resumed_slices") == 2
        assert get_registry().value("repro_resilience_checkpoint_resumed_slices_total") == 2
        assert json.loads((ckdir / "manifest.json").read_text())["complete"] is True

    def test_resume_with_different_prompt_rejected(self, tmp_path):
        vol = repro.make_sample("crystalline", shape=(96, 96), n_slices=2).volume.voxels
        ckdir = tmp_path / "ck"
        ZenesisPipeline().segment_volume(vol, PROMPT, checkpoint_dir=ckdir)
        with pytest.raises(CheckpointError):
            ZenesisPipeline().segment_volume(vol, "pores", checkpoint_dir=ckdir, resume=True)

    def test_process_kill_then_resume(self, tmp_path):
        """A hard-killed (os._exit) run resumes to bit-identical masks."""
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        env.pop("REPRO_FAULTS", None)
        script = (
            "import sys, numpy as np\n"
            "from repro.core.pipeline import ZenesisPipeline\n"
            "from repro.data import make_sample\n"
            "vol = make_sample('crystalline', shape=(96, 96), n_slices=3).volume.voxels\n"
            f"res = ZenesisPipeline().segment_volume(vol, {PROMPT!r}, "
            "checkpoint_dir=sys.argv[1], resume=True)\n"
            "np.save(sys.argv[2], res.masks)\n"
        )
        ckdir, out = tmp_path / "ck", tmp_path / "masks.npy"
        killed = subprocess.run(
            [sys.executable, "-c", script, str(ckdir), str(out)],
            env={**env, "REPRO_FAULTS": "volume_crash@slice=1"},
            capture_output=True,
            timeout=300,
        )
        assert killed.returncode == 137, killed.stderr.decode()
        assert not out.exists()
        completed = json.loads((ckdir / "manifest.json").read_text())["completed"]
        assert completed == [0]
        resumed = subprocess.run(
            [sys.executable, "-c", script, str(ckdir), str(out)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        vol = repro.make_sample("crystalline", shape=(96, 96), n_slices=3).volume.voxels
        baseline = ZenesisPipeline().segment_volume(vol, PROMPT).masks
        assert np.array_equal(np.load(out), baseline)


# -- observability ------------------------------------------------------------


class TestResilienceObservability:
    def test_dashboard_resilience_card(self):
        record_event("grounding.retries", 2)
        record_event("cache.quarantined")
        html = render_dashboard({}, metrics=get_registry())
        assert "Resilience" in html
        assert "repro_resilience_grounding_retries_total" in html
        assert "grounding retries" in html and "quarantined cache entries" in html
        assert "worker failovers" not in html

    def test_dashboard_without_events(self):
        html = render_dashboard({}, metrics=MetricsRegistry())
        assert "no recovery events" in html

    def test_profile_counters_include_resilience(self, monkeypatch, crystalline_sample):
        monkeypatch.setenv("REPRO_FAULTS", "grounding_empty")
        pipe = ZenesisPipeline(ZenesisConfig(strict_grounding=True))
        pipe.segment_image(crystalline_sample.volume.slice_image(0), PROMPT)
        table = format_profile()
        assert "repro_resilience_grounding_retries_total" in table
        assert "repro_resilience_faults_grounding_empty_total" in table
