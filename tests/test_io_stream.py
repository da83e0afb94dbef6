"""End-to-end tests for out-of-core streaming segmentation.

The contract under test (DESIGN.md §"Ingestion failure model"):

* streaming over a clean volume is **bit-identical** to the eager path, in
  both temporal modes;
* resident tile bytes stay within the ingest policy's memory budget — a
  volume many times the budget completes;
* a SIGKILL mid-run resumes from the checkpoint to bit-identical masks;
* corrupt tiles follow ``on_corrupt``: ``fail`` raises the structured
  error, ``skip``/``degrade`` complete the run with the slice recorded as
  degraded in the run manifest;
* the jobs runner and the platform API expose the same semantics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.errors import CorruptTileError
from repro.io import IngestPolicy, open_lazy_volume, write_sidecar
from repro.io.tiff import write_tiff
from repro.observability import get_registry

PROMPT = "catalyst particles"


@pytest.fixture(scope="module")
def stream_vol():
    return repro.make_sample("crystalline", shape=(96, 96), n_slices=3).volume.voxels


@pytest.fixture()
def tiff_path(stream_vol, tmp_path):
    path = tmp_path / "v.tif"
    write_tiff(path, stream_vol, compress=True)
    return path


def _stream_masks(result):
    return result.assemble_masks()


class TestBitIdentity:
    def test_meanbox_matches_eager(self, stream_vol, tiff_path, tmp_path):
        eager = ZenesisPipeline().segment_volume(stream_vol, PROMPT).masks
        result = ZenesisPipeline().segment_volume_stream(
            tiff_path, PROMPT, checkpoint_dir=tmp_path / "ck"
        )
        assert np.array_equal(_stream_masks(result), eager)
        assert result.degraded == {}

    def test_propagate_matches_eager(self, stream_vol, tiff_path, tmp_path):
        cfg = ZenesisConfig(temporal_mode="propagate")
        eager = ZenesisPipeline(cfg).segment_volume(stream_vol, PROMPT).masks
        result = ZenesisPipeline(cfg).segment_volume_stream(
            tiff_path, PROMPT, checkpoint_dir=tmp_path / "ck"
        )
        assert np.array_equal(_stream_masks(result), eager)

    def test_per_slice_coverage_and_shards(self, tiff_path, tmp_path):
        result = ZenesisPipeline().segment_volume_stream(
            tiff_path, PROMPT, checkpoint_dir=tmp_path / "ck"
        )
        for z in range(result.n_slices):
            shard = result.load_mask(z)
            assert shard.dtype == bool
            assert float(shard.mean()) == pytest.approx(result.per_slice_coverage[z])


class TestMemoryBudget:
    def test_volume_many_times_budget_completes_within_budget(self, tmp_path, rng):
        """A volume 12x the tile budget streams through; resident tile bytes
        never exceed the policy budget (structural high-water mark)."""
        side = 96
        n = 12
        vol = (rng.random((n, side, side)) * 255).astype(np.uint8)
        yy, xx = np.mgrid[0:side, 0:side]
        for z in range(n):
            vol[z][(yy - 30 - 2 * z) ** 2 + (xx - 40 + z) ** 2 < 120] = 235
        path = tmp_path / "big.npy"
        np.save(path, vol, allow_pickle=False)
        budget = vol[0].nbytes  # exactly one tile resident at a time
        result = ZenesisPipeline().segment_volume_stream(
            path,
            PROMPT,
            checkpoint_dir=tmp_path / "ck",
            policy=IngestPolicy(memory_budget_bytes=budget),
        )
        assert result.n_slices == n
        high_water = get_registry().gauge("repro_io_stream_max_resident_bytes").value
        assert 0 < high_water <= budget
        assert vol.nbytes >= 10 * budget  # the volume really dwarfed the budget

    def test_raw_streaming_rss_stays_bounded(self, tmp_path):
        """IO-layer RSS ceiling: stream a 64 MB volume under an 8 MB budget in
        a subprocess and assert the RSS growth during streaming stays far
        below the volume size (i.e. tiles were never all resident)."""
        script = r"""
import resource, sys
import numpy as np
from repro.io import IngestPolicy, NpyLazyVolume, Prefetcher, TileStream

path = sys.argv[1]
shape = (64, 1024, 1024)
mm = np.lib.format.open_memmap(path, mode="w+", dtype=np.uint8, shape=shape)
for z in range(shape[0]):
    mm[z] = z  # constant tiles; written slice-at-a-time
mm.flush()
del mm

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with NpyLazyVolume(path) as vol:
    stream = TileStream(vol, IngestPolicy(memory_budget_bytes=8 << 20))
    total = 0
    for z, tile, reason in Prefetcher(stream):
        total += int(tile[0, 0])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
grew_kb = after - before
assert total == sum(range(shape[0])), total
# 64 MB of tiles passed through; growth must stay well under the volume
# size (budget + decode scratch + allocator slack, not the full stack).
assert grew_kb * 1024 < 32 << 20, f"rss grew {grew_kb} KiB"
print("ok", grew_kb)
"""
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "big.npy")],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().startswith("ok")


class TestCrashResume:
    def test_abort_then_resume_bit_identical(self, tiff_path, tmp_path, monkeypatch):
        reference = ZenesisPipeline().segment_volume_stream(
            tiff_path, PROMPT, checkpoint_dir=tmp_path / "ref"
        )
        monkeypatch.setenv("REPRO_FAULTS", "volume_abort@slice=2")
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="volume_abort"):
            ZenesisPipeline().segment_volume_stream(
                tiff_path, PROMPT, checkpoint_dir=tmp_path / "ck"
            )
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert not manifest["complete"]
        monkeypatch.delenv("REPRO_FAULTS")
        resumed = ZenesisPipeline().segment_volume_stream(
            tiff_path, PROMPT, checkpoint_dir=tmp_path / "ck", resume=True
        )
        assert np.array_equal(_stream_masks(resumed), _stream_masks(reference))

    def test_process_kill_then_resume(self, stream_vol, tiff_path, tmp_path):
        """A hard-killed (SIGKILL-equivalent) streaming run resumes to
        bit-identical masks, never re-reading completed shards."""
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        env.pop("REPRO_FAULTS", None)
        script = (
            "import sys, numpy as np\n"
            "from repro.core.pipeline import ZenesisPipeline\n"
            f"res = ZenesisPipeline().segment_volume_stream(sys.argv[1], {PROMPT!r}, "
            "checkpoint_dir=sys.argv[2], resume=True)\n"
            "np.save(sys.argv[3], res.assemble_masks())\n"
        )
        ckdir, out = tmp_path / "ck", tmp_path / "masks.npy"
        killed = subprocess.run(
            [sys.executable, "-c", script, str(tiff_path), str(ckdir), str(out)],
            env={**env, "REPRO_FAULTS": "volume_crash@slice=1"},
            capture_output=True,
            timeout=300,
        )
        assert killed.returncode == 137, killed.stderr.decode()
        assert not out.exists()
        completed = json.loads((ckdir / "manifest.json").read_text())["completed"]
        assert completed == [0]
        resumed = subprocess.run(
            [sys.executable, "-c", script, str(tiff_path), str(ckdir), str(out)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        baseline = ZenesisPipeline().segment_volume(stream_vol, PROMPT).masks
        assert np.array_equal(np.load(out), baseline)


class TestCorruptPolicies:
    def test_fail_policy_raises_structured(self, tiff_path, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1&times=-1")
        with pytest.raises(CorruptTileError) as exc:
            ZenesisPipeline().segment_volume_stream(
                tiff_path, PROMPT, checkpoint_dir=tmp_path / "ck"
            )
        assert exc.value.kind == "torn"

    def test_fail_policy_keeps_the_slices_before_the_corrupt_one(
        self, stream_vol, tiff_path, tmp_path, monkeypatch
    ):
        # The loop reads one tile ahead to adapt it early; a tile that fails
        # to read must still fail at its own slice, after slice 1 is saved.
        # Both engines run the one-pass driver, so both keep slices 0-1.
        for mode in ("meanbox", "propagate"):
            config = ZenesisConfig(temporal_mode=mode)
            ckpt = tmp_path / f"ck-{mode}"
            monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=2&times=-1")
            with pytest.raises(CorruptTileError):
                ZenesisPipeline(config).segment_volume_stream(tiff_path, PROMPT, checkpoint_dir=ckpt)
            assert sorted(p.name for p in ckpt.glob("slice_*.npy")) == [
                "slice_00000.npy",
                "slice_00001.npy",
            ]
            monkeypatch.delenv("REPRO_FAULTS")
            resumed = ZenesisPipeline(config).segment_volume_stream(
                tiff_path, PROMPT, checkpoint_dir=ckpt, resume=True
            )
            eager = ZenesisPipeline(config).segment_volume(stream_vol, PROMPT).masks
            assert np.array_equal(_stream_masks(resumed), eager)

    def test_degrade_completes_and_marks_manifest(self, tiff_path, tmp_path, monkeypatch):
        with open_lazy_volume(tiff_path) as lazy:
            write_sidecar(lazy)
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1&times=-1,io_flip@slice=2&times=-1")
        result = ZenesisPipeline().segment_volume_stream(
            tiff_path,
            PROMPT,
            checkpoint_dir=tmp_path / "ck",
            policy=IngestPolicy(on_corrupt="degrade"),
        )
        assert result.n_slices == 3
        assert result.degraded == {1: "degrade:torn", 2: "degrade:flip"}
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["complete"]
        assert manifest["meta"]["degraded"] == {"1": "degrade:torn", "2": "degrade:flip"}

    def test_skip_zeroes_the_slice(self, tiff_path, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1&times=-1")
        result = ZenesisPipeline().segment_volume_stream(
            tiff_path,
            PROMPT,
            checkpoint_dir=tmp_path / "ck",
            policy=IngestPolicy(on_corrupt="skip"),
        )
        assert result.degraded[1] == "skip:torn"
        assert result.n_slices == 3

    def test_degraded_markers_survive_resume(self, tiff_path, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "io_torn@slice=1&times=-1,volume_abort@slice=2"
        )
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            ZenesisPipeline().segment_volume_stream(
                tiff_path,
                PROMPT,
                checkpoint_dir=tmp_path / "ck",
                policy=IngestPolicy(on_corrupt="degrade"),
            )
        monkeypatch.setenv("REPRO_FAULTS", "")
        result = ZenesisPipeline().segment_volume_stream(
            tiff_path,
            PROMPT,
            checkpoint_dir=tmp_path / "ck",
            resume=True,
            policy=IngestPolicy(on_corrupt="degrade"),
        )
        assert result.degraded.get(1) == "degrade:torn"


class TestJobsStreaming:
    def test_streaming_job_end_to_end(self, stream_vol, tiff_path, tmp_path):
        from repro.jobs import JobService

        svc = JobService(tmp_path / "jobs")
        rec = svc.submit_segment_volume_path(tiff_path, PROMPT, on_corrupt="degrade")
        assert svc.runner.run_until_idle() >= 1
        out = svc.result(rec.job_id)
        assert out["state"] == "succeeded"
        result = out["result"]
        assert result["stream"] is True
        eager = ZenesisPipeline().segment_volume(stream_vol, PROMPT)
        assert result["per_slice_coverage"] == pytest.approx(
            [float(m.mean()) for m in eager.masks]
        )
        masks_dir = Path(result["masks_dir"])
        assert sorted(p.name for p in masks_dir.glob("slice_*.npy"))

    def test_streaming_job_degrades_under_faults(self, tiff_path, tmp_path, monkeypatch):
        from repro.jobs import JobService

        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1&times=-1")
        svc = JobService(tmp_path / "jobs")
        rec = svc.submit_segment_volume_path(tiff_path, PROMPT, on_corrupt="degrade")
        svc.runner.run_until_idle()
        out = svc.result(rec.job_id)
        assert out["state"] == "succeeded"
        assert out["result"]["degraded"] == {"1": "degrade:torn"}

    def test_submit_rejects_bad_source(self, tmp_path):
        from repro.errors import JobError
        from repro.jobs import JobService

        svc = JobService(tmp_path / "jobs")
        with pytest.raises(JobError):
            svc.submit_segment_volume_path(tmp_path / "missing.tif", PROMPT)


class TestPlatformStreaming:
    def test_upload_by_path_runs_streaming_job(self, tiff_path, tmp_path):
        from repro.jobs import JobService
        from repro.platform.api import ApiHandler

        svc = JobService(tmp_path / "jobs")
        api = ApiHandler(jobs=svc)
        sid = api.handle({"action": "create_session"})["session_id"]
        loaded = api.handle(
            {"action": "load_file", "session_id": sid, "path": str(tiff_path), "stream": True}
        )
        assert loaded["ok"] and loaded["preview"]["kind"] == "lazy_volume"
        accepted = api.handle(
            {"action": "segment_volume", "session_id": sid, "prompt": PROMPT}
        )
        assert accepted.get("accepted") is True
        svc.runner.run_until_idle()
        out = api.handle(
            {"action": "job_result", "session_id": sid, "job_id": accepted["job_id"]}
        )
        assert out["state"] == "succeeded" and out["result"]["stream"] is True

    def test_sync_mode_on_lazy_volume_rejected(self, tiff_path, tmp_path):
        from repro.jobs import JobService
        from repro.platform.api import ApiHandler

        api = ApiHandler(jobs=JobService(tmp_path / "jobs"))
        sid = api.handle({"action": "create_session"})["session_id"]
        api.handle(
            {"action": "load_file", "session_id": sid, "path": str(tiff_path), "stream": True}
        )
        out = api.handle(
            {"action": "segment_volume", "session_id": sid, "prompt": PROMPT, "mode": "sync"}
        )
        assert not out["ok"] and out["type"] == "ValidationError"

    def test_jobs_disabled_is_structured(self, tiff_path):
        from repro.platform.api import ApiHandler

        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        api.handle(
            {"action": "load_file", "session_id": sid, "path": str(tiff_path), "stream": True}
        )
        out = api.handle({"action": "segment_volume", "session_id": sid, "prompt": PROMPT})
        assert not out["ok"] and out["type"] == "JobError"

    def test_drop_closes_lazy_volume(self, tiff_path):
        from repro.platform.api import ApiHandler

        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        api.handle(
            {"action": "load_file", "session_id": sid, "path": str(tiff_path), "stream": True}
        )
        session = api.store.get(sid)
        lazy = session.lazy_volume
        api.handle({"action": "drop_session", "session_id": sid})
        assert lazy._mm is None  # mmap released


@pytest.mark.skipif(
    os.environ.get("REPRO_IO_SOAK") != "1",
    reason="set REPRO_IO_SOAK=1 for the large streaming soak",
)
class TestSoak:
    def test_large_volume_soak(self, tmp_path, rng):
        n, side = 48, 256
        path = tmp_path / "soak.npy"
        mm = np.lib.format.open_memmap(path, mode="w+", dtype=np.uint8, shape=(n, side, side))
        for z in range(n):
            mm[z] = (rng.random((side, side)) * 255).astype(np.uint8)
        mm.flush()
        del mm
        budget = side * side  # one slice
        result = ZenesisPipeline().segment_volume_stream(
            path,
            PROMPT,
            checkpoint_dir=tmp_path / "ck",
            policy=IngestPolicy(memory_budget_bytes=budget),
        )
        assert result.n_slices == n
        high_water = get_registry().gauge("repro_io_stream_max_resident_bytes").value
        assert high_water <= budget
