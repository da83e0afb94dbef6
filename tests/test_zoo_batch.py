"""Folder-scale batch orchestration: discovery, durable jobs, crash recovery.

The subprocess test at the bottom exercises a *real* SIGKILL-equivalent death
mid-ensemble (``REPRO_FAULTS=job_crash@member=0`` hard-exits the worker) and
asserts the rerun resumes to bit-identical fused masks with no duplicate jobs.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.data import make_sample
from repro.errors import EmptyBatchError, JobError, UnknownPresetError, ZooError
from repro.io.volume_io import export_volume_tiff
from repro.jobs import JobService
from repro.platform.api import ApiHandler
from repro.zoo import (
    collect_report,
    discover_volumes,
    in_plane_pixel_size_nm,
    run_batch,
    submit_batch,
)

PRESET = "crystalline_catalyst"


def _make_batch_dir(root: Path, n: int = 3, shape=(48, 48), n_slices: int = 2) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    kinds = ["crystalline", "amorphous", "crystalline"]
    for i in range(n):
        sample = make_sample(kinds[i % len(kinds)], seed=i, shape=shape, n_slices=n_slices)
        export_volume_tiff(root / f"vol{i}.tiff", sample.volume.voxels, voxel_size_nm=(5.0, 5.0))
    return root


@pytest.fixture()
def batch_dir(tmp_path):
    return _make_batch_dir(tmp_path / "volumes")


# -- discovery -----------------------------------------------------------------


class TestDiscovery:
    def test_finds_volumes_with_metadata(self, batch_dir):
        volumes, skipped = discover_volumes(batch_dir)
        assert [v["name"] for v in volumes] == ["vol0.tiff", "vol1.tiff", "vol2.tiff"]
        assert skipped == []
        for vol in volumes:
            assert vol["n_slices"] == 2
            assert vol["pixel_size_nm"] == 5.0
            assert len(vol["content_key"]) == 40

    def test_skips_hidden_json_and_corrupt_entries(self, batch_dir):
        (batch_dir / ".repro-jobs").mkdir()
        (batch_dir / "zoo.json").write_text("{}")
        (batch_dir / "broken.tiff").write_bytes(b"not a tiff at all")
        volumes, skipped = discover_volumes(batch_dir)
        assert len(volumes) == 3
        assert [name for name, _ in skipped] == ["broken.tiff"]

    def test_empty_dir_is_structured_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.json").write_text("{}")  # only skippable entries
        with pytest.raises(EmptyBatchError) as exc_info:
            discover_volumes(empty)
        assert exc_info.value.skipped == ()

    def test_all_corrupt_dir_reports_skips(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "a.tiff").write_bytes(b"junk")
        with pytest.raises(EmptyBatchError) as exc_info:
            discover_volumes(bad)
        assert [name for name, _ in exc_info.value.skipped] == ["a.tiff"]

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(ZooError):
            discover_volumes(tmp_path / "nope")

    def test_pixel_size_parsing(self):
        assert in_plane_pixel_size_nm(None) is None
        assert in_plane_pixel_size_nm({}) is None
        assert in_plane_pixel_size_nm({"pixel_size_nm": 5.0}) == 5.0
        assert in_plane_pixel_size_nm({"pixel_size_nm": [4.0, 6.0]}) == 5.0
        assert in_plane_pixel_size_nm({"pixel_size_nm": [10.0, 4.0, 6.0]}) == 5.0  # (z, y, x)
        assert in_plane_pixel_size_nm({"pixel_size_nm": 0.0}) is None


# -- submission ----------------------------------------------------------------


class TestSubmission:
    def test_submit_is_idempotent(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        first = submit_batch(svc, batch_dir, PRESET)
        assert first["jobs"] == {"new": 3, "reused": 0, "total": 3}
        assert first["preset"] == PRESET
        again = submit_batch(svc, batch_dir, PRESET)
        assert again["jobs"] == {"new": 0, "reused": 3, "total": 3}
        assert [f["job_id"] for f in again["files"]] == [f["job_id"] for f in first["files"]]
        assert again["batch_id"] == first["batch_id"]
        # manifest persisted
        manifest_path = svc.store.root / "batches" / f"{first['batch_id']}.json"
        assert json.loads(manifest_path.read_text())["batch_id"] == first["batch_id"]

    def test_modes_get_distinct_jobs(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        best = submit_batch(svc, batch_dir, PRESET)
        ens = submit_batch(svc, batch_dir, PRESET, mode="ensemble")
        assert best["batch_id"] != ens["batch_id"]
        assert ens["jobs"]["new"] == 3  # different zoo_key per mode
        assert len(svc.store.list_jobs()) == 6

    def test_unknown_preset_rejected(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        with pytest.raises(UnknownPresetError):
            submit_batch(svc, batch_dir, "not_a_preset")
        assert svc.store.list_jobs() == []

    def test_ensemble_stream_rejected(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        with pytest.raises(JobError, match="streaming"):
            submit_batch(svc, batch_dir, PRESET, mode="ensemble", stream=True)

    def test_manifest_records_suggestions_and_fingerprints(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        manifest = submit_batch(svc, batch_dir, PRESET)
        assert PRESET in manifest["suggested_presets"]["vol0.tiff"]
        assert len(manifest["preset_fingerprint"]) == 12
        assert len(manifest["registry_fingerprint"]) == 12


# -- end-to-end drain ----------------------------------------------------------


class TestRunBatch:
    def test_best_mode_completes_with_report(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        report = run_batch(svc, batch_dir, PRESET, timeout_s=600.0)
        assert report["ok"] and report["by_state"] == {"succeeded": 3}
        for row in report["files"]:
            assert row["state"] == "succeeded"
            assert 0.0 < row["volume_fraction"] < 1.0
            assert Path(row["masks_path"]).exists()
        pct = report["percentiles"]
        assert pct["file_wall_s"]["p50"] <= pct["file_wall_s"]["p99"]
        assert 0.0 < pct["file_coverage"]["p50"] < 1.0
        report_path = svc.store.root / "batches" / f"{report['batch_id']}.report.json"
        assert json.loads(report_path.read_text())["ok"] is True

    def test_ensemble_mode_fuses_members(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        report = run_batch(
            svc, batch_dir, PRESET, mode="ensemble", ensemble={"size": 2}, timeout_s=600.0
        )
        assert report["ok"]
        for row in report["files"]:
            members = row["ensemble"]["members"]
            assert len(members) == 2
            assert any(m["accepted"] for m in members)
            assert row["ensemble"]["fallback"] is False

    def test_rerun_reuses_finished_jobs(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        first = run_batch(svc, batch_dir, PRESET, timeout_s=600.0)
        t0 = time.monotonic()
        second = run_batch(svc, batch_dir, PRESET, timeout_s=600.0)
        assert time.monotonic() - t0 < 30  # attach, not recompute
        assert [f["job_id"] for f in second["files"]] == [f["job_id"] for f in first["files"]]
        assert [f["masks_key"] for f in second["files"]] == [
            f["masks_key"] for f in first["files"]
        ]
        assert len(svc.store.list_jobs()) == 3  # no duplicates


# -- CLI -----------------------------------------------------------------------


class TestCli:
    def test_zoo_list_and_show(self, capsys):
        assert main(["zoo", "list", "--pixel-size-nm", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert PRESET in [p["name"] for p in doc["presets"]]
        assert PRESET in doc["suggested"]
        assert main(["zoo", "show", PRESET]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["name"] == PRESET and len(shown["fingerprint"]) == 12

    def test_zoo_show_unknown_is_structured(self, capsys):
        assert main(["zoo", "show", "not_a_preset"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "UnknownPresetError"
        assert PRESET in err["known"]

    def test_batch_dir_requires_task(self, batch_dir, capsys):
        assert main(["batch", str(batch_dir)]) == 2
        assert "--task" in capsys.readouterr().err

    def test_batch_empty_dir_structured_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty), "--task", PRESET]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "EmptyBatchError"

    def test_batch_unknown_preset_structured_error(self, batch_dir, capsys):
        assert main(["batch", str(batch_dir), "--task", "nope"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "UnknownPresetError"

    def test_batch_submit_only_then_drain(self, batch_dir, capsys):
        rc = main(["batch", str(batch_dir), "--task", PRESET, "--submit-only"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["jobs"]["new"] == 3
        assert (batch_dir / ".repro-jobs").is_dir()  # default jobs dir
        rc = main(["batch", str(batch_dir), "--task", PRESET])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["by_state"] == {"succeeded": 3}

    def test_jobs_submit_zoo_segment(self, batch_dir, tmp_path, capsys):
        jobs_dir = tmp_path / "jobs"
        rc = main(
            [
                "jobs",
                "--jobs-dir",
                str(jobs_dir),
                "submit",
                "zoo_segment",
                "--path",
                str(batch_dir / "vol0.tiff"),
                "--preset",
                PRESET,
                "--run",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "succeeded" in out

    def test_jobs_submit_zoo_segment_unknown_preset(self, batch_dir, tmp_path, capsys):
        rc = main(
            [
                "jobs",
                "--jobs-dir",
                str(tmp_path / "jobs"),
                "submit",
                "zoo_segment",
                "--path",
                str(batch_dir / "vol0.tiff"),
                "--preset",
                "nope",
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "UnknownPresetError"

    def test_jobs_submit_zoo_segment_needs_path_and_preset(self, tmp_path, capsys):
        rc = main(["jobs", "--jobs-dir", str(tmp_path / "jobs"), "submit", "zoo_segment"])
        assert rc == 2


# -- platform API --------------------------------------------------------------


class TestPlatformZoo:
    def test_zoo_list_show_and_unknown(self):
        api = ApiHandler()
        listed = api.handle({"action": "zoo_list", "pixel_size_nm": 5.0})
        assert listed["ok"] and PRESET in listed["zoo"]["suggested"]
        shown = api.handle({"action": "zoo_show", "preset": PRESET})
        assert shown["ok"] and shown["preset"]["name"] == PRESET
        unknown = api.handle({"action": "zoo_show", "preset": "nope"})
        assert unknown == {
            "ok": False,
            "type": "UnknownPresetError",
            "error": unknown["error"],
            "known": unknown["known"],  # the same record the CLI prints
        }
        assert "known presets" in unknown["error"] and PRESET in unknown["known"]

    def test_job_submit_zoo_segment(self, batch_dir, tmp_path):
        svc = JobService(tmp_path / "jobs")
        api = ApiHandler(jobs=svc)
        first = api.handle(
            {
                "action": "job_submit",
                "kind": "zoo_segment",
                "path": str(batch_dir / "vol0.tiff"),
                "preset": PRESET,
            }
        )
        assert first["ok"] and first["accepted"] and first["created"]
        again = api.handle(
            {
                "action": "job_submit",
                "kind": "zoo_segment",
                "path": str(batch_dir / "vol0.tiff"),
                "preset": PRESET,
            }
        )
        assert again["job_id"] == first["job_id"] and not again["created"]
        bad = api.handle(
            {
                "action": "job_submit",
                "kind": "zoo_segment",
                "path": str(batch_dir / "vol0.tiff"),
                "preset": "nope",
            }
        )
        assert not bad["ok"] and bad["type"] == "UnknownPresetError"


# -- real process death --------------------------------------------------------


def _subprocess_env() -> dict:
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env.pop("REPRO_FAULTS", None)
    return env


class TestBatchCrashRecovery:
    def test_sigkill_mid_ensemble_resumes_bit_identical(self, tmp_path):
        """SIGKILL after the first ensemble member of the first file: the
        rerun adopts the dead worker's lease, resumes member checkpoints,
        and the fused masks match an uninterrupted baseline run exactly."""
        batch_root = _make_batch_dir(tmp_path / "volumes")
        jobs_dir = tmp_path / "jobs"
        script = (
            "import sys\n"
            "from repro.jobs import JobService\n"
            "from repro.zoo import run_batch\n"
            "svc = JobService(sys.argv[1], lease_ttl_s=1.0)\n"
            f"run_batch(svc, sys.argv[2], {PRESET!r}, mode='ensemble', "
            "ensemble={'size': 2}, timeout_s=600.0)\n"
            "print('unreachable')\n"
        )
        killed = subprocess.run(
            [sys.executable, "-c", script, str(jobs_dir), str(batch_root)],
            env={**_subprocess_env(), "REPRO_FAULTS": "job_crash@member=0"},
            capture_output=True,
            timeout=600,
        )
        assert killed.returncode == 137, killed.stderr.decode()
        assert b"unreachable" not in killed.stdout

        svc = JobService(jobs_dir, lease_ttl_s=1.0)
        jobs = svc.store.list_jobs()
        assert len(jobs) == 3  # the batch was fully submitted before death
        # member 0 of the first-running job was checkpointed before the kill
        shards = list(jobs_dir.glob("checkpoints/*/member_00/slice_*.npy"))
        assert shards, "no member checkpoint shards survived the kill"

        report = run_batch(
            svc, batch_root, PRESET, mode="ensemble", ensemble={"size": 2}, timeout_s=600.0
        )
        assert report["ok"], report["by_state"]
        assert len(svc.store.list_jobs()) == 3  # resumed, not duplicated
        interrupted = {row["name"]: row["masks_key"] for row in report["files"]}
        attempts = {row["name"]: row["attempts"] for row in report["files"]}
        assert max(attempts.values()) >= 2  # at least one job really died

        baseline_svc = JobService(tmp_path / "jobs-baseline", lease_ttl_s=30.0)
        baseline = run_batch(
            baseline_svc, batch_root, PRESET, mode="ensemble", ensemble={"size": 2},
            timeout_s=600.0,
        )
        assert {row["name"]: row["masks_key"] for row in baseline["files"]} == interrupted
