"""Differential matrix: every volume path × engine × start against one golden.

The paths are eager ``segment_volume``, ``segment_volume_stream`` over a
TIFF, a ``segment_volume`` job, and ``repro batch`` over the TIFF.  The
engines are meanbox and propagate.  A run either starts fresh, resumes a
checkpoint its own path left behind when it was aborted at slice 2, or
(eager and job) resumes the checkpoint of a subprocess that was killed as
slice 2 began (``repro batch`` has no checkpoint flag, so its cells start
fresh only).  All of them run the one volume driver, so every cell must
reproduce the mask digests pinned in ``tests/test_core_pipeline.py``.
Checkpoints are interchangeable too: one half-written by any path resumes
under the others.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import array_content_key, combine_keys, config_fingerprint
from repro.cli import main
from repro.core.driver import volume_fingerprint
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.errors import PipelineError
from repro.io.lazy import ArrayLazyVolume
from repro.io.tiff import write_tiff
from repro.jobs import SUCCEEDED, JobService
from repro.observability import reset_registry
from repro.resilience import event_count
from repro.resilience.faults import CRASH_EXIT_CODE

from .test_core_pipeline import GOLDEN, PROMPT, _golden_volume

STARTS = {
    "eager": ("fresh", "resumed", "killed"),
    "stream": ("fresh", "resumed"),
    "job1": ("fresh", "resumed", "killed"),
    "cli1": ("fresh",),
}
MODES = ("meanbox", "propagate")
CELLS = [(path, mode, start) for path in STARTS for mode in MODES for start in STARTS[path]]
ABORT_AT = 2  # the golden volume has 3 slices: an abort leaves shards 0 and 1

# Run in a fresh interpreter under REPRO_FAULTS="<kind>@slice=2"; argv is
# (volume .npy, engine, checkpoint dir or jobs dir).
_KILLED_SCRIPTS = {
    "eager": (
        "volume_crash",
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.pipeline import ZenesisConfig, ZenesisPipeline\n"
        "vol_path, mode, ckdir = sys.argv[1:]\n"
        "pipe = ZenesisPipeline(ZenesisConfig(temporal_mode=mode))\n"
        f"pipe.segment_volume(np.load(vol_path), {PROMPT!r}, checkpoint_dir=ckdir)\n",
    ),
    "job1": (
        "job_crash",
        "import sys\n"
        "import numpy as np\n"
        "from repro.jobs import JobService\n"
        "vol_path, mode, jobs_dir = sys.argv[1:]\n"
        "svc = JobService(jobs_dir)\n"
        f"job = svc.submit_segment_volume(np.load(vol_path), {PROMPT!r}, temporal_mode=mode)\n"
        "print(job.checkpoint_dir, flush=True)\n"
        "svc.runner.run_until_idle()\n",
    ),
}


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture(scope="module")
def volume() -> np.ndarray:
    return _golden_volume()


@pytest.fixture()
def tiff(volume, tmp_path):
    path = tmp_path / "golden.tif"
    write_tiff(path, volume)
    return path


def _sha1(masks: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(masks, dtype=bool).tobytes()).hexdigest()


def _drain(svc: JobService, job_id: str) -> dict:
    """Run the queue until ``job_id`` is terminal (retries wait out a backoff)."""
    give_up = time.monotonic() + 300
    while not svc.store.get(job_id).terminal and time.monotonic() < give_up:
        if svc.runner.run_until_idle() == 0:
            time.sleep(0.05)
    return svc.result(job_id)


class Paths:
    """Runs one path over a checkpoint directory of the caller's choosing."""

    def __init__(self, volume, tiff, tmp_path) -> None:
        self.volume = volume
        self.tiff = tiff
        self.tmp_path = tmp_path
        self._services = 0

    def _job(self, path: str, mode: str):
        self._services += 1
        svc = JobService(self.tmp_path / f"jobs{self._services}")
        job = svc.submit_segment_volume(self.volume, PROMPT, temporal_mode=mode)
        return svc, job

    def run(self, path: str, mode: str, ckdir) -> np.ndarray:
        """Run ``path`` to completion, resuming whatever ``ckdir`` holds."""
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode=mode))
        if path == "eager":
            return pipe.segment_volume(self.volume, PROMPT, checkpoint_dir=ckdir, resume=True).masks
        if path == "cli1":
            out = self.tmp_path / f"{path}.masks.npz"
            argv = ["batch", str(self.tiff), PROMPT, "--out", str(out)]
            assert main([*argv, "--temporal-mode", mode]) == 0
            with np.load(out) as bundle:
                return bundle["masks"]
        if path == "stream":
            result = pipe.segment_volume_stream(self.tiff, PROMPT, checkpoint_dir=ckdir, resume=True)
            return result.assemble_masks()
        svc, job = self._job(path, mode)
        if ckdir.exists():
            shutil.copytree(ckdir, job.checkpoint_dir, dirs_exist_ok=True)
        outcome = _drain(svc, job.job_id)
        assert outcome["state"] == SUCCEEDED, outcome
        with np.load(outcome["result"]["masks_path"]) as bundle:
            return bundle["masks"]

    def abort(self, path: str, mode: str, ckdir, monkeypatch) -> None:
        """Leave a checkpoint in ``ckdir`` from ``path`` aborted at slice 2."""
        monkeypatch.setenv("REPRO_FAULTS", f"volume_abort@slice={ABORT_AT}")
        if path in ("eager", "stream"):
            with pytest.raises(PipelineError, match="volume_abort"):
                self.run(path, mode, ckdir)
        else:
            svc, job = self._job(path, mode)
            assert svc.runner.run_until_idle(max_jobs=1) == 1
            assert not svc.store.get(job.job_id).terminal  # a retryable failure
            shutil.copytree(job.checkpoint_dir, ckdir)
        monkeypatch.delenv("REPRO_FAULTS")
        self._check_partial(ckdir)

    def kill(self, path: str, mode: str, ckdir) -> None:
        """Leave a checkpoint in ``ckdir`` from ``path`` run in a subprocess
        that hard-exits as slice 2 begins."""
        kind, script = _KILLED_SCRIPTS[path]
        vol_path = self.tmp_path / "volume.npy"
        np.save(vol_path, self.volume)
        target = ckdir if path == "eager" else self.tmp_path / "killed-jobs"
        src = Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "REPRO_FAULTS": f"{kind}@slice={ABORT_AT}"}
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        killed = subprocess.run(
            [sys.executable, "-c", script, str(vol_path), mode, str(target)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert killed.returncode == CRASH_EXIT_CODE, killed.stderr.decode()
        if path != "eager":
            shutil.copytree(killed.stdout.decode().strip(), ckdir)
        self._check_partial(ckdir)

    @staticmethod
    def _check_partial(ckdir) -> None:
        manifest = json.loads((ckdir / "manifest.json").read_text())
        assert manifest["completed"] == list(range(ABORT_AT)) and not manifest["complete"]
        reset_registry()


@pytest.fixture()
def paths(volume, tiff, tmp_path) -> Paths:
    return Paths(volume, tiff, tmp_path)


@pytest.mark.parametrize("path,mode,start", CELLS)
def test_matrix_cell_matches_golden(paths, path, mode, start, tmp_path, monkeypatch):
    ckdir = tmp_path / "ck"
    if start == "resumed":
        paths.abort(path, mode, ckdir, monkeypatch)
    elif start == "killed":
        paths.kill(path, mode, ckdir)
    masks = paths.run(path, mode, ckdir)
    assert _sha1(masks) == GOLDEN[mode]
    assert event_count("checkpoint.resumed_slices") == (0 if start == "fresh" else ABORT_AT)


INTERCHANGE = [
    ("eager", "stream"),
    ("eager", "job1"),
    ("stream", "eager"),
    ("stream", "job1"),
    ("job1", "eager"),
    ("job1", "stream"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("writer,reader", INTERCHANGE)
def test_checkpoint_interchange(paths, writer, reader, mode, tmp_path, monkeypatch):
    ckdir = tmp_path / "ck"
    paths.abort(writer, mode, ckdir, monkeypatch)
    masks = paths.run(reader, mode, ckdir)
    assert _sha1(masks) == GOLDEN[mode]
    assert event_count("checkpoint.resumed_slices") == ABORT_AT


def test_journaled_n_workers_param_still_runs(volume, tmp_path):
    """A job journaled with the retired ``n_workers`` decode-process param
    runs, after a restart, to the golden masks."""
    snap = tmp_path / "volume.npy"
    np.save(snap, volume)
    params = {"prompt": PROMPT, "temporal": True, "temporal_mode": "meanbox", "n_workers": 2}
    job = JobService(tmp_path / "jobs").submit("segment_volume", params, input_path=str(snap))
    outcome = _drain(JobService(tmp_path / "jobs"), job.job_id)
    assert outcome["state"] == SUCCEEDED, outcome
    with np.load(outcome["result"]["masks_path"]) as bundle:
        assert _sha1(bundle["masks"]) == GOLDEN["meanbox"]


@pytest.mark.parametrize("dtype", ["<u2", ">u2", "<f4"])
def test_array_fingerprint_is_its_content_key(dtype):
    """An eager array's checkpoint identity is built on its array_content_key,
    byte order included, the key eager and job checkpoints have always used."""
    arr = np.arange(2 * 3 * 4).reshape(2, 3, 4).astype(dtype)
    config = ZenesisConfig()
    expected = combine_keys(
        array_content_key(arr), repr(PROMPT), config_fingerprint(config), "temporal=True"
    )
    assert volume_fingerprint(ArrayLazyVolume(arr), PROMPT, config, "temporal=True") == expected
