"""Differential matrix: every volume path × engine × start against one golden.

The paths are eager ``segment_volume`` decoding with one or two workers,
``segment_volume_stream`` over a TIFF, a ``segment_volume`` job decoding
with one or two workers, and ``repro batch`` over the TIFF with
``--workers 1`` or ``2``.  The engines are meanbox and propagate.  A run
either starts fresh or resumes a checkpoint its own path left behind when
it was aborted at slice 2 (``repro batch`` has no checkpoint flag, so its
cells start fresh only).  All of them run the one volume driver, so every
cell must reproduce the mask digests pinned in
``tests/test_core_pipeline.py``.  Checkpoints are interchangeable too: one
half-written by any path resumes under the others.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
import time

import numpy as np
import pytest

from repro.cache import array_content_key, combine_keys, config_fingerprint
from repro.cli import main
from repro.core.driver import volume_fingerprint
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.data import make_sample
from repro.errors import PipelineError
from repro.io.lazy import ArrayLazyVolume
from repro.io.tiff import write_tiff
from repro.jobs import SUCCEEDED, JobService
from repro.resilience import EVENTS, reset_events

from .test_core_pipeline import GOLDEN, PROMPT, _golden_volume

PATHS = ("eager", "eager2", "stream", "job1", "job2", "cli1", "cli2")
MODES = ("meanbox", "propagate")
CELLS = [
    (path, mode, start)
    for path in PATHS
    for mode in MODES
    for start in ("fresh", "resumed")
    if start == "fresh" or not path.startswith("cli")
]
ABORT_AT = 2  # the golden volume has 3 slices: an abort leaves shards 0 and 1


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
        job = svc.submit_segment_volume(
            self.volume, PROMPT, temporal_mode=mode, n_workers=int(path[-1])
        )
        return svc, job

    def run(self, path: str, mode: str, ckdir) -> np.ndarray:
        """Run ``path`` to completion, resuming whatever ``ckdir`` holds."""
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode=mode))
        if path.startswith("eager"):
            n_workers = 2 if path == "eager2" else 1
            return pipe.segment_volume(
                self.volume, PROMPT, checkpoint_dir=ckdir, resume=True, n_workers=n_workers
            ).masks
        if path.startswith("cli"):
            out = self.tmp_path / f"{path}.masks.npz"
            argv = ["batch", str(self.tiff), PROMPT, "--out", str(out)]
            assert main([*argv, "--workers", path[-1], "--temporal-mode", mode]) == 0
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
        if path in ("eager", "eager2", "stream"):
            with pytest.raises(PipelineError, match="volume_abort"):
                self.run(path, mode, ckdir)
        else:
            svc, job = self._job(path, mode)
            assert svc.runner.run_until_idle(max_jobs=1) == 1
            assert not svc.store.get(job.job_id).terminal  # a retryable failure
            shutil.copytree(job.checkpoint_dir, ckdir)
        monkeypatch.delenv("REPRO_FAULTS")
        manifest = json.loads((ckdir / "manifest.json").read_text())
        assert manifest["completed"] == list(range(ABORT_AT)) and not manifest["complete"]
        reset_events()


@pytest.fixture()
def paths(volume, tiff, tmp_path) -> Paths:
    return Paths(volume, tiff, tmp_path)


@pytest.mark.parametrize("path,mode,start", CELLS)
def test_matrix_cell_matches_golden(paths, path, mode, start, tmp_path, monkeypatch):
    ckdir = tmp_path / "ck"
    if start == "resumed":
        paths.abort(path, mode, ckdir, monkeypatch)
    masks = paths.run(path, mode, ckdir)
    assert _sha1(masks) == GOLDEN[mode]
    assert EVENTS.get("checkpoint.resumed_slices") == (ABORT_AT if start == "resumed" else 0)


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
    assert EVENTS.get("checkpoint.resumed_slices") == ABORT_AT


def test_pooled_job_forks_safely(tmp_path):
    """Two decode workers over 5 slices: the job finishes within its decode
    timeout (no child inherited a held lock), matches the eager masks, and
    leaves no adapt-ahead thread behind."""
    vol = make_sample("crystalline", seed=0, shape=(96, 96), n_slices=5).volume.voxels
    svc = JobService(tmp_path / "jobs")
    svc.runner.decode_timeout_s = 60.0
    job = svc.submit_segment_volume(vol, PROMPT, n_workers=2)
    outcome = _drain(svc, job.job_id)
    assert outcome["state"] == SUCCEEDED, outcome
    with np.load(outcome["result"]["masks_path"]) as bundle:
        masks = bundle["masks"]
    assert np.array_equal(masks, ZenesisPipeline().segment_volume(vol, PROMPT).masks)
    assert not [t for t in threading.enumerate() if t.name.startswith("repro-adapt-ahead")]


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
