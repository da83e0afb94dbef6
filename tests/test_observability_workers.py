"""Worker-span re-parenting: spans recorded inside forked decode workers must
surface under the supervisor's trace with slice and worker attribution —
including when a worker crashes and its partition is recovered by inline
failover."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.observability import end_trace, get_tracer, span_topology, start_trace
from repro.resilience import EVENTS

PROMPT = "catalyst particles"
#: The spans one slice's decode opens, recorded in the worker that decodes it.
DECODE_SPANS = ("sam.set_image", "sam.box_prompts", "gate.relevance")


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _walk(node, out=None):
    """Flatten a topology/span tree to [(name, attrs), ...]."""
    out = out if out is not None else []
    out.append((node["name"], dict(node.get("attrs", {}))))
    for child in node.get("children", ()):
        _walk(child, out)
    return out


def _slice_attrs(flat, name):
    return sorted(attrs["slice"] for n, attrs in flat if n == name and "slice" in attrs)


def _decode_spans(node, z=None):
    """Sorted ``(slice, name)`` of every decode span in a tree.

    A span's slice is its own ``slice`` attribute (adopted worker spans) or
    that of the ``slice.segment`` span enclosing it (inline decode).
    """
    z = node.get("attrs", {}).get("slice", z)
    out = [(z, node["name"])] if node["name"] in DECODE_SPANS else []
    for child in node.get("children", ()):
        out.extend(_decode_spans(child, z))
    return sorted(out)


def _traced_run(vol, n_workers: int, **config):
    start_trace("supervisor")
    try:
        ZenesisPipeline(ZenesisConfig(**config)).segment_volume(vol, PROMPT, n_workers=n_workers)
    finally:
        tracer = end_trace()
    return tracer


def _assert_decode_attribution(flat, n_slices: int) -> None:
    """Each decoded slice's set_image / box_prompts span appears exactly once,
    tagged with its slice and the worker that decoded it."""
    for name in ("sam.set_image", "sam.box_prompts"):
        spans = [attrs for n, attrs in flat if n == name]
        assert sorted(a["slice"] for a in spans) == list(range(n_slices))
        assert all("worker" in a for a in spans)


class TestWorkerSpanAdoption:
    def test_worker_spans_reparented_under_supervisor(self, amorphous_sample):
        vol = amorphous_sample.volume.voxels  # (4, 128, 128)
        tracer = _traced_run(vol, 2, use_cache=False)
        tree = tracer.as_dict()

        (volume,) = tree["children"]
        assert volume["name"] == "volume.segment"
        # Decode subtrees were adopted tagged with their worker id and slice.
        flat = _walk(volume)
        assert {attrs["worker"] for _, attrs in flat if "worker" in attrs} == {0, 1}
        assert _slice_attrs(flat, "slice.segment") == [0, 1, 2, 3]
        _assert_decode_attribution(flat, 4)
        # The same per-slice decode spans as an inline single-worker run.
        serial = _traced_run(vol, 1, use_cache=False).as_dict()
        assert _decode_spans(volume) == _decode_spans(serial)
        # Adopted spans land on distinct chrome-trace lanes per worker.
        tids = {e["tid"] for e in tracer.to_chrome_trace()["traceEvents"]}
        assert {1, 2} <= tids

    def test_no_tracer_means_no_span_transport(self, amorphous_sample):
        vol = amorphous_sample.volume.voxels
        masks = ZenesisPipeline().segment_volume(vol, PROMPT, n_workers=2).masks
        assert get_tracer() is None  # no per-slice tracer was left behind
        assert np.array_equal(masks, ZenesisPipeline().segment_volume(vol, PROMPT).masks)

    def test_failover_spans_adopted_with_slice_attribution(self, monkeypatch, amorphous_sample):
        vol = amorphous_sample.volume.voxels
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash@slice=2")
        failovers_before = EVENTS.get("pool.failovers")
        tracer = _traced_run(vol, 2)
        assert EVENTS.get("pool.failovers") - failovers_before >= 1

        (volume,) = tracer.as_dict()["children"]
        flat = _walk(volume)
        failovers = [attrs for n, attrs in flat if n == "pool.failover"]
        assert failovers and all(f["recovered"] for f in failovers)
        # The recovered partition was re-executed inline in the parent; its
        # spans still arrive via the same transport, so every slice keeps
        # its attribution even though a worker died.
        assert _slice_attrs(flat, "slice.segment") == [0, 1, 2, 3]
        _assert_decode_attribution(flat, 4)

    def test_failover_reexecution_leaves_supervisor_stack_clean(
        self, monkeypatch, amorphous_sample
    ):
        """The inline re-execution pushes/pops its own tracer; the
        supervisor's must be the active one again afterwards."""
        vol = amorphous_sample.volume.voxels
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash@slice=2")
        supervisor = start_trace("supervisor")
        try:
            ZenesisPipeline().segment_volume(vol, PROMPT, n_workers=2)
            assert get_tracer() is supervisor
        finally:
            end_trace()


class TestWorkerSpansSubprocess:
    def test_crashed_run_in_fresh_interpreter_keeps_full_attribution(self, tmp_path):
        """End-to-end in a fresh interpreter (mirrors the resilience
        kill/resume pattern): env-injected worker crash, failover, and the
        final topology written to disk for the parent to assert on."""
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        env["REPRO_FAULTS"] = "worker_crash@slice=2"
        script = (
            "import json, sys\n"
            "from repro.core.pipeline import ZenesisPipeline\n"
            "from repro.data import make_sample\n"
            "from repro.observability import end_trace, span_topology, start_trace\n"
            "from repro.resilience import EVENTS\n"
            "vol = make_sample('amorphous', shape=(96, 96), n_slices=4).volume.voxels\n"
            "start_trace('supervisor')\n"
            f"ZenesisPipeline().segment_volume(vol, {PROMPT!r}, n_workers=2)\n"
            "doc = {'topology': span_topology(end_trace().as_dict()), "
            "'n_failovers': EVENTS.get('pool.failovers')}\n"
            "json.dump(doc, open(sys.argv[1], 'w'))\n"
        )
        out = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        doc = json.loads(out.read_text())
        assert doc["n_failovers"] >= 1
        flat = _walk(doc["topology"])
        names = [n for n, _ in flat]
        assert "pool.failover" in names
        assert _slice_attrs(flat, "slice.segment") == [0, 1, 2, 3]
        _assert_decode_attribution(flat, 4)
        workers = {attrs["worker"] for n, attrs in flat if "worker" in attrs}
        assert workers == {0, 1}
