"""Golden-trace regression tests.

The span-tree *topology* (names, nesting, whitelisted attributes — never
timings) of a deterministic pipeline run is pinned against a checked-in
golden file.  A refactor that adds, drops, or re-nests spans fails here
until the golden is refreshed with ``pytest --update-golden``.
"""

import json
from pathlib import Path

import pytest

from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.data import make_sample
from repro.observability import end_trace, span_topology, start_trace

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "trace_topology.json"
GOLDEN_PROPAGATE = GOLDEN_DIR / "trace_topology_propagate.json"
PROMPT = "catalyst particles"

#: The propagate path's decisions live in span attributes: which slices were
#: grounded (and why) versus analytically propagated.
PROPAGATE_ATTRS = ("slice", "stage", "worker", "grounded", "reason", "n_objects")


def _capture_topology() -> dict:
    """Trace a small deterministic volume run and reduce it to topology.

    Caching is disabled: cache hits skip work (and therefore spans), so the
    topology would depend on cache state rather than on the code.
    """
    vol = make_sample("crystalline", shape=(64, 64), n_slices=2).volume.voxels
    pipeline = ZenesisPipeline(ZenesisConfig(use_cache=False))
    start_trace("golden")
    try:
        pipeline.segment_volume(vol, PROMPT)
    finally:
        tracer = end_trace()
    return span_topology(tracer.as_dict())


def _capture_propagate_topology() -> dict:
    """Trace a propagate-mode volume run and reduce it to topology.

    The attribute whitelist is wider than the meanbox golden: the keyframe
    decision (grounded / reason) *is* the behaviour being pinned.
    """
    vol = make_sample("crystalline", shape=(64, 64), n_slices=3).volume.voxels
    pipeline = ZenesisPipeline(ZenesisConfig(use_cache=False, temporal_mode="propagate"))
    start_trace("golden-propagate")
    try:
        pipeline.segment_volume(vol, PROMPT)
    finally:
        tracer = end_trace()
    return span_topology(tracer.as_dict(), PROPAGATE_ATTRS)


class TestGoldenTrace:
    def test_topology_matches_golden(self, update_golden):
        topology = _capture_topology()
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            GOLDEN.write_text(json.dumps(topology, indent=1, sort_keys=True) + "\n")
            pytest.skip(f"golden refreshed -> {GOLDEN}")
        assert GOLDEN.exists(), "golden file missing; generate it with: pytest --update-golden"
        golden = json.loads(GOLDEN.read_text())
        assert topology == golden, (
            "span topology drifted from the golden trace; if the change is "
            "intentional refresh it with: pytest --update-golden"
        )

    def test_topology_is_deterministic_across_runs(self):
        assert _capture_topology() == _capture_topology()

    def test_golden_covers_expected_structure(self):
        """Sanity on the checked-in file itself (guards hand-edits)."""
        golden = json.loads(GOLDEN.read_text())
        assert golden["name"] == "golden"
        names = []

        def walk(node):
            names.append(node["name"])
            for child in node.get("children", ()):
                walk(child)

        walk(golden)
        # One pass: each slice's adapt, ground, refine and decode nest under
        # its own slice.segment span.
        assert [c["name"] for c in golden["children"]] == ["volume.segment"]
        slices = golden["children"][0]["children"]
        assert [s["attrs"]["slice"] for s in slices] == [0, 1]
        for s in slices:
            assert s["name"] == "slice.segment"
            assert [c["name"] for c in s["children"]] == [
                "pipeline.adapt",
                "pipeline.ground",
                "temporal.refine",
                "sam.set_image",
                "sam.box_prompts",
                "gate.relevance",
            ]
        assert names.count("slice.prepare") == 0


def _walk_spans(node, out=None):
    out = [] if out is None else out
    out.append(node)
    for child in node.get("children", ()):
        _walk_spans(child, out)
    return out


class TestGoldenPropagateTrace:
    def test_propagate_topology_matches_golden(self, update_golden):
        topology = _capture_propagate_topology()
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            GOLDEN_PROPAGATE.write_text(json.dumps(topology, indent=1, sort_keys=True) + "\n")
            pytest.skip(f"golden refreshed -> {GOLDEN_PROPAGATE}")
        assert GOLDEN_PROPAGATE.exists(), (
            "golden file missing; generate it with: pytest --update-golden"
        )
        golden = json.loads(GOLDEN_PROPAGATE.read_text())
        assert topology == golden, (
            "propagate span topology drifted from the golden trace; if the "
            "change is intentional refresh it with: pytest --update-golden"
        )

    def test_propagate_topology_is_deterministic_across_runs(self):
        assert _capture_propagate_topology() == _capture_propagate_topology()

    def test_propagate_golden_distinguishes_keyframes_from_propagation(self):
        """The pinned trace must make the engine's decisions legible: slice 0
        is a grounded keyframe (reason recorded on a propagate.ground child),
        later slices carry grounded=False and no grounding child."""
        golden = json.loads(GOLDEN_PROPAGATE.read_text())
        spans = _walk_spans(golden)
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert "volume.propagate" in by_name
        slice_spans = by_name["slice.propagate"]
        assert len(slice_spans) == 3
        first = next(s for s in slice_spans if s["attrs"]["slice"] == 0)
        assert first["attrs"]["grounded"] is True
        ground_children = [c for c in first.get("children", ()) if c["name"] == "propagate.ground"]
        assert len(ground_children) == 1
        assert ground_children[0]["attrs"]["reason"] == "initial"
        for s in slice_spans:
            if s["attrs"]["slice"] == 0:
                continue
            assert s["attrs"]["grounded"] is False
            child_names = {c["name"] for c in s.get("children", ())}
            assert "propagate.ground" not in child_names
