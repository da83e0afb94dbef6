"""Held-out quality set: Zenesis IoU on scenes no other run is drawn from.

Three ``make_benchmark_dataset`` seeds other than the default, and the
default seed under a harsher acquisition (``HARSHER_ACQUISITION``).  A
quality change is developed on the bench seeds and judged on the Tables
1-3 run and on this set.  Every mean is pinned: the pipeline is
deterministic, so any drift means a mask moved.
"""

import pytest

from repro.data.datasets import make_benchmark_dataset
from repro.eval.evaluator import Evaluator
from repro.eval.experiments import ExperimentSetup, build_methods
from .conftest import HELDOUT_GOLDEN, HELDOUT_SETS


@pytest.mark.parametrize("case", list(HELDOUT_GOLDEN))
def test_heldout_zenesis_iou(case):
    setup = ExperimentSetup(dataset=make_benchmark_dataset(**HELDOUT_SETS[case]))
    evaluator = Evaluator(build_methods(setup))
    ev = evaluator.evaluate(setup.dataset.slices, method_names=["zenesis"])["zenesis"]
    golden = HELDOUT_GOLDEN[case]
    got = {kind: ev.summary(kind, metrics=("iou",))["iou"].mean for kind in golden}
    print(f"{case}: " + "  ".join(f"{kind} IoU {iou:.6f}" for kind, iou in got.items()))
    assert got == pytest.approx(golden, abs=1e-6)
