"""Tables 1–3 on a fixed subset, pinned exactly.

The paper's claims are accuracy / IoU / Dice for Otsu, SAM-only and
Zenesis on crystalline and amorphous FIB-SEM slices.  The full 2×10-slice
run lives in ``benchmarks/`` (too slow here); this runs the same
``Evaluator(build_methods(ExperimentSetup.default()))`` protocol on the first
three slices of each kind and pins every mean.  The pipeline is
deterministic, so any drift means an output changed: a refactor that keeps
these numbers kept every mask the three methods produce on these slices.
"""

import pytest

from repro.eval.evaluator import Evaluator
from repro.eval.experiments import ExperimentSetup, build_methods

KINDS = ("crystalline", "amorphous")
N_PER_KIND = 3

#: Subset means per method / kind / metric.
GOLDEN = {
    "otsu": {
        "crystalline": {"accuracy": 0.580505, "iou": 0.162229, "dice": 0.278974},
        "amorphous": {"accuracy": 0.655009, "iou": 0.312112, "dice": 0.471823},
    },
    "sam_only": {
        "crystalline": {"accuracy": 0.427139, "iou": 0.0, "dice": 0.0},
        "amorphous": {"accuracy": 0.884150, "iou": 0.258355, "dice": 0.404950},
    },
    "zenesis": {
        "crystalline": {"accuracy": 0.973211, "iou": 0.743704, "dice": 0.852806},
        "amorphous": {"accuracy": 0.974828, "iou": 0.854041, "dice": 0.920833},
    },
}


@pytest.fixture(scope="module")
def evaluations():
    setup = ExperimentSetup.default()
    slices = [s for kind in KINDS for s in setup.dataset.by_kind(kind)[:N_PER_KIND]]
    return Evaluator(build_methods(setup)).evaluate(slices)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_subset_means_pinned(evaluations, method, kind):
    ev = evaluations[method]
    assert len(ev.by_kind(kind)) == N_PER_KIND
    summary = ev.summary(kind, metrics=("accuracy", "iou", "dice"))
    got = {metric: summary[metric].mean for metric in GOLDEN[method][kind]}
    assert got == pytest.approx(GOLDEN[method][kind], abs=1e-6)


def test_zenesis_beats_both_baselines(evaluations):
    for kind in KINDS:
        zen = evaluations["zenesis"].summary(kind)["iou"].mean
        for other in ("otsu", "sam_only"):
            assert zen > evaluations[other].summary(kind)["iou"].mean + 0.2
