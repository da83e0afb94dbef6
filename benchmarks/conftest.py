"""Shared benchmark fixtures: the full paper-scale dataset and evaluations.

The three table experiments share one evaluation pass (as in the paper,
where all methods run over the same 20 slices); figures reuse the same
dataset.  Artifacts (figures, dashboards, reports) are written under
``benchmarks/_artifacts`` for inspection.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.evaluator import Evaluator, MethodEvaluation
from repro.eval.experiments import ExperimentSetup, build_methods

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"


def pytest_configure(config):
    ARTIFACT_DIR.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    ARTIFACT_DIR.mkdir(exist_ok=True)
    return ARTIFACT_DIR


@pytest.fixture(scope="session")
def setup() -> ExperimentSetup:
    """The paper-scale benchmark: 2 volumes × 10 slices at 256²."""
    return ExperimentSetup.default()


@pytest.fixture(scope="session")
def table_evaluations(setup):
    """One shared evaluation pass for Tables 1-3."""
    evaluator = Evaluator(build_methods(setup))
    return evaluator.evaluate(setup.dataset.slices)


#: Full-run (2 kinds × 10 slices at 256²) means per method / kind / metric.
#: The pipeline is deterministic: any drift means an output changed.
FULL_RUN_GOLDEN = {
    "otsu": {
        "crystalline": {"accuracy": 0.576437, "iou": 0.149406, "dice": 0.259659},
        "amorphous": {"accuracy": 0.673680, "iou": 0.335079, "dice": 0.495916},
    },
    "sam_only": {
        "crystalline": {"accuracy": 0.431403, "iou": 0.0, "dice": 0.0},
        "amorphous": {"accuracy": 0.849068, "iou": 0.222799, "dice": 0.352163},
    },
    "zenesis": {
        "crystalline": {"accuracy": 0.972157, "iou": 0.718967, "dice": 0.834516},
        "amorphous": {"accuracy": 0.968793, "iou": 0.828387, "dice": 0.904531},
    },
}


def assert_full_run_golden(ev: MethodEvaluation) -> None:
    """Every accuracy/IoU/Dice mean of ``ev`` equals the pinned full run."""
    for kind, golden in FULL_RUN_GOLDEN[ev.method].items():
        assert len(ev.by_kind(kind)) == 10, kind
        summary = ev.summary(kind, metrics=tuple(golden))
        got = {metric: summary[metric].mean for metric in golden}
        assert got == pytest.approx(golden, abs=1e-6), kind


def check_paper_shape(measured, reference, *, note: str = "") -> list[str]:
    """Compare measured MetricSummary dict vs paper (mean, std) tuples.

    Returns human-readable lines: 'metric: paper X vs measured Y'.  The
    caller asserts orderings; this only formats.
    """
    lines = []
    for metric, (paper_mean, paper_std) in reference.items():
        m = measured[metric]
        lines.append(
            f"  {metric:<10} paper {paper_mean:.3f}±{paper_std if paper_std == paper_std else float('nan'):.3f}"
            f"  measured {m.mean:.3f}±{m.std:.3f} {note}"
        )
    return lines
