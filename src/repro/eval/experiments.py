"""Canonical experiment definitions reproducing the paper's evaluation.

Each ``run_table*`` function assembles the exact protocol behind one of the
paper's tables on the 20-slice benchmark (10 crystalline + 10 amorphous
slices from two synthetic FIB-SEM volumes):

* **Table 1** — Otsu thresholding on robust-normalised slices.
* **Table 2** — SAM-only: unprompted automatic mode, max-confidence mask.
* **Table 3** — Zenesis: text prompt → GroundingDINO → SAM with grounded
  mask selection.

``run_all_tables`` shares one dataset and one evaluator pass so the three
tables are mutually consistent, and returns the `MethodEvaluation` objects
the report/dashboard layers render.  ``PAPER_REFERENCE`` records the
published numbers for EXPERIMENTS.md's paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from ..baselines.otsu import otsu_segment
from ..baselines.sam_only import SamOnlyBaseline, SamOnlyConfig
from ..core.pipeline import ZenesisConfig, ZenesisPipeline
from ..data.datasets import BenchmarkDataset, make_benchmark_dataset
from ..resilience.serving.lifecycle import check_deadline
from .evaluator import Evaluator, MethodEvaluation

__all__ = [
    "DEFAULT_PROMPT",
    "PAPER_REFERENCE",
    "ExperimentSetup",
    "benchmark_request",
    "build_methods",
    "evaluate_benchmark",
    "run_all_tables",
    "run_table",
]

#: The text prompt the Zenesis experiments use.
DEFAULT_PROMPT = "catalyst particles"

#: Published numbers (mean, std) per table/kind/metric, from the paper.
PAPER_REFERENCE: dict[str, dict[str, dict[str, tuple[float, float]]]] = {
    "otsu": {
        "crystalline": {"accuracy": (0.586, 0.125), "iou": (0.161, 0.057), "dice": (0.274, 0.080)},
        "amorphous": {"accuracy": (0.581, 0.019), "iou": (0.407, 0.024), "dice": (0.578, 0.024)},
    },
    "sam_only": {
        # The paper's Table 2 is partially garbled in the text; the
        # crystalline IoU (0.100) and Dice (0.173) come from the prose.
        "crystalline": {"accuracy": (float("nan"), float("nan")), "iou": (0.100, float("nan")), "dice": (0.173, 0.137)},
        "amorphous": {"accuracy": (0.499, 0.160), "iou": (0.405, 0.088), "dice": (0.571, 0.087)},
    },
    "zenesis": {
        "crystalline": {"accuracy": (0.987, 0.005), "iou": (0.857, 0.029), "dice": (0.923, 0.017)},
        "amorphous": {"accuracy": (0.947, 0.005), "iou": (0.858, 0.015), "dice": (0.923, 0.009)},
    },
}

TABLE_METHODS = {"table1": "otsu", "table2": "sam_only", "table3": "zenesis"}


@dataclass
class ExperimentSetup:
    """Shared state for the table experiments."""

    dataset: BenchmarkDataset
    prompt: str = DEFAULT_PROMPT
    zenesis_config: ZenesisConfig = field(default_factory=ZenesisConfig)
    sam_only_config: SamOnlyConfig = field(default_factory=SamOnlyConfig)

    @classmethod
    def default(cls, *, seed: int | None = None, shape: tuple[int, int] = (256, 256), n_slices: int = 10) -> "ExperimentSetup":
        return cls(dataset=make_benchmark_dataset(seed=seed, shape=shape, n_slices=n_slices))


def build_methods(setup: ExperimentSetup) -> dict:
    """The three paper methods as ``image -> mask`` callables."""
    pipeline = ZenesisPipeline(setup.zenesis_config)
    sam_only = SamOnlyBaseline(setup.sam_only_config)

    def zenesis(image: np.ndarray) -> np.ndarray:
        return pipeline.segment_image(image, setup.prompt).mask

    return {
        "otsu": lambda img: otsu_segment(img),
        "sam_only": lambda img: sam_only.segment(img),
        "zenesis": zenesis,
    }


def run_all_tables(setup: ExperimentSetup | None = None) -> dict[str, MethodEvaluation]:
    """Run Tables 1-3 end to end; returns {method: MethodEvaluation}."""
    setup = setup or ExperimentSetup.default()
    evaluator = Evaluator(build_methods(setup))
    return evaluator.evaluate(setup.dataset.slices)


def run_table(table: str, setup: ExperimentSetup | None = None) -> MethodEvaluation:
    """Run a single table experiment ("table1" | "table2" | "table3")."""
    if table not in TABLE_METHODS:
        raise KeyError(f"unknown table {table!r}; expected one of {sorted(TABLE_METHODS)}")
    setup = setup or ExperimentSetup.default()
    method = TABLE_METHODS[table]
    evaluator = Evaluator(build_methods(setup))
    return evaluator.evaluate(setup.dataset.slices, method_names=[method])[method]


def benchmark_request(params: Mapping) -> tuple[list[str], dict]:
    """A Mode C request's methods (``otsu`` unless it names some) and the
    :func:`evaluate_benchmark` keywords it sets (``shape``, ``n_slices``), cast."""
    casts = {"shape": tuple, "n_slices": int}
    options = {name: cast(params[name]) for name, cast in casts.items() if params.get(name) is not None}
    return list(params.get("methods", ("otsu",))), options


def evaluate_benchmark(
    methods: Iterable[str],
    *,
    shape: tuple[int, int] = (128, 128),
    n_slices: int = 3,
    zenesis_config: ZenesisConfig | None = None,
    on_method: Callable[[int, str], None] | None = None,
) -> tuple[dict[str, MethodEvaluation], dict]:
    """Mode C on a built-in benchmark of ``shape`` slices, one method at a time.

    Returns the evaluations and their JSON-safe record ``{method: {kind:
    {metric: summary dict}}}``.  Unknown method names are rejected before
    any method runs.  The current request deadline (a job's guard, in a
    job) is checked before each method, and ``on_method(done, name)``
    fires after each.
    """
    setup = ExperimentSetup(
        dataset=make_benchmark_dataset(shape=tuple(shape), n_slices=n_slices),
        zenesis_config=zenesis_config or ZenesisConfig(),
    )
    evaluator = Evaluator(build_methods(setup))
    evaluations: dict[str, MethodEvaluation] = {}
    for done, name in enumerate(evaluator.check_methods(methods), 1):
        check_deadline(f"evaluate (method {name})")
        evaluations.update(evaluator.evaluate(setup.dataset.slices, method_names=[name]))
        if on_method is not None:
            on_method(done, name)
    record = {
        name: {kind: {m: s.as_dict() for m, s in ev.summary(kind).items()} for kind in ev.kinds()}
        for name, ev in evaluations.items()
    }
    return evaluations, record
