"""Mode C: quantitative evaluation of segmentation methods over datasets.

An :class:`Evaluator` runs named methods (``image -> bool mask`` callables)
over a :class:`~repro.data.datasets.BenchmarkDataset` (or any iterable of
annotated slices), computing the paper's metrics (accuracy / IoU / Dice)
plus precision, recall, and boundary F1 at both granularities the paper's
dashboard offers: per sample and per dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from ..data.datasets import AnnotatedSlice
from ..errors import EvaluationError
from ..metrics.aggregate import MetricSummary, summarize_records
from ..metrics.boundary import boundary_f1
from ..metrics.confusion import confusion_counts
from ..metrics.overlap import dice, iou
from ..observability.metrics import get_registry
from ..observability.trace import trace
from ..utils.timing import Timer

__all__ = ["SampleEvaluation", "MethodEvaluation", "Evaluator", "PAPER_METRICS", "evaluate_mask"]

#: Metric columns in the order the paper's tables print them.
PAPER_METRICS = ("accuracy", "iou", "dice")

#: Everything the evaluator computes per sample.
ALL_METRICS = ("accuracy", "iou", "dice", "precision", "recall", "boundary_f1")

SegmentFn = Callable[[np.ndarray], np.ndarray]


def evaluate_mask(pred: np.ndarray, gt: np.ndarray) -> dict[str, float]:
    """All per-sample metrics for one (prediction, ground truth) pair."""
    counts = confusion_counts(pred, gt)
    return {
        "accuracy": counts.accuracy,
        "iou": iou(pred, gt),
        "dice": dice(pred, gt),
        "precision": counts.precision,
        "recall": counts.recall,
        "boundary_f1": boundary_f1(pred, gt),
    }


@dataclass(frozen=True)
class SampleEvaluation:
    """Metrics for one method on one slice."""

    method: str
    sample_name: str
    sample_kind: str
    metrics: dict[str, float]
    wall_s: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "sample": self.sample_name,
            "kind": self.sample_kind,
            "wall_s": self.wall_s,
            **self.metrics,
        }


@dataclass
class MethodEvaluation:
    """All per-sample results for one method, with grouped summaries."""

    method: str
    samples: list[SampleEvaluation] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[SampleEvaluation]:
        return [s for s in self.samples if s.sample_kind == kind]

    def kinds(self) -> list[str]:
        seen: list[str] = []
        for s in self.samples:
            if s.sample_kind not in seen:
                seen.append(s.sample_kind)
        return seen

    def summary(self, kind: str | None = None, metrics: Iterable[str] = ALL_METRICS) -> dict[str, MetricSummary]:
        rows = self.samples if kind is None else self.by_kind(kind)
        if not rows:
            raise EvaluationError(f"no samples for method {self.method!r}, kind {kind!r}")
        return summarize_records([s.metrics for s in rows], list(metrics))

    def mean_wall_s(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean([s.wall_s for s in self.samples]))


class Evaluator:
    """Runs methods over annotated slices and aggregates results."""

    def __init__(self, methods: Mapping[str, SegmentFn]) -> None:
        if not methods:
            raise EvaluationError("Evaluator needs at least one method")
        self.methods = dict(methods)

    def check_methods(self, names: Iterable[str]) -> list[str]:
        """``names`` as a list; raises if any is not a registered method."""
        names = list(names)
        unknown = [n for n in names if n not in self.methods]
        if unknown:
            raise EvaluationError(f"unknown methods {unknown}; registered: {sorted(self.methods)}")
        return names

    def evaluate(
        self,
        slices: Iterable[AnnotatedSlice],
        *,
        method_names: Iterable[str] | None = None,
    ) -> dict[str, MethodEvaluation]:
        """Evaluate (a subset of) methods over the given slices."""
        names = self.check_methods(method_names if method_names is not None else self.methods)
        slices = list(slices)
        if not slices:
            raise EvaluationError("no slices to evaluate")
        out: dict[str, MethodEvaluation] = {name: MethodEvaluation(method=name) for name in names}
        registry = get_registry()
        for sl in slices:
            raw = sl.image.pixels
            for name in names:
                with trace("eval.method", method=name, sample=sl.name), Timer() as t:
                    pred = self.methods[name](raw)
                registry.histogram("repro_eval_method_seconds", method=name).observe(t.elapsed)
                pred = np.asarray(pred, dtype=bool)
                if pred.shape != sl.gt_mask.shape:
                    raise EvaluationError(
                        f"method {name!r} returned shape {pred.shape}, expected {sl.gt_mask.shape}"
                    )
                out[name].samples.append(
                    SampleEvaluation(
                        method=name,
                        sample_name=sl.name,
                        sample_kind=sl.sample_kind,
                        metrics=evaluate_mask(pred, sl.gt_mask),
                        wall_s=t.elapsed,
                    )
                )
        return out
