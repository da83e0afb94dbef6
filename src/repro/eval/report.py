"""Paper-style table rendering for evaluation results.

Produces exactly the row structure of the paper's Tables 1-3 (sample kind ×
accuracy/IoU/Dice, mean±std cells) as fixed-width text, plus a side-by-side
comparison table.
"""

from __future__ import annotations

from typing import Mapping

from .evaluator import PAPER_METRICS, MethodEvaluation

__all__ = ["paper_table", "comparison_table"]

_LABELS = {"accuracy": "Accuracy", "iou": "IOU", "dice": "Dice"}


def paper_table(evaluation: MethodEvaluation, *, title: str | None = None, digits: int = 3) -> str:
    """One method's table in the paper's format (rows = sample kinds)."""
    title = title if title is not None else f"{evaluation.method}: Average Performance Metrics"
    header = f"{'Sample':<14}" + "".join(f"{_LABELS[m]:>16}" for m in PAPER_METRICS)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for kind in evaluation.kinds():
        summary = evaluation.summary(kind, PAPER_METRICS)
        cells = "".join(f"{summary[m].format(digits):>16}" for m in PAPER_METRICS)
        lines.append(f"{kind.capitalize():<14}" + cells)
    return "\n".join(lines)


def comparison_table(
    evaluations: Mapping[str, MethodEvaluation],
    *,
    metric: str = "iou",
    digits: int = 3,
) -> str:
    """Methods × sample-kinds grid for one metric (who-wins-where view)."""
    methods = list(evaluations)
    kinds: list[str] = []
    for ev in evaluations.values():
        for k in ev.kinds():
            if k not in kinds:
                kinds.append(k)
    header = f"{metric:<14}" + "".join(f"{k.capitalize():>16}" for k in kinds)
    lines = [header, "-" * len(header)]
    for name in methods:
        row = f"{name:<14}"
        for kind in kinds:
            try:
                cell = evaluations[name].summary(kind, [metric])[metric].format(digits)
            except Exception:
                cell = "-"
            row += f"{cell:>16}"
        lines.append(row)
    return "\n".join(lines)
