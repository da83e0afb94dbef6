"""Segmentation metrics: confusion, overlap, boundary, and aggregation."""

from .aggregate import MetricSummary, bootstrap_ci, summarize, summarize_records
from .boundary import boundary_f1
from .confusion import (
    ConfusionCounts,
    accuracy,
    confusion_counts,
    precision,
    recall,
    specificity,
)
from .overlap import dice, iou

__all__ = [
    "ConfusionCounts",
    "MetricSummary",
    "accuracy",
    "bootstrap_ci",
    "boundary_f1",
    "confusion_counts",
    "dice",
    "iou",
    "precision",
    "recall",
    "specificity",
    "summarize",
    "summarize_records",
]
