"""Pixel-level confusion metrics: accuracy, precision, recall, specificity, F1."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.validation import ensure_mask

__all__ = ["ConfusionCounts", "confusion_counts", "accuracy", "precision", "recall", "specificity"]


@dataclass(frozen=True)
class ConfusionCounts:
    """Raw TP/FP/FN/TN pixel counts for one (prediction, ground-truth) pair."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def specificity(self) -> float:
        denom = self.tn + self.fp
        return self.tn / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def confusion_counts(pred, gt) -> ConfusionCounts:
    """Count TP/FP/FN/TN between two same-shape boolean masks."""
    p = ensure_mask(pred, name="pred")
    g = ensure_mask(gt, shape=p.shape, name="gt")
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(np.count_nonzero(~p & ~g))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def accuracy(pred, gt) -> float:
    """Fraction of pixels classified correctly."""
    return confusion_counts(pred, gt).accuracy


def precision(pred, gt) -> float:
    """TP / (TP + FP)."""
    return confusion_counts(pred, gt).precision


def recall(pred, gt) -> float:
    """TP / (TP + FN)."""
    return confusion_counts(pred, gt).recall


def specificity(pred, gt) -> float:
    """TN / (TN + FP)."""
    return confusion_counts(pred, gt).specificity
