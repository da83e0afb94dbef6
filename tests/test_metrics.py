"""Tests for all segmentation metrics."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.metrics.aggregate import bootstrap_ci, summarize, summarize_records
from repro.metrics.boundary import boundary_f1
from repro.metrics.confusion import (
    accuracy,
    confusion_counts,
    precision,
    recall,
    specificity,
)
from repro.metrics.overlap import dice, iou


@pytest.fixture()
def pair():
    gt = np.zeros((10, 10), dtype=bool)
    gt[2:6, 2:6] = True  # 16 px
    pred = np.zeros((10, 10), dtype=bool)
    pred[3:7, 3:7] = True  # 16 px, 9 overlap
    return pred, gt


class TestConfusion:
    def test_counts(self, pair):
        pred, gt = pair
        c = confusion_counts(pred, gt)
        assert (c.tp, c.fp, c.fn) == (9, 7, 7)
        assert c.tn == 100 - 9 - 7 - 7
        assert c.total == 100

    def test_accuracy(self, pair):
        pred, gt = pair
        assert accuracy(pred, gt) == pytest.approx(0.86)

    def test_precision_recall_symmetric_here(self, pair):
        pred, gt = pair
        assert precision(pred, gt) == recall(pred, gt) == pytest.approx(9 / 16)

    def test_specificity(self, pair):
        pred, gt = pair
        assert specificity(pred, gt) == pytest.approx(77 / 84)

    def test_f1_equals_dice(self, pair):
        pred, gt = pair
        assert confusion_counts(pred, gt).f1 == pytest.approx(dice(pred, gt))

    def test_perfect_prediction(self, pair):
        _, gt = pair
        c = confusion_counts(gt, gt)
        assert c.accuracy == 1.0 and c.precision == 1.0 and c.recall == 1.0

    def test_empty_prediction_degenerate(self, pair):
        _, gt = pair
        c = confusion_counts(np.zeros_like(gt), gt)
        assert c.precision == 0.0  # no positives predicted
        assert c.recall == 0.0


class TestOverlap:
    def test_iou_known(self, pair):
        pred, gt = pair
        assert iou(pred, gt) == pytest.approx(9 / 23)

    def test_dice_known(self, pair):
        pred, gt = pair
        assert dice(pred, gt) == pytest.approx(18 / 32)

    def test_dice_iou_relation(self, pair):
        pred, gt = pair
        i, d = iou(pred, gt), dice(pred, gt)
        assert d == pytest.approx(2 * i / (1 + i))
        assert i == pytest.approx(d / (2 - d))

    def test_empty_vs_empty(self):
        z = np.zeros((5, 5), dtype=bool)
        assert iou(z, z) == 1.0 and dice(z, z) == 1.0

    def test_bounds(self, rng):
        a = rng.random((20, 20)) > 0.5
        b = rng.random((20, 20)) > 0.5
        assert 0.0 <= iou(a, b) <= dice(a, b) <= 1.0


class TestBoundary:
    def test_boundary_f1_tolerance(self):
        a = np.zeros((30, 30), dtype=bool)
        b = np.zeros((30, 30), dtype=bool)
        a[10:20, 10:20] = True
        b[11:21, 10:20] = True  # 1-px shift
        assert boundary_f1(a, b, tolerance_px=2.0) > 0.9
        assert boundary_f1(a, b, tolerance_px=0.5) < 0.9

    def test_boundary_f1_both_empty(self):
        z = np.zeros((5, 5), dtype=bool)
        assert boundary_f1(z, z) == 1.0


class TestAggregate:
    def test_summarize(self):
        s = summarize("iou", [0.5, 0.7, 0.9])
        assert s.mean == pytest.approx(0.7)
        assert s.count == 3
        assert s.minimum == 0.5 and s.maximum == 0.9

    def test_format_paper_style(self):
        s = summarize("iou", [0.5, 0.7, 0.9])
        assert "±" in s.format()

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            summarize("x", [])

    def test_nan_rejected(self):
        with pytest.raises(EvaluationError):
            summarize("x", [0.5, float("nan")])

    def test_summarize_records(self):
        records = [{"iou": 0.4, "dice": 0.5}, {"iou": 0.6, "dice": 0.7}]
        out = summarize_records(records, ["iou", "dice"])
        assert out["iou"].mean == pytest.approx(0.5)
        assert out["dice"].mean == pytest.approx(0.6)

    def test_summarize_records_missing_key(self):
        with pytest.raises(EvaluationError):
            summarize_records([{"iou": 0.4}], ["dice"])

    def test_bootstrap_ci_contains_mean(self):
        vals = [0.6, 0.62, 0.58, 0.61, 0.59, 0.6, 0.63, 0.57]
        lo, hi = bootstrap_ci(vals, rng=1)
        assert lo <= np.mean(vals) <= hi
        assert hi - lo < 0.1

    def test_bootstrap_ci_validates(self):
        with pytest.raises(EvaluationError):
            bootstrap_ci([], rng=1)
        with pytest.raises(EvaluationError):
            bootstrap_ci([1.0], confidence=1.5, rng=1)
