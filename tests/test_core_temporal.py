"""Tests for the temporal (Fig. 7) heuristic box refinement."""

import numpy as np
import pytest

from repro.core.temporal import (
    RefinementReport,
    TemporalConfig,
    refine_box_sequences,
)
from repro.errors import ValidationError


def _seq(*per_slice):
    return [np.asarray(b, dtype=float).reshape(-1, 4) for b in per_slice]


class TestConfig:
    def test_window_validated(self):
        with pytest.raises(ValidationError):
            TemporalConfig(window=0)

    def test_factor_validated(self):
        with pytest.raises(ValidationError):
            TemporalConfig(size_factor=0.9)


class TestRefine:
    def test_consistent_sequence_untouched(self):
        boxes = _seq([[10, 10, 30, 30]], [[11, 11, 31, 31]], [[12, 12, 32, 32]])
        refined, report = refine_box_sequences(boxes)
        assert report.n_replaced == 0
        for orig, ref in zip(boxes, refined):
            assert np.array_equal(orig, ref)

    def test_oversize_outlier_replaced(self):
        boxes = _seq(
            [[10, 10, 30, 30]],
            [[10, 10, 30, 30]],
            [[0, 0, 200, 200]],  # blew up: 10x the window mean
            [[10, 10, 30, 30]],
        )
        refined, report = refine_box_sequences(boxes, TemporalConfig(size_factor=1.75))
        assert report.n_replaced == 1
        assert report.replacements[0]["slice"] == 2
        assert report.replacements[0]["reason"] == "oversize"
        # Size comes from the window mean (20x20), centre from the outlier.
        fixed = refined[2][0]
        assert fixed[2] - fixed[0] == pytest.approx(20.0)
        assert fixed[3] - fixed[1] == pytest.approx(20.0)
        assert (fixed[0] + fixed[2]) / 2 == pytest.approx(100.0)

    def test_recenter_disabled_uses_mean_box(self):
        boxes = _seq(
            [[10, 10, 30, 30]],
            [[0, 0, 200, 200]],
        )
        refined, report = refine_box_sequences(
            boxes, TemporalConfig(size_factor=1.75, recenter=False)
        )
        assert np.allclose(refined[1][0], [10, 10, 30, 30], atol=1e-6)

    def test_empty_slice_inherits_window_box(self):
        boxes = _seq([[10, 10, 30, 30]], np.zeros((0, 4)), [[10, 10, 30, 30]])
        refined, report = refine_box_sequences(boxes)
        assert len(refined[1]) == 1
        assert report.replacements[0]["reason"] == "empty"

    def test_leading_empty_slices_stay_empty(self):
        boxes = _seq(np.zeros((0, 4)), [[10, 10, 30, 30]])
        refined, report = refine_box_sequences(boxes)
        assert len(refined[0]) == 0  # no history to fall back on

    def test_min_history_counts_only_slices_with_boxes(self):
        # One box-bearing slice before the outlier: with min_history=2 the
        # leading empty slice must not count as history.
        boxes = _seq(np.zeros((0, 4)), [[10, 10, 30, 30]], [[0, 0, 220, 220]])
        refined, report = refine_box_sequences(boxes, TemporalConfig(min_history=2))
        assert report.n_replaced == 0
        assert np.array_equal(refined[2], boxes[2])

    def test_first_slice_never_replaced(self):
        boxes = _seq([[0, 0, 200, 200]], [[10, 10, 30, 30]])
        refined, report = refine_box_sequences(boxes)
        assert np.array_equal(refined[0], boxes[0])

    def test_refined_history_prevents_poisoning(self):
        # Two bad slices in a row: the second must be corrected against the
        # *refined* first (already replaced), not the raw outlier.
        boxes = _seq(
            [[10, 10, 30, 30]],
            [[10, 10, 30, 30]],
            [[0, 0, 220, 220]],
            [[0, 0, 220, 220]],
        )
        refined, report = refine_box_sequences(boxes, TemporalConfig(window=3))
        assert report.n_replaced == 2
        assert refined[3][0][2] - refined[3][0][0] < 50  # stays needle-sized

    def test_coincident_outliers_deduplicated(self):
        # Two outliers with identical centres collapse to one corrected box.
        boxes = _seq(
            [[10, 10, 30, 30]],
            [[0, 0, 200, 200], [0, 0, 200, 200]],
        )
        refined, report = refine_box_sequences(boxes)
        assert report.n_replaced == 2
        assert len(refined[1]) == 1

    def test_normal_boxes_kept_alongside_outlier(self):
        boxes = _seq(
            [[10, 10, 30, 30]],
            [[12, 12, 32, 32], [0, 0, 200, 200]],
        )
        refined, report = refine_box_sequences(boxes)
        assert report.n_replaced == 1
        assert len(refined[1]) == 2

    def test_report_dict(self):
        _, report = refine_box_sequences(_seq([[0, 0, 5, 5]]))
        d = report.as_dict()
        assert d["n_slices"] == 1 and d["n_boxes_in"] == 1
