"""Tests for box operations."""

import numpy as np
import pytest

from repro.core.boxes import (
    as_boxes,
    box_area,
    box_iou,
    clip_boxes,
    mask_to_box,
    merge_overlapping,
    pad_box,
    random_boxes,
)
from repro.errors import ValidationError


class TestAsBoxes:
    def test_single_box_promoted(self):
        assert as_boxes([1, 2, 3, 4]).shape == (1, 4)

    def test_empty(self):
        assert as_boxes([]).shape == (0, 4)

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            as_boxes([[3, 2, 3, 4]])


class TestGeometry:
    def test_area(self):
        assert box_area([[0, 0, 4, 5]])[0] == 20

    def test_iou_disjoint(self):
        assert box_iou([[0, 0, 2, 2]], [[5, 5, 7, 7]])[0, 0] == 0.0

    def test_iou_identical(self):
        assert box_iou([[0, 0, 4, 4]], [[0, 0, 4, 4]])[0, 0] == pytest.approx(1.0)

    def test_iou_known_value(self):
        # 2x2 overlap of two 4x4 boxes: 4 / (16+16-4).
        v = box_iou([[0, 0, 4, 4]], [[2, 2, 6, 6]])[0, 0]
        assert v == pytest.approx(4 / 28)

    def test_iou_matrix_shape(self, rng):
        a = np.sort(rng.random((3, 4)) * 10, axis=-1) + [[0, 0, 1, 1]]
        b = np.sort(rng.random((5, 4)) * 10, axis=-1) + [[0, 0, 1, 1]]
        assert box_iou(a, b).shape == (3, 5)


class TestClipPad:
    def test_clip(self):
        out = clip_boxes([[-5, -5, 10, 10]], (8, 8))[0]
        assert out.tolist() == [0, 0, 8, 8]

    def test_clip_collapse_rejected(self):
        with pytest.raises(ValidationError):
            clip_boxes([[20, 20, 30, 30]], (8, 8))

    def test_pad(self):
        out = pad_box([4, 4, 8, 8], 2)
        assert out.tolist() == [2, 2, 10, 10]

    def test_pad_clipped(self):
        out = pad_box([1, 1, 8, 8], 5, image_shape=(10, 10))
        assert out.tolist() == [0, 0, 10, 10]


class TestMerge:
    def test_transitive_merge(self):
        # a-b overlap, b-c overlap, a-c don't: all three merge into one.
        boxes = [[0, 0, 10, 10], [8, 0, 18, 10], [16, 0, 26, 10]]
        merged = merge_overlapping(boxes, iou_threshold=0.05)
        assert merged.shape == (1, 4)
        assert merged[0].tolist() == [0, 0, 26, 10]

    def test_disjoint_preserved(self):
        boxes = [[0, 0, 5, 5], [20, 20, 25, 25]]
        assert merge_overlapping(boxes).shape == (2, 4)

    def test_empty(self):
        assert merge_overlapping(np.zeros((0, 4))).shape == (0, 4)


class TestMaskConversions:
    def test_mask_to_box_tight(self):
        m = np.zeros((10, 10), dtype=bool)
        m[2:5, 3:8] = True
        assert mask_to_box(m).tolist() == [3, 2, 8, 5]

    def test_mask_to_box_empty(self):
        assert mask_to_box(np.zeros((5, 5), dtype=bool)) is None


class TestRandomBoxes:
    def test_count_and_validity(self):
        boxes = random_boxes(20, (64, 64), rng=1)
        assert boxes.shape == (20, 4)
        as_boxes(boxes)  # validates

    def test_full_width_criterion(self):
        # The paper's criterion: width equal to the image size.
        boxes = random_boxes(10, (64, 48), rng=2, full_extent_axis="width")
        assert (boxes[:, 0] == 0).all() and (boxes[:, 2] == 48).all()

    def test_full_height_criterion(self):
        boxes = random_boxes(10, (64, 48), rng=3, full_extent_axis="height")
        assert (boxes[:, 1] == 0).all() and (boxes[:, 3] == 64).all()

    def test_deterministic(self):
        a = random_boxes(5, (32, 32), rng=7)
        b = random_boxes(5, (32, 32), rng=7)
        assert np.array_equal(a, b)

    def test_n_validated(self):
        with pytest.raises(ValidationError):
            random_boxes(0, (32, 32))
