"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.boxes import as_boxes, box_area, box_iou, merge_overlapping
from repro.core.masks import rle_decode, rle_encode, masks_iou, stability_score
from repro.io.png import decode_png, encode_png
from repro.metrics.confusion import confusion_counts
from repro.metrics.overlap import dice, iou
from repro.utils.rng import derive_seed

# Keep examples small: these run on one core.
SETTINGS = settings(max_examples=40, deadline=None)

bool_masks = arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24)))


def _paired_masks():
    shape = st.tuples(st.integers(1, 20), st.integers(1, 20))
    return shape.flatmap(
        lambda s: st.tuples(arrays(np.bool_, st.just(s)), arrays(np.bool_, st.just(s)))
    )


class TestRleProperties:
    @SETTINGS
    @given(mask=bool_masks)
    def test_roundtrip(self, mask):
        assert np.array_equal(rle_decode(rle_encode(mask)), mask)

    @SETTINGS
    @given(mask=bool_masks)
    def test_counts_sum_to_size(self, mask):
        rle = rle_encode(mask)
        assert sum(rle["counts"]) == mask.size


class TestMetricProperties:
    @SETTINGS
    @given(pair=_paired_masks())
    def test_iou_dice_bounds_and_order(self, pair):
        a, b = pair
        i, d = iou(a, b), dice(a, b)
        assert 0.0 <= i <= 1.0
        assert 0.0 <= d <= 1.0
        assert d >= i - 1e-12  # Dice >= IoU always

    @SETTINGS
    @given(pair=_paired_masks())
    def test_iou_symmetry(self, pair):
        a, b = pair
        assert iou(a, b) == pytest.approx(iou(b, a))

    @SETTINGS
    @given(pair=_paired_masks())
    def test_dice_iou_functional_relation(self, pair):
        a, b = pair
        i, d = iou(a, b), dice(a, b)
        assert d == pytest.approx(2 * i / (1 + i), abs=1e-9)

    @SETTINGS
    @given(mask=bool_masks)
    def test_self_iou_is_one(self, mask):
        assert iou(mask, mask) == 1.0

    @SETTINGS
    @given(pair=_paired_masks())
    def test_confusion_counts_partition(self, pair):
        a, b = pair
        c = confusion_counts(a, b)
        assert c.tp + c.fp + c.fn + c.tn == a.size

    @SETTINGS
    @given(pair=_paired_masks())
    def test_accuracy_vs_iou_consistency(self, pair):
        pred, gt = pair
        c = confusion_counts(pred, gt)
        union = c.tp + c.fp + c.fn
        assert c.accuracy == pytest.approx(1.0 - (union - c.tp) / pred.size)

    @SETTINGS
    @given(mask=bool_masks)
    def test_stability_in_unit_interval(self, mask):
        assert 0.0 <= stability_score(mask) <= 1.0

    @SETTINGS
    @given(pair=_paired_masks())
    def test_masks_iou_triangle_with_union(self, pair):
        a, b = pair
        u = a | b
        assert masks_iou(a, u) >= masks_iou(a, b) - 1e-12


_box = st.tuples(
    st.floats(0, 90), st.floats(0, 90), st.floats(2, 100), st.floats(2, 100)
).map(lambda t: [min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]) + 1, max(t[1], t[3]) + 1])

_boxes = st.lists(_box, min_size=1, max_size=12)


class TestBoxProperties:
    @SETTINGS
    @given(boxes=_boxes)
    def test_iou_diag_is_one(self, boxes):
        b = as_boxes(boxes)
        assert np.allclose(np.diag(box_iou(b, b)), 1.0)

    @SETTINGS
    @given(boxes=_boxes)
    def test_iou_symmetric_matrix(self, boxes):
        b = as_boxes(boxes)
        m = box_iou(b, b)
        assert np.allclose(m, m.T)

    @SETTINGS
    @given(boxes=_boxes)
    def test_merge_covers_inputs(self, boxes):
        b = as_boxes(boxes)
        merged = merge_overlapping(b, iou_threshold=0.3)
        # Every original box lies inside some merged box.
        for box in b:
            contained = (
                (merged[:, 0] <= box[0] + 1e-9)
                & (merged[:, 1] <= box[1] + 1e-9)
                & (merged[:, 2] >= box[2] - 1e-9)
                & (merged[:, 3] >= box[3] - 1e-9)
            )
            assert contained.any()

    @SETTINGS
    @given(boxes=_boxes)
    def test_merge_never_increases_count(self, boxes):
        b = as_boxes(boxes)
        assert len(merge_overlapping(b)) <= len(b)

    @SETTINGS
    @given(boxes=_boxes)
    def test_areas_positive(self, boxes):
        assert (box_area(boxes) > 0).all()


class TestCodecProperties:
    @SETTINGS
    @given(
        arr=arrays(
            np.uint8,
            st.tuples(st.integers(1, 16), st.integers(1, 16)),
            elements=st.integers(0, 255),
        )
    )
    def test_png_roundtrip_u8(self, arr):
        assert np.array_equal(decode_png(encode_png(arr)), arr)

    @SETTINGS
    @given(
        arr=arrays(
            np.uint16,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.integers(0, 65535),
        )
    )
    def test_png_roundtrip_u16(self, arr):
        assert np.array_equal(decode_png(encode_png(arr)), arr)


class TestSeedProperties:
    @SETTINGS
    @given(seed=st.integers(0, 2**63), keys=st.lists(st.text(max_size=8), max_size=4))
    def test_derive_seed_stable_and_bounded(self, seed, keys):
        a = derive_seed(seed, *keys)
        b = derive_seed(seed, *keys)
        assert a == b
        assert 0 <= a < 2**64
