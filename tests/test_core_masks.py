"""Tests for mask operations (RLE, components, morphology, stability)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage as ndi

from repro.core.masks import (
    clean_mask,
    clean_masks,
    component_containing,
    connected_components,
    dilate,
    erode,
    label,
    mask_boundary,
    masks_iou,
    rle_decode,
    rle_encode,
    stability_score,
)
from repro.errors import ValidationError


class TestRle:
    def test_roundtrip_random(self, rng):
        m = rng.random((17, 23)) > 0.5
        assert np.array_equal(rle_decode(rle_encode(m)), m)

    def test_roundtrip_empty_and_full(self):
        for m in (np.zeros((5, 7), dtype=bool), np.ones((5, 7), dtype=bool)):
            assert np.array_equal(rle_decode(rle_encode(m)), m)

    def test_counts_start_with_background(self):
        m = np.ones((3, 3), dtype=bool)
        rle = rle_encode(m)
        assert rle["counts"][0] == 0  # leading background run of zero

    def test_column_major_convention(self):
        m = np.zeros((2, 3), dtype=bool)
        m[0, 0] = True  # first pixel in column-major order
        assert rle_encode(m)["counts"][0] == 0

    def test_bad_counts_rejected(self):
        with pytest.raises(ValidationError):
            rle_decode({"size": [4, 4], "counts": [3, 3]})

    def test_3d_rejected(self):
        with pytest.raises(ValidationError):
            rle_encode(np.zeros((2, 2, 2), dtype=bool))


class TestComponents:
    def test_sorted_by_area(self):
        m = np.zeros((20, 20), dtype=bool)
        m[1:3, 1:3] = True  # 4 px
        m[10:16, 10:16] = True  # 36 px
        comps = connected_components(m)
        assert len(comps) == 2
        assert comps[0].sum() == 36

    def test_min_area_filter(self):
        m = np.zeros((10, 10), dtype=bool)
        m[0, 0] = True
        m[5:8, 5:8] = True
        assert len(connected_components(m, min_area=5)) == 1

    def test_empty(self):
        assert connected_components(np.zeros((4, 4), dtype=bool)) == []

    def test_component_containing(self):
        m = np.zeros((10, 10), dtype=bool)
        m[0:2, 0:2] = True
        m[5:9, 5:9] = True
        comp = component_containing(m, (6, 6))
        assert comp is not None and comp.sum() == 16

    def test_component_containing_miss(self):
        m = np.zeros((10, 10), dtype=bool)
        m[0:2, 0:2] = True
        assert component_containing(m, (5, 5)) is None
        assert component_containing(m, (50, 50)) is None

    @pytest.mark.parametrize("shape", [(17, 23), (6, 9, 11)])
    def test_label_is_scipy_label(self, shape):
        rng = np.random.default_rng(len(shape))
        for density in (0.1, 0.4, 0.7):
            m = rng.random(shape) < density
            labels, n = label(m)
            ref, ref_n = ndi.label(m)
            assert n == ref_n
            assert labels.dtype == ref.dtype
            np.testing.assert_array_equal(labels, ref)


class TestBoundaryMorphology:
    def test_boundary_of_square(self):
        m = np.zeros((10, 10), dtype=bool)
        m[2:8, 2:8] = True
        b = mask_boundary(m)
        assert b.sum() == 20  # perimeter of 6x6 block
        assert not b[4, 4]

    def test_boundary_empty(self):
        assert not mask_boundary(np.zeros((5, 5), dtype=bool)).any()

    def test_clean_removes_dust(self):
        m = np.zeros((20, 20), dtype=bool)
        m[10:16, 10:16] = True
        m[0, 0] = True  # dust
        out = clean_mask(m, open_radius=0, close_radius=0, min_area=4)
        assert not out[0, 0]
        assert out[12, 12]

    def test_clean_fills_holes(self):
        m = np.zeros((20, 20), dtype=bool)
        m[5:15, 5:15] = True
        m[9:11, 9:11] = False
        out = clean_mask(m, open_radius=0, close_radius=0, fill_holes=True)
        assert out[10, 10]

    def test_opening_removes_thin_bridge(self):
        m = np.zeros((20, 20), dtype=bool)
        m[5:10, 2:8] = True
        m[7, 8:12] = True  # 1-px bridge
        m[5:10, 12:18] = True
        out = clean_mask(m, open_radius=1, close_radius=0)
        assert not out[7, 9]


# -- shift kernels vs scipy.ndimage (the reference) -------------------------------

KERNEL_SETTINGS = settings(max_examples=150, deadline=None)

#: 1×1, 1×N, N×1 and small square-ish shapes; every fill from empty to full.
kernel_shapes = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(2, 16), st.integers(2, 16)),
)
kernel_masks = kernel_shapes.flatmap(
    lambda s: st.one_of(
        arrays(np.bool_, st.just(s)),
        st.just(np.zeros(s, dtype=bool)),
        st.just(np.ones(s, dtype=bool)),
    )
)
iterations = st.integers(1, 4)


def _window_views(mask):
    """The mask itself, a strided view, a transposed view and an interior window."""
    yield mask
    yield mask[::2, ::-1]
    yield mask.T
    if mask.shape[0] > 2 and mask.shape[1] > 2:
        yield mask[1:-1, 1:]


class TestShiftKernels:
    @KERNEL_SETTINGS
    @given(mask=kernel_masks, r=iterations)
    def test_dilate_matches_scipy(self, mask, r):
        for m in _window_views(mask):
            assert np.array_equal(dilate(m, r), ndi.binary_dilation(m, iterations=r))

    @KERNEL_SETTINGS
    @given(mask=kernel_masks, r=iterations)
    def test_erode_matches_scipy_border_zero(self, mask, r):
        for m in _window_views(mask):
            assert np.array_equal(erode(m, r), ndi.binary_erosion(m, iterations=r, border_value=0))

    @KERNEL_SETTINGS
    @given(mask=kernel_masks, r=iterations)
    def test_opening_and_closing_match_scipy(self, mask, r):
        for m in _window_views(mask):
            assert np.array_equal(dilate(erode(m, r), r), ndi.binary_opening(m, iterations=r))
            assert np.array_equal(erode(dilate(m, r), r), ndi.binary_closing(m, iterations=r))

    @KERNEL_SETTINGS
    @given(mask=kernel_masks, r=iterations)
    def test_input_never_mutated(self, mask, r):
        for m in _window_views(mask):
            before = m.copy()
            for op in (dilate, erode):
                out = op(m, r)
                assert np.array_equal(m, before)
                assert not np.shares_memory(out, m)

    @KERNEL_SETTINGS
    @given(mask=kernel_masks)
    def test_clean_mask_matches_scipy(self, mask):
        want = ndi.binary_closing(ndi.binary_opening(mask, iterations=1), iterations=1)
        assert np.array_equal(clean_mask(mask, open_radius=1, close_radius=1), want)

    @KERNEL_SETTINGS
    @given(mask=kernel_masks, r=iterations)
    def test_stability_matches_scipy(self, mask, r):
        union = np.count_nonzero(ndi.binary_dilation(mask, iterations=r))
        inter = np.count_nonzero(ndi.binary_erosion(mask, iterations=r, border_value=0))
        assert stability_score(mask, iterations=r) == (inter / union if union else 0.0)

    def test_three_d_uses_face_neighbours(self, rng):
        m = rng.random((4, 5, 6)) > 0.4
        assert np.array_equal(dilate(m, 2), ndi.binary_dilation(m, iterations=2))
        assert np.array_equal(erode(m, 1), ndi.binary_erosion(m, iterations=1, border_value=0))

    def test_boundary_touches_frame_edge(self):
        m = np.ones((4, 5), dtype=bool)
        assert np.array_equal(mask_boundary(m), m & ~ndi.binary_erosion(m, border_value=0))
        assert mask_boundary(m).sum() == 14  # only the 2x3 interior erodes away

    @pytest.mark.parametrize("op", [dilate, erode])
    @pytest.mark.parametrize("r", [0, -1])
    def test_iterations_below_one_rejected(self, op, r):
        # scipy reads iterations < 1 as "until stable"; the kernels refuse.
        with pytest.raises(ValidationError):
            op(np.ones((5, 5), dtype=bool), r)

    @pytest.mark.parametrize("mask", [np.ones((9, 9), dtype=bool), np.zeros((9, 9), dtype=bool)])
    def test_stability_zero_iterations_rejected(self, mask):
        # Used to return 0.0 silently on any mask.
        with pytest.raises(ValidationError):
            stability_score(mask, iterations=0)

    def test_clean_mask_zero_radius_skips_morphology(self):
        m = np.zeros((6, 6), dtype=bool)
        m[2, 1:5] = True  # a 1-px line an opening would erase
        assert np.array_equal(clean_mask(m, open_radius=0, close_radius=0), m)


def _scipy_clean(mask, open_radius, close_radius, fill_holes, min_area):
    """clean_mask on one plane from scipy.ndimage calls (the reference)."""
    m = mask.copy()
    if open_radius:
        m = ndi.binary_opening(m, iterations=open_radius)
    if close_radius:
        m = ndi.binary_closing(m, iterations=close_radius)
    if fill_holes:
        m = ndi.binary_fill_holes(m)
    if min_area:
        labels, _ = ndi.label(m)
        m &= (np.bincount(labels.ravel()) >= min_area)[labels]
    return m


@st.composite
def _mask_stacks(draw):
    """2–5 planes of one shape; some are full along an edge row or column,
    so a component of one plane sits on the pixels of its neighbours."""
    n = draw(st.integers(2, 5))
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    stack = draw(arrays(np.bool_, (n, h, w)))
    for plane in stack:
        edge = draw(st.sampled_from(["none", "top", "bottom", "left", "right", "frame"]))
        if edge in ("top", "frame"):
            plane[0] = True
        if edge in ("bottom", "frame"):
            plane[-1] = True
        if edge in ("left", "frame"):
            plane[:, 0] = True
        if edge in ("right", "frame"):
            plane[:, -1] = True
    return stack


class TestCleanMasks:
    """clean_masks cleans every plane of a stack exactly as clean_mask does."""

    @settings(max_examples=200, deadline=None)
    @given(
        stack=_mask_stacks(),
        open_radius=st.integers(0, 2),
        close_radius=st.integers(0, 2),
        fill_holes=st.booleans(),
        min_area=st.sampled_from([0, 12]),
    )
    def test_planes_match_clean_mask(self, stack, open_radius, close_radius, fill_holes, min_area):
        kw = dict(
            open_radius=open_radius, close_radius=close_radius, fill_holes=fill_holes, min_area=min_area
        )
        before = stack.copy()
        got = clean_masks(stack, **kw)
        assert np.array_equal(stack, before)
        assert got.shape == stack.shape and got.dtype == bool
        for plane, out in zip(stack, got):
            assert np.array_equal(out, clean_mask(plane, **kw))
            assert np.array_equal(out, _scipy_clean(plane, open_radius, close_radius, fill_holes, min_area))

    def test_dust_is_not_rescued_by_a_neighbouring_plane(self):
        stack = np.zeros((3, 9, 9), dtype=bool)
        stack[0, 2:7, 2:7] = True  # 25 px
        stack[1, 4, 4] = True  # 1 px over plane 0's block and plane 2's
        stack[2, 2:7, 2:7] = True
        got = clean_masks(stack, open_radius=0, close_radius=0, min_area=4)
        assert np.array_equal(got[0], stack[0]) and np.array_equal(got[2], stack[2])
        assert not got[1].any()

    def test_morphology_stays_in_its_plane(self):
        stack = np.zeros((3, 7, 7), dtype=bool)
        stack[1] = True  # a full plane survives opening; its neighbours stay empty
        got = clean_masks(stack, open_radius=1, close_radius=1)
        assert not got[0].any() and not got[2].any()
        assert np.array_equal(got[1], clean_mask(stack[1]))

    def test_needs_a_stack(self):
        with pytest.raises(ValidationError):
            clean_masks(np.ones(5, dtype=bool))


class TestStability:
    def test_large_block_stable(self):
        # erode/dilate IoU of a 30px block at 2 iterations lands near 0.59;
        # what matters is the large gap to thin structures (below).
        m = np.zeros((40, 40), dtype=bool)
        m[5:35, 5:35] = True
        assert 0.55 < stability_score(m) < 0.65

    def test_thin_line_unstable(self):
        m = np.zeros((40, 40), dtype=bool)
        m[20, 5:35] = True
        assert stability_score(m) < 0.1

    def test_empty_zero(self):
        assert stability_score(np.zeros((5, 5), dtype=bool)) == 0.0


class TestMasksIoU:
    def test_identical(self, rng):
        m = rng.random((10, 10)) > 0.5
        assert masks_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert masks_iou(a, b) == 0.0

    def test_both_empty(self):
        z = np.zeros((4, 4), dtype=bool)
        assert masks_iou(z, z) == 0.0  # convention: no union -> 0 here
