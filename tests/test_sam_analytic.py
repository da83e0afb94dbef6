"""Tests for the analytic mask head — SAM's functional backend."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage as ndi

from repro.core.boxes import clip_boxes, pad_box
from repro.core.masks import clean_mask, masks_iou
from repro.core.pipeline import ZenesisPipeline
from repro.data import make_sample
from repro.data.synthesis.phantoms import disk_phantom, two_phase_phantom
from repro.errors import PromptError
from repro.models.sam.analytic import (
    OTSU_BINS,
    RING_WIDTH,
    STABILITY_ITERATIONS,
    AnalyticMaskHead,
    _median,
    _otsu_threshold_float,
    _percentiles,
)


@pytest.fixture(scope="module")
def head():
    return AnalyticMaskHead()


class TestContext:
    def test_prepare_fields(self, head, rng):
        img = rng.random((32, 32)).astype(np.float32)
        ctx = head.prepare(img)
        assert ctx.smooth.shape == img.shape
        assert ctx.tophat.shape == img.shape
        assert ctx.noise_sigma > 0
        assert 0.0 <= ctx.otsu_threshold <= 1.0

    def test_requires_2d(self, head):
        with pytest.raises(PromptError):
            head.prepare(np.zeros((4, 4, 3), dtype=np.float32))

    def test_otsu_float_bimodal(self):
        vals = np.concatenate([np.full(500, 0.2), np.full(500, 0.8)])
        t = _otsu_threshold_float(vals)
        assert 0.25 < t < 0.75


def _histogram_otsu(values: np.ndarray) -> float:
    """Otsu over ``np.histogram``'s bins: the implementation the bincount one replaced."""
    hist, edges = np.histogram(np.clip(values, 0.0, 1.0), bins=OTSU_BINS, range=(0.0, 1.0))
    p = hist.astype(np.float64)
    total = p.sum()
    if total == 0:
        return 0.5
    p /= total
    centers = (edges[:-1] + edges[1:]) / 2.0
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * centers)
    w1 = 1.0 - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        between = np.nan_to_num((m0[-1] * w0 - m0) ** 2 / (w0 * w1))
    plateau = np.nonzero(between >= between.max() - 1e-12)[0]
    return float(centers[int(plateau[(len(plateau) - 1) // 2])])


def _edge_values(dtype) -> np.ndarray:
    """Every bin edge, its neighbours either side, and values out of range."""
    edges = (np.arange(OTSU_BINS + 1) / OTSU_BINS).astype(dtype)
    inf = dtype(np.inf)
    near = np.concatenate([edges, np.nextafter(edges, -inf), np.nextafter(edges, inf)])
    return np.concatenate([near, np.array([-1.0, -1e-7, 1.0 + 1e-7, 2.0, 1e6], dtype=dtype)])


class TestOtsuBincount:
    """The bincount histogram puts every value in ``np.histogram``'s bin."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values(self, dtype):
        vals = _edge_values(dtype)
        rng = np.random.default_rng(0)
        assert _otsu_threshold_float(vals) == _histogram_otsu(vals)
        for _ in range(300):
            sub = rng.choice(vals, size=int(rng.integers(1, 200)))
            assert _otsu_threshold_float(sub) == _histogram_otsu(sub), sub

    @settings(max_examples=300, deadline=None)
    @given(
        vals=st.one_of(
            arrays(np.float32, st.integers(1, 300), elements=st.floats(-0.5, 1.5, width=32)),
            arrays(np.float64, st.integers(1, 300), elements=st.floats(-0.5, 1.5)),
            arrays(
                np.float64, st.integers(1, 60), elements=st.sampled_from(_edge_values(np.float64).tolist())
            ),
        )
    )
    def test_matches_histogram(self, vals):
        assert _otsu_threshold_float(vals) == _histogram_otsu(vals)

    def test_empty_and_constant(self):
        assert _otsu_threshold_float(np.array([], dtype=np.float32)) == _histogram_otsu(np.array([])) == 0.5
        for v in (0.0, 0.3, 1.0):
            vals = np.full(17, v, dtype=np.float32)
            assert _otsu_threshold_float(vals) == _histogram_otsu(vals)


_finite_arrays = st.one_of(
    arrays(np.float32, st.integers(1, 80), elements=st.floats(-2, 2, width=32)),
    arrays(np.float64, st.integers(1, 80), elements=st.floats(-1e6, 1e6)),
    # Few distinct values, so order statistics tie.
    arrays(np.float32, st.integers(1, 40), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])),
)


class TestOrderStatistics:
    """The partition-based median and percentiles equal numpy's, dtype included."""

    @settings(max_examples=300, deadline=None)
    @given(vals=_finite_arrays)
    def test_median(self, vals):
        assert _median(vals) == float(np.median(vals))

    @settings(max_examples=300, deadline=None)
    @given(
        vals=st.one_of(_finite_arrays, arrays(np.float32, st.tuples(st.integers(1, 9), st.integers(1, 9)))),
        qs=st.one_of(
            st.just((88.0, 12.0)),
            st.lists(st.floats(0, 100), min_size=1, max_size=3).map(tuple),
        ),
    )
    def test_percentiles(self, vals, qs):
        assume(np.isfinite(vals).all())
        got = _percentiles(vals, qs)
        want = list(np.percentile(vals, list(qs)))
        assert [type(v) for v in got] == [type(v) for v in want] == [np.float64] * len(qs)
        assert got == want


class TestBoxPrompts:
    def test_disk_in_box_best_hypothesis(self, head, rng):
        img, gt = disk_phantom((96, 96), center=(48, 48), radius=14, fg=0.8, bg=0.35, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        hyps = head.masks_from_box(ctx, np.array([30, 30, 66, 66]))
        kinds = {h.kind for h in hyps}
        assert {"bright", "dark", "region", "local-bright", "bright-split"} <= kinds
        best_iou = max(masks_iou(h.mask, gt) for h in hyps)
        assert best_iou > 0.8

    def test_dark_object(self, head, rng):
        img, gt = disk_phantom((96, 96), radius=12, fg=0.15, bg=0.7, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        hyps = head.masks_from_box(ctx, np.array([30, 30, 66, 66]))
        dark = next(h for h in hyps if h.kind == "dark")
        assert masks_iou(dark.mask, gt) > 0.7

    def test_masks_confined_near_box(self, head, rng):
        img, _ = disk_phantom((96, 96), radius=10, fg=0.8, bg=0.35, noise=0.02, rng=rng)
        # Add a second disk far away; box covers only the first.
        img2 = img.copy()
        img2[5:15, 70:80] = 0.8
        ctx = head.prepare(img2)
        hyps = head.masks_from_box(ctx, np.array([30, 30, 66, 66]))
        for h in hyps:
            assert not h.mask[5:15, 70:80].any()

    def test_scores_in_unit_interval(self, head, rng):
        img, _ = disk_phantom((64, 64), noise=0.02, rng=rng)
        ctx = head.prepare(img)
        for h in head.masks_from_box(ctx, np.array([10, 10, 50, 50])):
            assert 0.0 <= h.score <= 1.0
            assert set(h.terms) == {"stability", "edge", "contrast", "homogeneity", "area"}


class TestPointPrompts:
    def test_positive_point_segments_disk(self, head, rng):
        img, gt = disk_phantom((96, 96), center=(48, 48), radius=14, fg=0.8, bg=0.35, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        hyps = head.masks_from_points(ctx, np.array([[48, 48]]), np.array([1]))
        best = max(hyps, key=lambda h: masks_iou(h.mask, gt))
        assert masks_iou(best.mask, gt) > 0.8

    def test_connectivity_restriction(self, head, rng):
        # Two disks; a point on one must not segment the other.
        img = np.full((96, 96), 0.3)
        yy, xx = np.mgrid[0:96, 0:96]
        d1 = (yy - 30) ** 2 + (xx - 30) ** 2 <= 100
        d2 = (yy - 70) ** 2 + (xx - 70) ** 2 <= 100
        img[d1 | d2] = 0.8
        img = np.clip(img + rng.normal(scale=0.02, size=img.shape), 0, 1)
        ctx = head.prepare(img)
        hyps = head.masks_from_points(ctx, np.array([[30, 30]]), np.array([1]))
        for h in hyps:
            if h.kind.endswith("band"):
                assert not h.mask[70, 70]

    def test_negative_point_vetoes(self, head, rng):
        img, gt = disk_phantom((96, 96), center=(48, 48), radius=14, fg=0.8, bg=0.35, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        hyps = head.masks_from_points(
            ctx, np.array([[48, 48], [48, 48]]), np.array([1, 0])
        )
        # The negative point sits in every component the positive one seeds,
        # so band hypotheses must come back empty.
        for h in hyps:
            if h.kind.endswith("band"):
                assert not h.mask.any()

    def test_requires_positive_point(self, head, rng):
        img, _ = disk_phantom((64, 64), rng=rng)
        ctx = head.prepare(img)
        with pytest.raises(PromptError):
            head.masks_from_points(ctx, np.array([[10, 10]]), np.array([0]))

    def test_region_hypothesis_two_phase(self, head, rng):
        img, bottom = two_phase_phantom((64, 64), top=0.1, bottom=0.7, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        hyps = head.masks_from_points(ctx, np.array([[32, 50]]), np.array([1]))  # (x, y) in bottom
        region = next(h for h in hyps if h.kind == "region")
        assert masks_iou(region.mask, bottom) > 0.9


class TestScoring:
    def test_empty_mask_scores_zero(self, head, rng):
        img, _ = disk_phantom((64, 64), rng=rng)
        ctx = head.prepare(img)
        score, terms = head.score_mask(ctx, np.zeros((64, 64), dtype=bool))
        assert score == 0.0

    def test_sharp_region_beats_noise_region(self, head, rng):
        img, gt = disk_phantom((96, 96), radius=16, fg=0.8, bg=0.3, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        good, _ = head.score_mask(ctx, gt)
        speckle = rng.random((96, 96)) < 0.2
        bad, _ = head.score_mask(ctx, speckle)
        assert good > bad

    def test_weights_override(self, rng):
        img, gt = disk_phantom((64, 64), radius=10, noise=0.02, rng=rng)
        only_area = AnalyticMaskHead(score_weights={"area": 1.0})
        ctx = only_area.prepare(img)
        score, terms = only_area.score_mask(ctx, gt)
        assert score == pytest.approx(terms["area"])


# -- windowed box decode vs a full-frame reference ------------------------------


def _padded_box(ctx, box):
    h, w = ctx.image.shape
    b = clip_boxes(box, (h, w))[0]
    padded = pad_box(b, margin=0.06 * max(b[2] - b[0], b[3] - b[1]) + 2, image_shape=(h, w))
    return int(padded[0]), int(padded[1]), int(np.ceil(padded[2])), int(np.ceil(padded[3]))


def _kernel_clean(head):
    def clean(m, radius=1):
        return clean_mask(m, open_radius=radius, close_radius=radius, min_area=head.min_component_area)

    return clean


def _full_frame_masks_from_box(head, ctx, box, *, clean=None, score=None):
    """Box hypotheses built and scored on the whole frame (the reference).

    ``clean(mask, radius)`` and ``score(ctx, mask)`` default to the head's
    own; the scipy differential test swaps in scipy-based ones.
    """
    clean = clean or _kernel_clean(head)
    score = score or head.score_mask
    h, w = ctx.image.shape
    x0, y0, x1, y1 = _padded_box(ctx, box)
    within = np.zeros((h, w), dtype=bool)
    within[y0:y1, x0:x1] = True
    crop = ctx.smooth[y0:y1, x0:x1]

    def band(seed):
        if not seed.any():
            return np.zeros((h, w), dtype=bool)
        vals = ctx.smooth[seed]
        med = float(np.median(vals))
        s = max(float(np.median(np.abs(vals - med))) / 0.6745, ctx.noise_sigma, 0.01)
        return clean((np.abs(ctx.smooth - med) <= head.band_k * s) & within)

    masks = []
    hi = np.percentile(crop, head.seed_quantile)
    lo = np.percentile(crop, 100.0 - head.seed_quantile)
    masks.append((band(within & (ctx.smooth >= hi)), "bright"))
    masks.append((band(within & (ctx.smooth <= lo)), "dark"))
    tau = max(0.45 * float(np.percentile(ctx.tophat[y0:y1, x0:x1], 97)), 2.5 * ctx.noise_sigma)
    masks.append((clean(within & (ctx.tophat > tau)), "local-bright"))
    t = _otsu_threshold_float(crop)
    side_hi = ctx.smooth >= t
    region = side_hi if side_hi[(y0 + y1) // 2, (x0 + x1) // 2] else ~side_hi
    masks.append((clean(region & within), "region"))
    sel = crop >= t
    t_split = t
    for _ in range(2):
        if sel.mean() > 0.55 and sel.sum() > 100:
            t2 = _otsu_threshold_float(crop[sel])
            if t2 > t_split + 0.03:
                t_split = t2
                sel = crop >= t_split
                continue
        break
    split = np.zeros((h, w), dtype=bool)
    split[y0:y1, x0:x1] = sel
    masks.append((clean(split, radius=0), "bright-split"))
    return [(mask, kind, *score(ctx, mask)) for mask, kind in masks]


def _scene(shape, rng):
    """Bright and dark disks of several sizes on a noisy mid-grey field."""
    h, w = shape
    img = np.full(shape, 0.45)
    yy, xx = np.mgrid[0:h, 0:w]
    for cy, cx, r, v in [(0.2, 0.25, 0.12, 0.85), (0.7, 0.3, 0.08, 0.1), (0.5, 0.75, 0.15, 0.8),
                         (0.05, 0.9, 0.1, 0.75), (0.95, 0.05, 0.09, 0.9), (0.9, 0.85, 0.05, 0.2)]:
        img[(yy - cy * h) ** 2 + (xx - cx * w) ** 2 <= (r * min(h, w)) ** 2] = v
    return np.clip(img + rng.normal(scale=0.03, size=shape), 0, 1).astype(np.float32)


def _boxes(h, w):
    return [
        # One per corner and one per edge: the halo is clipped by the frame.
        (0, 0, 22, 18), (w - 22, 0, w, 18), (0, h - 18, 22, h), (w - 22, h - 18, w, h),
        (w // 3, 0, w // 2, 14), (w // 3, h - 14, w // 2, h), (0, h // 3, 14, h // 2), (w - 14, h // 3, w, h // 2),
        # Whole frame (window == frame), interior, fractional, 1-2 px boxes.
        (0, 0, w, h), (w // 4, h // 4, 3 * w // 4, 3 * h // 4), (10.3, 12.7, 40.2, 33.9),
        (w // 2, h // 2, w // 2 + 1, h // 2 + 1), (w // 2, h // 2, w // 2 + 2, h // 2 + 2),
        (0, 0, 1, 1), (w - 2, h - 2, w, h),
    ]


def _assert_matches_reference(head, ctx, box, **reference):
    got = head.masks_from_box(ctx, np.asarray(box, dtype=np.float64))
    want = _full_frame_masks_from_box(head, ctx, np.asarray(box, dtype=np.float64), **reference)
    assert [g.kind for g in got] == [k for _, k, _, _ in want]
    for g, (mask, kind, score, terms) in zip(got, want):
        assert g.mask.shape == ctx.image.shape and g.mask.dtype == bool
        assert np.array_equal(g.mask, mask), (box, kind)
        assert g.score == score, (box, kind)
        assert g.terms == terms, (box, kind)


class TestWindowedBoxDecode:
    @pytest.mark.parametrize("shape", [(96, 96), (64, 112), (112, 64)])
    def test_matches_full_frame(self, head, shape):
        ctx = head.prepare(_scene(shape, np.random.default_rng(3)))
        for box in _boxes(*shape):
            _assert_matches_reference(head, ctx, box)

    def test_dark_object_matches_full_frame(self, head, rng):
        img, _ = disk_phantom((96, 96), radius=12, fg=0.15, bg=0.7, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        for box in [(30, 30, 66, 66), (0, 0, 96, 96), (34, 34, 62, 62)]:
            _assert_matches_reference(head, ctx, box)

    def test_fibsem_slice_matches_full_frame(self, head):
        img = make_sample("crystalline", seed=0, shape=(128, 128), n_slices=1).volume.voxels[0]
        ctx = head.prepare(np.asarray(img, dtype=np.float32))
        for box in [(5, 40, 37, 61), (70, 8, 124, 50), (0, 100, 40, 128), (20, 20, 108, 108)]:
            _assert_matches_reference(head, ctx, box)

    def test_masks_inside_padded_box(self, head):
        shape = (64, 112)
        ctx = head.prepare(_scene(shape, np.random.default_rng(5)))
        for box in _boxes(*shape):
            x0, y0, x1, y1 = _padded_box(ctx, np.asarray(box, dtype=np.float64))
            for hyp in head.masks_from_box(ctx, np.asarray(box, dtype=np.float64)):
                outside = hyp.mask.copy()
                outside[y0:y1, x0:x1] = False
                assert not outside.any(), (box, hyp.kind)

    def test_area_is_fraction_of_frame(self, head):
        shape = (64, 112)
        ctx = head.prepare(_scene(shape, np.random.default_rng(9)))
        for box in _boxes(*shape):
            for hyp in head.masks_from_box(ctx, np.asarray(box, dtype=np.float64)):
                assert hyp.terms["area"] == hyp.mask.sum() / (64 * 112)

    def test_score_mask_frame_pixels(self, head, rng):
        img, gt = disk_phantom((64, 64), radius=10, noise=0.02, rng=rng)
        ctx = head.prepare(img)
        _, full = head.score_mask(ctx, gt)
        _, scaled = head.score_mask(ctx, gt, frame_pixels=4 * 64 * 64)
        assert full["area"] == gt.sum() / (64 * 64)
        assert scaled["area"] == gt.sum() / (4 * 64 * 64)


# -- shift-kernel box head vs a scipy.ndimage reference ---------------------------


def _scipy_clean(head):
    def clean(m, radius=1):
        if radius > 0:
            m = ndi.binary_closing(ndi.binary_opening(m, iterations=radius), iterations=radius)
        return clean_mask(m, open_radius=0, close_radius=0, min_area=head.min_component_area)

    return clean


def _scipy_score_mask(head, frame_pixels):
    """``AnalyticMaskHead.score_mask`` as separate scipy morphology calls."""

    def score(ctx, mask):
        m = np.asarray(mask, dtype=bool)
        n = int(m.sum())
        if n == 0:
            return 0.0, {k: 0.0 for k in head.score_weights}
        boundary = m & ~ndi.binary_erosion(m, border_value=0)
        edge = 0.0
        if boundary.any() and ctx.grad_p95 > 1e-9:
            edge = float(np.clip(ctx.grad_mag[boundary].mean() / ctx.grad_p95, 0.0, 1.0))
        inside_mean = float(ctx.smooth[m].mean())
        ring = ndi.binary_dilation(m, iterations=RING_WIDTH) & ~m
        contrast = 0.0
        if ring.any():
            contrast = float(np.clip(abs(inside_mean - float(ctx.smooth[ring].mean())) / 0.25, 0.0, 1.0))
        lo = ndi.binary_erosion(m, iterations=STABILITY_ITERATIONS, border_value=0)
        hi = ndi.binary_dilation(m, iterations=STABILITY_ITERATIONS)
        terms = {
            "stability": np.count_nonzero(lo) / np.count_nonzero(hi),
            "edge": edge,
            "contrast": contrast,
            "homogeneity": float(np.exp(-((float(ctx.smooth[m].std()) / 0.10) ** 2))),
            "area": float(n / frame_pixels),
        }
        return float(sum(head.score_weights[k] * terms[k] for k in head.score_weights)), terms

    return score


@pytest.fixture(scope="module")
def grounded_slices():
    """(pipeline, analytic context, detection, boxes) on real FIB-SEM slices.

    The boxes are DINO's, plus boxes on every frame edge and corner (where
    the decode window is clipped and erosion meets the array border) and
    boxes reaching past the frame.
    """
    pipeline = ZenesisPipeline()
    out = []
    for kind in ("crystalline", "amorphous"):
        sample = make_sample(kind, seed=0, shape=(128, 128), n_slices=2)
        for z in range(2):
            det_img, seg_img = pipeline.adapt(sample.volume.voxels[z])
            detection = pipeline.ground(det_img, "catalyst particles")
            h, w = seg_img.shape
            boxes = [np.asarray(b, dtype=np.float64) for b in detection.boxes]
            boxes += [np.asarray(b, dtype=np.float64) for b in _boxes(h, w)]
            boxes += [np.array([-6.0, -4.0, 30.0, 26.0]), np.array([w - 30.0, h - 20.0, w + 9.0, h + 5.0])]
            out.append((pipeline, pipeline.sam.analytic.prepare(seg_img), detection, boxes))
    return out


class TestScipyDifferential:
    def test_box_head_matches_scipy_reference(self, head, grounded_slices):
        n = 0
        for _, ctx, _, boxes in grounded_slices:
            frame = ctx.image.size
            for box in boxes:
                _assert_matches_reference(
                    head, ctx, box, clean=_scipy_clean(head), score=_scipy_score_mask(head, frame)
                )
                n += 1
        assert n > 60

    def test_windowed_selection_matches_full_frame(self, head, grounded_slices):
        picked = 0
        for pipeline, ctx, detection, boxes in grounded_slices:
            hi = detection.relevance >= pipeline.config.box_threshold
            for i, box in enumerate(boxes):
                hyps = head.masks_from_box(ctx, box)
                h, w = ctx.image.shape
                for hyp in hyps:
                    wy0, wy1, wx0, wx1 = hyp.window
                    assert hyp.window_mask.shape == (wy1 - wy0, wx1 - wx0)
                full = [
                    dataclasses.replace(hyp, window_mask=hyp.mask, window=(0, h, 0, w)) for hyp in hyps
                ]
                # The decoded box, and another box only partly inside the window.
                for scored in (box, boxes[i - 1]):
                    got = pipeline._select_mask(hyps, detection.relevance, scored, hi=hi)
                    want = pipeline._select_mask(full, detection.relevance, scored)
                    assert (got is None) == (want is None), (box, scored)
                    if got is not None:
                        assert [h is got[0] for h in hyps] == [h is want[0] for h in full], (box, scored)
                        assert got[1] == want[1], (box, scored)
                        picked += 1
        assert picked > 80
