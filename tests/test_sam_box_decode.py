"""One box decode: stacked cleanup, one labelling, bincount Otsu.

:meth:`AnalyticMaskHead.masks_from_box` computes its five raw masks on the
padded box, opens and closes four of them as one stack, clears dust from
all five with one labelling, and sizes its window with Python scalars.
Its output must equal the per-hypothesis decode it replaced, which is kept
here as :func:`_reference_masks_from_box`: ``clip_boxes``/``pad_box`` for
the window, an ``np.histogram`` Otsu, and one scipy cleanup per hypothesis.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage as ndi

from repro.core.boxes import clip_boxes, pad_box
from repro.core.pipeline import ZenesisPipeline
from repro.data import make_sample
from repro.errors import ValidationError
from repro.models.sam.analytic import BOX_HALO, CLEAN_RADIUS, AnalyticMaskHead, box_window

PROMPT = "catalyst particles"

#: sha1 over kind, window and window mask of every hypothesis the box head
#: returns while ``segment_volume`` runs over the seed-1 bench volumes
#: (:meth:`TestBenchGolden.test_seed1_bench_hypotheses`), recorded from the
#: per-hypothesis decode.
BENCH_HYPOTHESES_SHA1 = "1ece5efbc9c99a924d1b6010d2e52964d9297767"
BENCH_BOX_DECODES = 221


def _reference_otsu(values: np.ndarray, n_bins: int = 128) -> float:
    hist, edges = np.histogram(np.clip(values, 0.0, 1.0), bins=n_bins, range=(0.0, 1.0))
    p = hist.astype(np.float64)
    total = p.sum()
    if total == 0:
        return 0.5
    p /= total
    centers = (edges[:-1] + edges[1:]) / 2.0
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * centers)
    mu = m0[-1]
    w1 = 1.0 - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (mu * w0 - m0) ** 2 / (w0 * w1)
    between = np.nan_to_num(between)
    best = between.max()
    plateau = np.nonzero(between >= best - 1e-12)[0]
    return float(centers[int(plateau[(len(plateau) - 1) // 2])])


def _reference_clean(mask: np.ndarray, radius: int, min_area: int) -> np.ndarray:
    m = mask.copy()
    if radius > 0:
        m = ndi.binary_closing(ndi.binary_opening(m, iterations=radius), iterations=radius)
    labels, n = ndi.label(m)
    if n:
        drop = np.bincount(labels.ravel()) < min_area
        drop[0] = False
        m[drop[labels]] = False
    return m


def _reference_masks_from_box(head: AnalyticMaskHead, ctx, box):
    """``(window, [(kind, window mask)], re-splits)`` of the per-hypothesis decode."""
    h, w = ctx.image.shape
    b = clip_boxes(box, (h, w))[0]
    padded = pad_box(b, margin=0.06 * max(b[2] - b[0], b[3] - b[1]) + 2, image_shape=(h, w))
    x0, y0, x1, y1 = (int(padded[0]), int(padded[1]), int(np.ceil(padded[2])), int(np.ceil(padded[3])))
    wy0, wy1 = max(y0 - BOX_HALO, 0), min(y1 + BOX_HALO, h)
    wx0, wx1 = max(x0 - BOX_HALO, 0), min(x1 + BOX_HALO, w)
    win = head.crop_context(ctx, (wy0, wy1, wx0, wx1))
    y0, y1, x0, x1 = y0 - wy0, y1 - wy0, x0 - wx0, x1 - wx0
    within = np.zeros(win.image.shape, dtype=bool)
    within[y0:y1, x0:x1] = True
    crop = win.smooth[y0:y1, x0:x1]

    def clean(m, radius=CLEAN_RADIUS):
        return _reference_clean(m, radius, head.min_component_area)

    def band(seed):
        if not seed.any():
            return np.zeros(win.image.shape, dtype=bool)
        vals = win.smooth[seed]
        m = float(np.median(vals))
        s = max(float(np.median(np.abs(vals - m))) / 0.6745, win.noise_sigma, 0.01)
        return clean((np.abs(win.smooth - m) <= head.band_k * s) & within)

    masks = []
    hi, lo = np.percentile(crop, [head.seed_quantile, 100.0 - head.seed_quantile])
    masks.append(("bright", band(within & (win.smooth >= hi))))
    masks.append(("dark", band(within & (win.smooth <= lo))))
    tau = max(0.45 * float(np.percentile(win.tophat[y0:y1, x0:x1], 97)), 2.5 * win.noise_sigma)
    masks.append(("local-bright", clean(within & (win.tophat > tau))))
    t = _reference_otsu(crop)
    side_hi = win.smooth >= t
    region = side_hi if side_hi[(y0 + y1) // 2, (x0 + x1) // 2] else ~side_hi
    masks.append(("region", clean(region & within)))
    sel = crop >= t
    t_split = t
    splits = 0
    for _ in range(2):
        if sel.mean() > 0.55 and sel.sum() > 100:
            t2 = _reference_otsu(crop[sel])
            if t2 > t_split + 0.03:
                t_split = t2
                sel = crop >= t_split
                splits += 1
                continue
        break
    split = np.zeros(win.image.shape, dtype=bool)
    split[y0:y1, x0:x1] = sel
    masks.append(("bright-split", clean(split, radius=0)))
    return (wy0, wy1, wx0, wx1), masks, splits


def _assert_same_decode(head, ctx, box) -> tuple[tuple[int, int, int, int], list, int]:
    window, want, splits = _reference_masks_from_box(head, ctx, box)
    got = head.masks_from_box(ctx, np.asarray(box, dtype=np.float64))
    assert [hyp.kind for hyp in got] == [kind for kind, _ in want]
    for hyp, (kind, mask) in zip(got, want):
        assert hyp.window == window, (box, kind)
        assert hyp.frame_shape == ctx.image.shape
        assert hyp.window_mask.dtype == bool and hyp.window_mask.shape == mask.shape, (box, kind)
        assert hyp.window_mask.tobytes() == mask.tobytes(), (box, kind)
    return window, want, splits


_HEAD = AnalyticMaskHead()
_CONTEXTS: dict[str, object] = {}


def _context(scene: str):
    """The head's context of an adapted scene slice, or of uniform noise."""
    if scene not in _CONTEXTS:
        if scene == "noise":
            img = np.random.default_rng(3).random((96, 80)).astype(np.float32)
        else:
            sample = make_sample(scene, seed=0, shape=(128, 128), n_slices=1)
            _, img = ZenesisPipeline().adapt(sample.volume.voxels[0])
        _CONTEXTS[scene] = _HEAD.prepare(img)
    return _CONTEXTS[scene]


@st.composite
def _boxes(draw, h: int, w: int):
    """XYXY boxes inside the frame, clipped at an edge, thin, or full-frame."""
    kind = draw(st.sampled_from(["inside", "past-edge", "thin", "full", "near-edge"]))
    coord = st.floats(0.0, 1.0, allow_nan=False)
    if kind == "full":
        pad = draw(st.sampled_from([0.0, 0.4, 7.0]))
        return [-pad, -pad, w + pad, h + pad]
    x0, y0 = draw(coord) * (w - 1), draw(coord) * (h - 1)
    bw, bh = 1.0 + draw(coord) * (w - 1 - x0), 1.0 + draw(coord) * (h - 1 - y0)
    if kind == "thin":
        if draw(st.booleans()):
            bh = draw(st.sampled_from([1.0, 0.3]))
        else:
            bw = draw(st.sampled_from([1.0, 0.3]))
    elif kind == "past-edge":
        # Past one edge, so clip_boxes moves that side onto the frame.
        over = 1.0 + draw(coord) * 20.0
        side = draw(st.sampled_from(["left", "top", "right", "bottom"]))
        if side == "left":
            x0, bw = -over, bw + over
        elif side == "top":
            y0, bh = -over, bh + over
        elif side == "right":
            bw = w - x0 + over
        else:
            bh = h - y0 + over
    elif kind == "near-edge":
        # Inside the frame, but the halo around the padded box is not.
        x0, y0 = draw(st.sampled_from([0.0, 1.5, 3.0])), draw(st.sampled_from([0.0, 2.0, h - 12.0]))
        bw, bh = 4.0 + draw(coord) * 20.0, min(4.0 + draw(coord) * 20.0, h - y0)
    return [x0, y0, x0 + bw, y0 + bh]


class TestMatchesPerHypothesisDecode:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_boxes(self, data):
        scene = data.draw(st.sampled_from(["crystalline", "amorphous", "noise"]))
        ctx = _context(scene)
        box = data.draw(_boxes(*ctx.image.shape))
        _assert_same_decode(_HEAD, ctx, box)

    @pytest.mark.parametrize(
        "scene, box, splits",
        [
            ("noise", [66.0, 32.0, 71.0, 36.0], 0),
            ("crystalline", [111.0, 73.0, 127.0, 77.0], 1),
            ("amorphous", [71.0, 64.0, 85.0, 72.0], 2),
            ("crystalline", [35.0, 63.0, 46.0, 119.0], 2),
        ],
    )
    def test_split_recursion_depths(self, scene, box, splits):
        assert _assert_same_decode(_HEAD, _context(scene), box)[2] == splits

    def test_window_clipped_by_the_frame(self):
        ctx = _context("crystalline")
        window, _, _ = _assert_same_decode(_HEAD, ctx, [1.0, 120.0, 9.0, 128.0])
        assert window[0] > 0 and window[1] == 128 and window[2] == 0

    def test_one_pixel_boxes(self):
        ctx = _context("amorphous")
        for box in ([50.0, 50.0, 51.0, 80.0], [50.0, 50.0, 80.0, 51.0], [127.0, 127.0, 128.0, 128.0]):
            _assert_same_decode(_HEAD, ctx, box)

    @pytest.mark.parametrize(
        "scene, box, empty",
        [
            ("amorphous", [65.0, 72.0, 70.0, 76.0], "bright"),
            ("crystalline", [107.0, 111.0, 115.0, 115.0], "dark"),
        ],
    )
    def test_empty_band_hypothesis(self, scene, box, empty):
        # A finite crop always seeds both bands (it holds its own max and
        # min), so an empty bright or dark hypothesis comes from cleanup.
        _, want, _ = _assert_same_decode(_HEAD, _context(scene), box)
        assert not dict(want)[empty].any()


class TestBoxWindow:
    def test_matches_clip_and_pad(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            h, w = (int(v) for v in rng.integers(1, 300, size=2))
            x0, y0 = rng.uniform(-20, w + 5), rng.uniform(-20, h + 5)
            box = [x0, y0, x0 + rng.uniform(0.01, w + 40), y0 + rng.uniform(0.01, h + 40)]
            try:
                want = _reference_masks_window(box, (h, w))
            except ValidationError:
                with pytest.raises(ValidationError):
                    box_window(box, (h, w))
                continue
            assert box_window(box, (h, w)) == want, (box, (h, w))

    @pytest.mark.parametrize(
        "box",
        [
            [10.0, 10.0, 10.0, 20.0],  # x1 == x0
            [10.0, 20.0, 20.0, 5.0],  # y1 < y0
            [np.nan, 0.0, 5.0, 5.0],
            [64.0, 0.0, 70.0, 5.0],  # right of the frame
            [0.0, -9.0, 5.0, 0.0],  # above the frame
            [0.0, 0.0, 5.0],
            [[0.0, 0.0, 5.0, 5.0], [1.0, 1.0, 6.0, 6.0]],
        ],
    )
    def test_invalid_boxes_raise(self, box):
        with pytest.raises(ValidationError):
            box_window(box, (48, 64))

    def test_accepts_a_one_box_row(self):
        assert box_window([[3.0, 4.0, 20.0, 30.0]], (48, 64)) == box_window([3.0, 4.0, 20.0, 30.0], (48, 64))


def _reference_masks_window(box, shape):
    h, w = shape
    b = clip_boxes(box, (h, w))[0]
    padded = pad_box(b, margin=0.06 * max(b[2] - b[0], b[3] - b[1]) + 2, image_shape=(h, w))
    x0, y0, x1, y1 = (int(padded[0]), int(padded[1]), int(np.ceil(padded[2])), int(np.ceil(padded[3])))
    window = (max(y0 - BOX_HALO, 0), min(y1 + BOX_HALO, h), max(x0 - BOX_HALO, 0), min(x1 + BOX_HALO, w))
    return (y0, y1, x0, x1), window


class TestBenchGolden:
    def test_seed1_bench_hypotheses(self, monkeypatch):
        from bench.inputs import make_volumes

        h = hashlib.sha1()
        decodes = []
        decode = AnalyticMaskHead.masks_from_box

        def digesting(self, ctx, box):
            hyps = decode(self, ctx, box)
            decodes.append(box)
            for hyp in hyps:
                h.update(hyp.kind.encode())
                h.update(np.asarray(hyp.window, dtype=np.int64).tobytes())
                h.update(np.ascontiguousarray(hyp.window_mask).tobytes())
            return hyps

        monkeypatch.setattr(AnalyticMaskHead, "masks_from_box", digesting)
        pipe = ZenesisPipeline()
        for vol in make_volumes(1):
            pipe.segment_volume(vol.voxels, PROMPT)
        assert len(decodes) == BENCH_BOX_DECODES
        assert h.hexdigest() == BENCH_HYPOTHESES_SHA1
