"""The analytic grounding head: prompts → pixel masks without trained weights.

SAM's hypernetwork decoder needs web-scale pretraining to emit semantic
masks; offline, this head supplies the equivalent *function*: given a prompt
(box or points) it forms competing object hypotheses from seeded intensity
statistics, scored by SAM-style quality terms.  A hypothesis holds only the
mask inside its window; its full-frame mask and its score are computed when
a caller reads them, so a caller that selects by other criteria (grounded
selection, propagation's IoU-vs-memory pick) pays for neither.

Hypotheses per prompt:

* ``bright`` — the locally-bright structure inside the prompt (seed = top
  intensity quantile; mask = intensity band around the seed's median);
* ``dark``   — the dark structure (bottom quantile), e.g. pores;
* ``region`` — the dominant two-class split (Otsu side containing the seed),
  i.e. "the whole thing the prompt sits on".

Quality terms per mask (each in [0, 1], exposed for calibration):

* ``stability``   — erode/dilate IoU (SAM's stability score);
* ``edge``        — boundary gradient strength relative to the image's;
* ``contrast``    — interior/exterior intensity separation;
* ``homogeneity`` — exp(-(interior std / scale)²), SAM's bias toward
  coherent single objects;
* ``area``        — mask area fraction (large salient regions win ties in
  unprompted mode, which is precisely how the black background captures
  SAM-only on FIB-SEM — the paper's reported failure).

``predicted_iou`` is the weighted sum with :data:`DEFAULT_SCORE_WEIGHTS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.ndimage import laplace, sobel

from ...adapt.denoise import denoise_gaussian
from ...core.masks import clean_mask, clean_masks, component_containing, dilate, erode, label
from ...errors import PromptError, ValidationError

__all__ = ["AnalyticContext", "MaskHypothesis", "AnalyticMaskHead", "DEFAULT_SCORE_WEIGHTS", "box_window"]

DEFAULT_SCORE_WEIGHTS: dict[str, float] = {
    "stability": 0.25,
    "edge": 0.40,
    "contrast": 0.15,
    "homogeneity": 0.10,
    "area": 0.10,
}

#: Width of the exterior ring :meth:`AnalyticMaskHead.score_mask` compares
#: the mask interior against (``contrast`` term).  The ring extends the
#: ``stability`` term's dilation, so it must be the wider of the two.
RING_WIDTH = 3
#: Erode/dilate iterations of the ``stability`` term (at least 2: the first
#: erosion is shared with the boundary).
STABILITY_ITERATIONS = 2
#: Open/close radius of the box hypotheses' morphological cleanup.
CLEAN_RADIUS = 1
#: Margin a box decode keeps around its padded box.  Every box hypothesis
#: lies inside the padded box, so scoring it inside a window grown by the
#: farthest morphology reach is bit-identical to scoring it on the full
#: frame; widen this with any of the radii above or the masks drift.
BOX_HALO = max(RING_WIDTH, STABILITY_ITERATIONS, CLEAN_RADIUS)


#: The hypotheses :meth:`AnalyticMaskHead.masks_from_box` returns, in order.
#: The first four are opened and closed; ``bright-split`` only loses dust.
BOX_KINDS = ("bright", "dark", "local-bright", "region", "bright-split")


def box_window(
    box: np.ndarray, image_shape: tuple[int, int]
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """``(padded box, window)`` of a box decode, each as ``(y0, y1, x0, x1)``.

    The padded box is ``box`` (XYXY, shape ``(4,)`` or ``(1, 4)``) clipped
    to the frame and padded by 6% + 2 px, rounded outwards to whole pixels;
    every box hypothesis lies inside it.  The window grows it by
    :data:`BOX_HALO`, clipped to the frame, and is the
    :attr:`MaskHypothesis.window` of every hypothesis
    :meth:`AnalyticMaskHead.masks_from_box` returns, so a caller knows
    where a box's masks can fall before decoding it.  The arithmetic is
    ``core.boxes``' ``clip_boxes`` and ``pad_box`` on Python floats, which
    round the same, and raises the same :class:`ValidationError` for an
    inverted box or one outside the frame.
    """
    h, w = image_shape
    b = np.asarray(box, dtype=np.float64)
    if b.shape not in ((4,), (1, 4)):
        raise ValidationError(f"a box must have shape (4,) or (1, 4), got {b.shape}")
    x0, y0, x1, y1 = b.ravel().tolist()
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("every box must satisfy x1 > x0 and y1 > y0")
    if x0 >= w or y0 >= h or x1 <= 0 or y1 <= 0:
        raise ValidationError(f"box {[x0, y0, x1, y1]} lies entirely outside image {(h, w)}")
    # clip_boxes' bounds, which keep x0 < x1 and y0 < y1 for any box that
    # overlaps the frame.
    x0, x1 = min(max(x0, 0.0), w - 1), min(max(x1, 1.0), w)
    y0, y1 = min(max(y0, 0.0), h - 1), min(max(y1, 1.0), h)
    margin = 0.06 * max(x1 - x0, y1 - y0) + 2
    px0, px1 = int(min(max(x0 - margin, 0.0), w - 1)), math.ceil(min(max(x1 + margin, 1.0), w))
    py0, py1 = int(min(max(y0 - margin, 0.0), h - 1)), math.ceil(min(max(y1 + margin, 1.0), h))
    window = (max(py0 - BOX_HALO, 0), min(py1 + BOX_HALO, h), max(px0 - BOX_HALO, 0), min(px1 + BOX_HALO, w))
    return (py0, py1, px0, px1), window


@dataclass(frozen=True)
class AnalyticContext:
    """Per-image precomputation shared by every prompt on that image."""

    image: np.ndarray  # float32 [0,1]
    smooth: np.ndarray
    tophat: np.ndarray  # local-background-subtracted brightness
    grad_mag: np.ndarray
    grad_p95: float
    noise_sigma: float
    otsu_threshold: float


@dataclass(frozen=True)
class MaskHypothesis:
    """One candidate mask, stored as its window, scored on first read.

    ``window_mask`` is the mask inside ``window`` = ``(y0, y1, x0, x1)``;
    the mask is zero elsewhere in the ``frame_shape`` frame, so consumers
    can restrict their per-pixel work to the window (point hypotheses use
    the whole frame as their window).  :attr:`mask` pastes it into a new
    full-frame array on every read and keeps nothing, so a cached
    hypothesis stays window-sized and a caller mutating ``.mask`` cannot
    change it.  :attr:`score` and :attr:`terms` run the head's
    :meth:`~AnalyticMaskHead.score_mask` on the window on first read and
    memoise the result on the instance.

    ``scorer`` is that ``score_mask`` call bound to the window's context,
    a view of the image's context (which the ``sam.image`` cache entry
    already holds), so a hypothesis carries no per-pixel data beyond its
    window mask.  It is a :func:`functools.partial`, not a closure, so
    hypotheses pickle for the disk tier.
    """

    window_mask: np.ndarray
    kind: str
    window: tuple[int, int, int, int]
    frame_shape: tuple[int, int]
    scorer: Callable[[np.ndarray], tuple[float, dict[str, float]]] = field(repr=False, compare=False)

    @property
    def window_slices(self) -> tuple[slice, slice]:
        y0, y1, x0, x1 = self.window
        return slice(y0, y1), slice(x0, x1)

    @property
    def mask(self) -> np.ndarray:
        full = np.zeros(self.frame_shape, dtype=bool)
        full[self.window_slices] = self.window_mask
        return full

    def _scored(self) -> tuple[float, dict[str, float]]:
        scored = self.__dict__.get("_score")
        if scored is None:
            scored = self.scorer(self.window_mask)
            object.__setattr__(self, "_score", scored)
        return scored

    @property
    def score(self) -> float:
        return self._scored()[0]

    @property
    def terms(self) -> dict[str, float]:
        return self._scored()[1]


#: Histogram bins of :func:`_otsu_threshold_float`.  A power of two, so
#: ``v * OTSU_BINS`` is exact and its floor is the bin ``np.histogram`` with
#: ``range=(0, 1)`` puts ``v`` in.
OTSU_BINS = 128
_OTSU_CENTERS = (np.arange(OTSU_BINS) + 0.5) / OTSU_BINS


def _otsu_threshold_float(values: np.ndarray) -> float:
    """Otsu's threshold for float data in [0, 1], over :data:`OTSU_BINS` bins.

    Values are clipped to [0, 1] and binned by ``floor(v * OTSU_BINS)``,
    with 1.0 in the last bin: the histogram ``np.histogram(v, OTSU_BINS,
    range=(0, 1))`` builds, from one ``bincount``.
    """
    if values.size == 0:
        return 0.5
    bins = np.minimum((np.clip(values, 0.0, 1.0) * OTSU_BINS).astype(np.intp), OTSU_BINS - 1)
    p = np.bincount(bins.ravel(), minlength=OTSU_BINS) / values.size
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * _OTSU_CENTERS)
    # Between-class variance of each cut.  Its denominator is 0 only where
    # one class is empty (w0 is 0 or 1), and there the numerator is 0 too;
    # such a cut scores 0.
    den = w0 * (1.0 - w0)
    between = np.divide((m0[-1] * w0 - m0) ** 2, den, out=np.zeros(OTSU_BINS), where=den != 0)
    plateau = np.flatnonzero(between >= between.max() - 1e-12)
    # Degenerate histograms create flat plateaus; the conventional choice is
    # the plateau midpoint (matches skimage/OpenCV behaviour).
    return float(_OTSU_CENTERS[plateau[(len(plateau) - 1) // 2]])


def _percentiles(values: np.ndarray, qs: tuple[float, ...]) -> list[np.float64]:
    """``list(np.percentile(values, qs))`` of a non-empty array without NaN.

    numpy's default (linear) method from one ``partition``: percentile ``q``
    sits at virtual index ``(n - 1) * (q / 100)`` of the sorted values and
    is interpolated in float64 from the nearer of the two order statistics
    around it, whose difference is taken in the data's dtype.  The results
    stay ``np.float64``, as in the array ``np.percentile`` returns, so a
    float32 array compares against them in float64.
    """
    flat = values.ravel()
    last = flat.size - 1
    virtual = [last * (q / 100) for q in qs]
    lows = [min(math.floor(v), last) for v in virtual]
    part = np.partition(flat, sorted({i for lo in lows for i in (lo, min(lo + 1, last))}))
    out = []
    for v, lo in zip(virtual, lows):
        if v >= last:
            out.append(np.float64(part[last]))
            continue
        a, b = part[lo], part[lo + 1]
        diff, t = float(b - a), v - lo
        out.append(np.float64(float(a) + diff * t if t < 0.5 else float(b) - diff * (1 - t)))
    return out


def _median(vals: np.ndarray) -> float:
    """``float(np.median(vals))`` of a non-empty 1-D array without NaN.

    The middle order statistic, or for an even count the mean of the two,
    summed and halved in the array's dtype as ``np.median`` does; one
    ``partition`` instead of ``np.median``'s dozen small calls.
    """
    k = vals.size // 2
    if vals.size % 2:
        return float(np.partition(vals, k)[k])
    part = np.partition(vals, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2)


class AnalyticMaskHead:
    """Prompt-conditioned mask hypotheses over intensity statistics."""

    def __init__(
        self,
        *,
        smooth_sigma: float = 1.0,
        band_k: float = 2.6,
        seed_quantile: float = 88.0,
        min_component_area: int = 12,
        score_weights: dict[str, float] | None = None,
    ) -> None:
        self.smooth_sigma = smooth_sigma
        self.band_k = band_k
        self.seed_quantile = seed_quantile
        self.min_component_area = min_component_area
        self.score_weights = dict(score_weights or DEFAULT_SCORE_WEIGHTS)

    # -- context ------------------------------------------------------------

    def prepare(self, image: np.ndarray) -> AnalyticContext:
        """Precompute smoothed image, gradients, noise level, global Otsu."""
        img = np.asarray(image, dtype=np.float32)
        if img.ndim != 2:
            raise PromptError(f"analytic head expects a 2-D float image, got shape {img.shape}")
        smooth = denoise_gaussian(img, sigma=self.smooth_sigma)
        tophat = smooth - denoise_gaussian(smooth, sigma=10.0)
        gy = sobel(smooth, axis=0, mode="reflect")
        gx = sobel(smooth, axis=1, mode="reflect")
        grad = np.hypot(gy, gx).astype(np.float32)
        resid = laplace(img, mode="reflect")
        noise = float(np.median(np.abs(resid))) / 0.6745 / np.sqrt(20.0)
        return AnalyticContext(
            image=img,
            smooth=smooth,
            tophat=tophat.astype(np.float32),
            grad_mag=grad,
            grad_p95=float(np.percentile(grad, 95)),
            noise_sigma=max(noise, 1e-4),
            otsu_threshold=_otsu_threshold_float(smooth),
        )

    def crop_context(self, ctx: AnalyticContext, window: tuple[int, int, int, int]) -> AnalyticContext:
        """Restrict a prepared context to a ``(y0, y1, x0, x1)`` window.

        Slices the precomputed per-pixel maps (views, no recompute).  The
        scalar statistics (gradient scale, noise level, global Otsu) are
        kept as-is: they describe the image, not the window, and reusing
        them keeps thresholds consistent between windowed and full-frame
        decodes of the same prompt.
        """
        y0, y1, x0, x1 = window
        sl = (slice(y0, y1), slice(x0, x1))
        return AnalyticContext(
            image=ctx.image[sl],
            smooth=ctx.smooth[sl],
            tophat=ctx.tophat[sl],
            grad_mag=ctx.grad_mag[sl],
            grad_p95=ctx.grad_p95,
            noise_sigma=ctx.noise_sigma,
            otsu_threshold=ctx.otsu_threshold,
        )

    # -- scoring --------------------------------------------------------------

    def score_mask(
        self, ctx: AnalyticContext, mask: np.ndarray, *, frame_pixels: int | None = None
    ) -> tuple[float, dict[str, float]]:
        """Quality terms + weighted predicted-IoU score for a mask.

        ``area`` is the mask's fraction of ``frame_pixels`` (default: the
        mask's own size); a caller scoring inside a window of ``ctx`` passes
        the full frame's pixel count so the term matches a full-frame score.
        """
        m = np.asarray(mask, dtype=bool)
        n = int(m.sum())
        if n == 0:
            return 0.0, {k: 0.0 for k in self.score_weights}
        # One erosion chain and one dilation chain serve three terms: the
        # first erosion gives the boundary (edge), STABILITY_ITERATIONS of
        # them stability's inner mask; STABILITY_ITERATIONS dilations give
        # its outer mask, and RING_WIDTH of them the contrast ring.
        eroded = erode(m)
        boundary = m & ~eroded
        inner = erode(eroded, STABILITY_ITERATIONS - 1)
        outer = dilate(m, STABILITY_ITERATIONS)
        ring = dilate(outer, RING_WIDTH - STABILITY_ITERATIONS) & ~m
        edge = 0.0
        if boundary.any() and ctx.grad_p95 > 1e-9:
            edge = float(np.clip(ctx.grad_mag[boundary].mean() / ctx.grad_p95, 0.0, 1.0))
        inside = ctx.smooth[m]
        inside_mean = float(inside.mean())
        contrast = 0.0
        if ring.any():
            contrast = float(np.clip(abs(inside_mean - float(ctx.smooth[ring].mean())) / 0.25, 0.0, 1.0))
        homogeneity = float(np.exp(-((float(inside.std()) / 0.10) ** 2)))
        terms = {
            "stability": np.count_nonzero(inner) / np.count_nonzero(outer),
            "edge": edge,
            "contrast": contrast,
            "homogeneity": homogeneity,
            "area": float(n / (m.size if frame_pixels is None else frame_pixels)),
        }
        score = float(sum(self.score_weights[k] * terms[k] for k in self.score_weights))
        return score, terms

    # -- band masks -----------------------------------------------------------

    def _band_limits(
        self, ctx: AnalyticContext, vals: np.ndarray, k: float | None = None
    ) -> tuple[float, float]:
        """``(centre, half-width)`` of the intensity band around seed values."""
        m = _median(vals)
        mad = _median(np.abs(vals - m)) / 0.6745
        s = max(mad, ctx.noise_sigma, 0.01)
        return m, (self.band_k if k is None else k) * s

    def _band_mask(self, ctx: AnalyticContext, seed: np.ndarray, *, k: float | None = None) -> np.ndarray:
        """Intensity band around the seed's median, morphologically cleaned."""
        if not seed.any():
            return np.zeros_like(ctx.image, dtype=bool)
        m, half = self._band_limits(ctx, ctx.smooth[seed], k)
        return clean_mask(
            np.abs(ctx.smooth - m) <= half,
            open_radius=CLEAN_RADIUS,
            close_radius=CLEAN_RADIUS,
            min_area=self.min_component_area,
        )

    # -- prompts ----------------------------------------------------------------

    def masks_from_box(self, ctx: AnalyticContext, box: np.ndarray) -> list[MaskHypothesis]:
        """The :data:`BOX_KINDS` hypotheses for a box prompt.

        Every hypothesis lies inside the box padded by 6% + 2 px, so all of
        them are built on the padded box grown by :data:`BOX_HALO` (clipped
        to the frame; :func:`box_window`) and kept as masks of that window.
        A decode costs O(box), not O(frame), and is bit-identical to one on
        the full frame: pixels past the window are zero either way.  The
        raw masks are computed on the padded box only and written into one
        window-sized stack, which :func:`~repro.core.masks.clean_masks`
        opens and closes (all but ``bright-split``) and then clears of dust
        with one labelling.  Scores are not computed here; a hypothesis
        scores itself inside the window when its
        :attr:`~MaskHypothesis.score` is read, which equals a full-frame
        score bit for bit (gathered pixels keep their row-major order, and
        ``area`` is still a fraction of the frame).
        """
        h, w = ctx.image.shape
        (y0, y1, x0, x1), window = box_window(box, (h, w))
        wy0, wy1, wx0, wx1 = window
        win = self.crop_context(ctx, window)
        # The padded box in window coordinates; every raw mask is 0 outside it.
        y0, y1, x0, x1 = y0 - wy0, y1 - wy0, x0 - wx0, x1 - wx0
        stack = np.zeros((len(BOX_KINDS), wy1 - wy0, wx1 - wx0), dtype=bool)
        bright, dark, local, region, split = stack[:, y0:y1, x0:x1]
        crop = win.smooth[y0:y1, x0:x1]

        hi, lo = _percentiles(crop, (self.seed_quantile, 100.0 - self.seed_quantile))
        for out, seed in ((bright, crop >= hi), (dark, crop <= lo)):
            if seed.any():
                m, half = self._band_limits(win, crop[seed])
                np.less_equal(np.abs(crop - m), half, out=out)

        # Locally-bright structure: threshold the top-hat map inside the box.
        # Robust to the slow intensity drift / defocus that shifts absolute
        # values of thin structures (needle-like catalyst).
        th_crop = win.tophat[y0:y1, x0:x1]
        tau = max(0.45 * float(np.percentile(th_crop, 97)), 2.5 * win.noise_sigma)
        np.greater(th_crop, tau, out=local)

        t = _otsu_threshold_float(crop)
        sel = crop >= t
        # The Otsu side holding the box centre.
        if sel[(y0 + y1) // 2 - y0, (x0 + x1) // 2 - x0]:
            region[...] = sel
        else:
            np.logical_not(sel, out=region)
        stack[:4] = clean_masks(stack[:4], open_radius=CLEAN_RADIUS, close_radius=CLEAN_RADIUS)

        # Bright side of a (recursive) two-class split: when the box spans
        # the dark background the first Otsu cut separates background from
        # sample, so re-split the bright side until it is a minority class.
        # The half-maximum cut this converges to recovers blurred object
        # boundaries at their true position (symmetric point-spread).
        t_split = t
        for _ in range(2):
            n = np.count_nonzero(sel)
            if n / sel.size > 0.55 and n > 100:
                t2 = _otsu_threshold_float(crop[sel])
                if t2 > t_split + 0.03:
                    t_split = t2
                    sel = crop >= t_split
                    continue
            break
        split[...] = sel
        masks = clean_masks(stack, open_radius=0, close_radius=0, min_area=self.min_component_area)
        scorer = partial(self.score_mask, win, frame_pixels=h * w)
        return [MaskHypothesis(m, kind, window, (h, w), scorer) for m, kind in zip(masks, BOX_KINDS)]

    def masks_from_points(
        self,
        ctx: AnalyticContext,
        points: np.ndarray,
        labels: np.ndarray,
    ) -> list[MaskHypothesis]:
        """Tight-band / loose-band / region hypotheses for point prompts.

        ``points`` are (x, y); positive points seed the object, negative
        points veto components containing them.  The window of each
        hypothesis is the whole frame, and it is scored only when its
        score is read, so callers that rank the hypotheses themselves
        (propagation's IoU-vs-memory selection) never pay for scoring.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        labs = np.asarray(labels).reshape(-1)
        pos = pts[labs == 1]
        neg = pts[labs == 0]
        if len(pos) == 0:
            raise PromptError("point prompts need at least one positive point")
        h, w = ctx.image.shape
        seed = np.zeros((h, w), dtype=bool)
        yy, xx = np.mgrid[0:h, 0:w]
        for x, y in pos:
            seed |= (yy - y) ** 2 + (xx - x) ** 2 <= 3.0**2

        def _connected(mask: np.ndarray) -> np.ndarray:
            out = np.zeros_like(mask)
            if not mask.any():
                return out
            labelled, _ = label(mask)
            ids = set()
            for x, y in pos:
                iy, ix = int(round(y)), int(round(x))
                if 0 <= iy < h and 0 <= ix < w and labelled[iy, ix]:
                    ids.add(int(labelled[iy, ix]))
            if ids:
                out = np.isin(labelled, sorted(ids))
            return out

        def _veto(mask: np.ndarray) -> np.ndarray:
            if not len(neg) or not mask.any():
                return mask
            labelled, _ = label(mask)
            bad = set()
            for x, y in neg:
                iy, ix = int(round(y)), int(round(x))
                if 0 <= iy < h and 0 <= ix < w and labelled[iy, ix]:
                    bad.add(int(labelled[iy, ix]))
            if bad:
                mask = mask & ~np.isin(labelled, sorted(bad))
            return mask

        scorer = partial(self.score_mask, ctx, frame_pixels=h * w)

        def _hyp(mask: np.ndarray, kind: str) -> MaskHypothesis:
            return MaskHypothesis(mask, kind, (0, h, 0, w), (h, w), scorer)

        hyps = []
        tight = _veto(_connected(self._band_mask(ctx, seed, k=self.band_k * 0.75)))
        loose = _veto(_connected(self._band_mask(ctx, seed, k=self.band_k * 1.6)))
        hyps.append(_hyp(tight, "tight-band"))
        hyps.append(_hyp(loose, "loose-band"))

        side_hi = ctx.smooth >= ctx.otsu_threshold
        y0, x0 = int(round(pos[0][1])), int(round(pos[0][0]))
        y0 = min(max(y0, 0), h - 1)
        x0 = min(max(x0, 0), w - 1)
        region = side_hi if side_hi[y0, x0] else ~side_hi
        comp = component_containing(region, (y0, x0))
        region = comp if comp is not None else np.zeros_like(region)
        region = _veto(clean_mask(region, open_radius=1, close_radius=1, min_area=self.min_component_area))
        hyps.append(_hyp(region, "region"))
        return hyps
