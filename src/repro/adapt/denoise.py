"""Denoising for low-dose scientific images.

Four denoisers with increasing edge awareness: Gaussian, median, bilateral,
and a patch-mean non-local-means variant.  The bilateral and NLM filters are
implemented with vectorised shift-and-accumulate loops over the (small)
neighbourhood offsets, never over pixels.

``denoise_gaussian`` is also the one reflect Gaussian blur of the package:
flat-field correction, unsharp masking, the grounding feature bank and the
analytic mask head all call it.  Wide kernels run as banded matrix
products (see its docstring).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.ndimage import gaussian_filter, gaussian_filter1d, median_filter, uniform_filter

from ..utils.validation import ensure_2d, ensure_positive

__all__ = ["denoise_gaussian", "denoise_median", "denoise_bilateral", "denoise_nlm", "unsharp_mask", "flatfield_correct"]


def flatfield_correct(image: np.ndarray, *, sigma: float = 48.0, softness: float = 0.04) -> np.ndarray:
    """Sample-aware flat-field correction for slow illumination drift.

    Plain retinex (divide by a blurred copy) fails on scenes dominated by a
    dark vacuum region: the blur mixes background into the illumination
    estimate near the interface and the division distorts exactly the
    contrast that matters.  Here the illumination field is estimated by a
    *masked* blur over sample-likelihood weights (a soft Otsu split), and
    the correcting gain is applied only where the sample is:

        w      = sigmoid((img - otsu) / softness)
        illum  = blur(img·w) / blur(w)
        gain   = mean(illum | sample) / illum
        out    = img · (1 + w·(gain - 1))
    """
    img = ensure_2d(image, "image").astype(np.float32)
    ensure_positive(sigma, "sigma")
    ensure_positive(softness, "softness")
    # Soft sample weight from the global two-class split.
    hist, edges = np.histogram(np.clip(img, 0, 1), bins=128, range=(0.0, 1.0))
    p = hist.astype(np.float64) / max(hist.sum(), 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * centers)
    mu = m0[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        between = np.nan_to_num((mu * w0 - m0) ** 2 / (w0 * (1 - w0)))
    plateau = np.nonzero(between >= between.max() - 1e-12)[0]
    # Plateau midpoint: spike-dominated histograms (noiseless phases) make
    # the between-class curve flat between the modes; the edge would leak
    # background into the sample weight.
    t = float(centers[int(plateau[(len(plateau) - 1) // 2])])
    w = 1.0 / (1.0 + np.exp(-(img - t) / softness))

    num = denoise_gaussian(img * w, sigma=sigma)
    den = denoise_gaussian(w, sigma=sigma)
    illum = num / np.maximum(den, 1e-3)
    sample_mean = float((img * w).sum() / max(w.sum(), 1e-6))
    gain = sample_mean / np.maximum(illum, 0.05)
    corrected = img * (1.0 + w * (gain - 1.0))
    return np.clip(corrected, 0.0, 1.0).astype(np.float32)


def unsharp_mask(image: np.ndarray, *, amount: float = 2.0, sigma: float = 2.0) -> np.ndarray:
    """Unsharp masking: ``img + amount * (img - gaussian(img, sigma))``.

    Counteracts defocus blur so thin structures (needle-like catalyst)
    recover their half-maximum boundaries before intensity-based
    segmentation; part of the segmenter-branch adaptation recipe.
    """
    img = ensure_2d(image, "image").astype(np.float32)
    ensure_positive(sigma, "sigma")
    blurred = denoise_gaussian(img, sigma=sigma)
    return np.clip(img + np.float32(amount) * (img - blurred), 0.0, 1.0)


# Kernel radius from which a blur runs as banded matrix products, and the
# output rows per product (DESIGN.md, "Filter bank and threads", has the
# timings that fix both).
_BANDED_MIN_RADIUS = 20
_BANDED_BLOCK = 128


def denoise_gaussian(image: np.ndarray, *, sigma: float = 1.0) -> np.ndarray:
    """Gaussian smoothing (fast, blurs edges), float32, reflect boundary.

    Equal to ``scipy.ndimage.gaussian_filter(img, sigma, mode="reflect")``
    on the float32 image.  Kernels of radius ``int(4·sigma + 0.5) < 20``
    call scipy.  Wider ones run each axis as float64 products of 128-row
    blocks against scipy's reflect-folded kernel (``_reflect_operator``),
    axis 0 first and rounded to float32 in between, as scipy's float32
    buffer is.  The sums run in another order than scipy's, so an output
    can differ from scipy's by one ulp where the float32 rounding ties,
    which is rare on [0, 1] images.

    The inputs are expected finite.  On the wide path a NaN or inf spreads
    over every output of the 128-row blocks whose band reaches it, not
    only over its kernel support.
    """
    img = np.asarray(ensure_2d(image, "image"), dtype=np.float32)
    ensure_positive(sigma, "sigma")
    sigma = float(sigma)
    if int(4.0 * sigma + 0.5) < _BANDED_MIN_RADIUS:
        return gaussian_filter(img, sigma=sigma, mode="reflect")
    rows = np.empty_like(img)
    x = img.astype(np.float64)
    for a, b, lo, hi, op in _banded_operator(img.shape[0], sigma):
        rows[a:b] = op @ x[lo:hi]
    out = np.empty_like(img)
    x = rows.astype(np.float64)
    for a, b, lo, hi, op in _banded_operator(img.shape[1], sigma):
        out[:, a:b] = x[:, lo:hi] @ op.T
    return out


def _reflect_operator(n: int, sigma: float) -> np.ndarray:
    """The n×n float64 matrix of a reflect Gaussian along one axis.

    Row i holds scipy's kernel folded onto the axis by reflection
    (``d c b a | a b c d | d c b a``, repeated while the kernel is longer
    than the axis).  Each entry sums its folded taps in scipy's order
    (centre, then the symmetric pairs from the outside in), so the matrix
    equals ``gaussian_filter1d(np.eye(n), sigma, axis=0, mode="reflect")``;
    building it takes O(n·r) instead of that O(n²·r).
    """
    r = int(4.0 * sigma + 0.5)
    impulse = np.zeros(2 * r + 1)
    impulse[r] = 1.0
    kernel = gaussian_filter1d(impulse, sigma, mode="constant")
    rows = np.arange(n)

    def fold(k: np.ndarray) -> np.ndarray:
        k = np.mod(k, 2 * n)
        return np.where(k >= n, 2 * n - 1 - k, k)

    op = np.zeros((n, n))
    op[rows, rows] = kernel[r]
    for j in range(r, 0, -1):
        up, down = fold(rows + j), fold(rows - j)
        same = up == down
        op[rows, up] += np.where(same, 2.0 * kernel[r + j], kernel[r + j])
        op[rows[~same], down[~same]] += kernel[r + j]
    return op


@lru_cache(maxsize=64)
def _banded_operator(n: int, sigma: float) -> tuple[tuple[int, int, int, int, np.ndarray], ...]:
    """``_reflect_operator`` cut into 128-row blocks ``(a, b, lo, hi, op)``:
    output rows ``a:b`` are ``op @ x[lo:hi]``, and ``lo:hi`` spans the
    rows within the kernel radius of the block.  Read-only, shared by
    every thread."""
    r = int(4.0 * sigma + 0.5)
    full = _reflect_operator(n, sigma)
    blocks = []
    for a in range(0, n, _BANDED_BLOCK):
        b = min(a + _BANDED_BLOCK, n)
        lo, hi = max(0, a - r), min(n, b + r)
        op = np.ascontiguousarray(full[a:b, lo:hi])
        op.flags.writeable = False
        blocks.append((a, b, lo, hi, op))
    return tuple(blocks)


def denoise_median(image: np.ndarray, *, size: int = 3) -> np.ndarray:
    """Median filtering (robust to shot-noise outliers)."""
    img = ensure_2d(image, "image").astype(np.float32)
    if size < 1 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 1, got {size}")
    return median_filter(img, size=size, mode="reflect")


def _shifted(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Image shifted by (dy, dx) with edge replication, same shape."""
    padded = np.pad(img, ((abs(dy), abs(dy)), (abs(dx), abs(dx))), mode="edge")
    h, w = img.shape
    return padded[abs(dy) + dy : abs(dy) + dy + h, abs(dx) + dx : abs(dx) + dx + w]


# Output rows per band of the bilateral: the range weights shared by the
# offsets d and -d are kept for one band at a time (DESIGN.md, "Filter
# bank and threads").
_BILATERAL_BAND = 64


def denoise_bilateral(
    image: np.ndarray,
    *,
    sigma_spatial: float = 2.0,
    sigma_range: float = 0.1,
    radius: int | None = None,
) -> np.ndarray:
    """Bilateral filter: Gaussian in space, Gaussian in intensity difference.

    Preserves the sharp film/background interface while smoothing the
    ionomer texture — the workhorse for FIB-SEM adaptation.

    Borders replicate the edge pixel.  Each output pixel sums its offsets
    in raster order over (dy, dx) with weights ``w_s·exp(-(I[p+d]-I[p])²·c)``:
    the range factor in float32, the weight and the sums in float64.  The
    range factor of offset d at p is that of -d at p+d, so it is computed
    once per ± pair, over the band grown by the offset, and read back when
    the loop reaches -d.
    """
    img = ensure_2d(image, "image").astype(np.float32)
    ensure_positive(sigma_spatial, "sigma_spatial")
    ensure_positive(sigma_range, "sigma_range")
    r = radius if radius is not None else max(1, int(round(2 * sigma_spatial)))
    inv_2ss = 1.0 / (2.0 * sigma_spatial**2)
    inv_2sr = 1.0 / (2.0 * sigma_range**2)
    offsets = []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            w_s = np.exp(-(dy * dy + dx * dx) * inv_2ss)
            if w_s >= 1e-4:
                offsets.append((dy, dx, w_s))
    h, w = img.shape
    r = max(r, 0)
    padded = np.pad(img, r, mode="edge")

    def window(y0: int, y1: int, x0: int, x1: int) -> np.ndarray:
        """Rows y0:y1, columns x0:x1 of the edge-extended image."""
        return padded[r + y0 : r + y1, r + x0 : r + x1]

    out = np.empty_like(img)
    # Buffers taken once per call and reused by every band: a fresh array
    # per offset costs more in page faults than the arithmetic on it.
    rows = min(_BILATERAL_BAND, h)
    cell = (rows + r) * (w + r)
    acc, norm, wgt, term = (np.empty((rows, w)) for _ in range(4))
    pairs = np.empty((len(offsets) // 2 + 1) * cell, dtype=np.float32)
    for a in range(0, h, _BILATERAL_BAND):
        b = min(a + _BILATERAL_BAND, h)
        n = b - a
        band_acc, band_norm, band_wgt, band_term = acc[:n], norm[:n], wgt[:n], term[:n]
        band_acc.fill(0.0)
        band_norm.fill(0.0)
        mirrored: dict[tuple[int, int], np.ndarray] = {}
        slots = iter(range(0, pairs.size, cell))
        for dy, dx, w_s in offsets:
            shifted = window(a + dy, b + dy, dx, w + dx)
            range_w = mirrored.pop((dy, dx), None)
            if range_w is None:
                # Weights at x for x in the band and x = p - d for p in it,
                # so the pair's -d reads its own rows from the same array.
                y0, y1 = a + min(0, -dy), b + max(0, -dy)
                x0, x1 = min(0, -dx), w + max(0, -dx)
                slot = next(slots)
                pair = pairs[slot : slot + (y1 - y0) * (x1 - x0)].reshape(y1 - y0, x1 - x0)
                np.subtract(window(y0 + dy, y1 + dy, x0 + dx, x1 + dx), window(y0, y1, x0, x1), out=pair)
                # -(diff²)·c in float32, written as diff²·(-c): the same bits.
                np.square(pair, out=pair)
                np.multiply(pair, -inv_2sr, out=pair)
                np.exp(pair, out=pair)
                range_w = pair[a - y0 : b - y0, -x0 : w - x0]
                if (dy, dx) != (0, 0):
                    mirrored[-dy, -dx] = pair[a - dy - y0 : b - dy - y0, -dx - x0 : w - dx - x0]
            np.multiply(range_w, w_s, out=band_wgt)
            band_acc += np.multiply(band_wgt, shifted, out=band_term)
            band_norm += band_wgt
        out[a:b] = band_acc / np.maximum(band_norm, 1e-12)
    return out


def denoise_nlm(
    image: np.ndarray,
    *,
    patch_size: int = 3,
    search_radius: int = 4,
    h: float = 0.08,
) -> np.ndarray:
    """Non-local-means (patch-mean approximation).

    Patch distances are approximated by uniform-filtered squared differences
    between the image and its shifted copies, which turns NLM into a
    shift-and-accumulate loop over the search window — O(window²) filtered
    images instead of O(pixels · window² · patch²) scalar ops.
    """
    img = ensure_2d(image, "image").astype(np.float32)
    if patch_size < 1 or patch_size % 2 == 0:
        raise ValueError(f"patch_size must be odd and >= 1, got {patch_size}")
    ensure_positive(search_radius, "search_radius")
    ensure_positive(h, "h")
    acc = np.zeros_like(img, dtype=np.float64)
    norm = np.zeros_like(img, dtype=np.float64)
    inv_h2 = 1.0 / (h * h)
    for dy in range(-search_radius, search_radius + 1):
        for dx in range(-search_radius, search_radius + 1):
            shifted = _shifted(img, dy, dx)
            d2 = uniform_filter((shifted - img) ** 2, size=patch_size, mode="reflect")
            w = np.exp(-np.maximum(d2, 0.0) * inv_h2)
            acc += w * shifted
            norm += w
    return (acc / np.maximum(norm, 1e-12)).astype(np.float32)
