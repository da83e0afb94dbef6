"""Contrast adaptation: stretch and CLAHE.

All operate on float images in [0, 1] and return float32 in [0, 1].  CLAHE
(contrast-limited adaptive histogram equalisation) is implemented from
scratch with vectorised tile histograms and bilinear interpolation of the
per-tile transfer functions — the classic recipe, no per-pixel Python loops.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..utils.validation import ensure_2d, ensure_positive

__all__ = ["stretch_contrast", "clahe"]


def _as01(image: np.ndarray) -> np.ndarray:
    img = ensure_2d(image, "image").astype(np.float32)
    if img.min() < -1e-6 or img.max() > 1 + 1e-6:
        raise ValidationError("contrast ops expect images in [0, 1]; normalise bit depth first")
    return np.clip(img, 0.0, 1.0)


def stretch_contrast(image: np.ndarray, *, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Linear stretch of [lo, hi] to [0, 1]; defaults to the image min/max."""
    img = _as01(image)
    lo = float(img.min()) if lo is None else float(lo)
    hi = float(img.max()) if hi is None else float(hi)
    if hi <= lo:
        return np.zeros_like(img)
    return np.clip((img - lo) / (hi - lo), 0.0, 1.0)


def clahe(
    image: np.ndarray,
    *,
    tiles: tuple[int, int] = (8, 8),
    clip_limit: float = 2.0,
    n_bins: int = 128,
) -> np.ndarray:
    """Contrast-limited adaptive histogram equalisation.

    ``clip_limit`` is relative to the uniform bin height (2.0 = clip any bin
    above twice uniform, redistributing the excess).  Transfer functions are
    computed per tile and bilinearly interpolated between tile centres.
    """
    img = _as01(image)
    ensure_positive(clip_limit, "clip_limit")
    th, tw = tiles
    if th < 1 or tw < 1:
        raise ValidationError(f"tiles must be >= 1 in each axis, got {tiles}")
    h, w = img.shape
    th = min(th, h)
    tw = min(tw, w)

    # Tile index per pixel (tiles cover the image as evenly as possible).
    row_edges = np.linspace(0, h, th + 1).astype(np.intp)
    col_edges = np.linspace(0, w, tw + 1).astype(np.intp)

    bins = np.minimum((img * n_bins).astype(np.intp), n_bins - 1)

    # Per-tile clipped CDFs -> transfer LUTs, shape (th, tw, n_bins).
    luts = np.empty((th, tw, n_bins), dtype=np.float32)
    for i in range(th):
        for j in range(tw):
            tile_bins = bins[row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            hist = np.bincount(tile_bins.ravel(), minlength=n_bins).astype(np.float64)
            n = hist.sum()
            if n == 0:
                luts[i, j] = np.linspace(0.0, 1.0, n_bins, dtype=np.float32)
                continue
            limit = clip_limit * n / n_bins
            excess = np.maximum(hist - limit, 0.0).sum()
            hist = np.minimum(hist, limit)
            hist += excess / n_bins  # redistribute uniformly
            cdf = np.cumsum(hist)
            cdf /= cdf[-1]
            luts[i, j] = cdf.astype(np.float32)

    # Bilinear interpolation between tile-centre LUTs, fully vectorised.
    centers_y = (row_edges[:-1] + row_edges[1:]) / 2.0
    centers_x = (col_edges[:-1] + col_edges[1:]) / 2.0
    yy = np.arange(h, dtype=np.float64)
    xx = np.arange(w, dtype=np.float64)

    def _coords(vals, centers):
        # Fractional tile coordinate for every pixel coordinate.
        idx = np.interp(vals, centers, np.arange(len(centers), dtype=np.float64))
        lo = np.floor(idx).astype(np.intp)
        hi = np.minimum(lo + 1, len(centers) - 1)
        frac = (idx - lo).astype(np.float32)
        return lo, hi, frac

    ylo, yhi, yfrac = _coords(yy, centers_y)
    xlo, xhi, xfrac = _coords(xx, centers_x)

    YL = ylo[:, None]
    YH = yhi[:, None]
    XL = xlo[None, :]
    XH = xhi[None, :]
    v00 = luts[YL, XL, bins]
    v01 = luts[YL, XH, bins]
    v10 = luts[YH, XL, bins]
    v11 = luts[YH, XH, bins]
    fy = yfrac[:, None]
    fx = xfrac[None, :]
    out = (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)
    return np.clip(out, 0.0, 1.0).astype(np.float32)
