"""Additional classical baselines for the ablation benches.

These are not in the paper's tables but anchor the comparison: watershed on
the gradient map, k-means intensity clustering, and local adaptive (mean
offset) thresholding.  All operate on robust-normalised float images and
return boolean masks with foreground = brightest phase.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import sobel, uniform_filter
from scipy.ndimage import watershed_ift

from ..adapt.bitdepth import robust_normalize
from ..adapt.denoise import denoise_gaussian
from ..errors import ValidationError
from ..utils.validation import ensure_2d

__all__ = ["kmeans_segment", "adaptive_threshold_segment", "watershed_segment"]


def kmeans_segment(image: np.ndarray, *, k: int = 3, n_iter: int = 25, normalize: bool = True) -> np.ndarray:
    """1-D k-means on intensities; foreground = the brightest cluster.

    Lloyd's algorithm on the histogram (256 bins) — exact enough for
    intensity clustering and O(bins·k) per iteration.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    img = np.asarray(image)
    f = robust_normalize(img) if normalize else ensure_2d(img).astype(np.float32)
    hist, edges = np.histogram(f, bins=256, range=(0.0, 1.0))
    centers_bins = (edges[:-1] + edges[1:]) / 2.0
    weights = hist.astype(np.float64)
    centroids = np.quantile(f, (np.arange(k) + 0.5) / k)
    for _ in range(n_iter):
        assign = np.argmin(np.abs(centers_bins[:, None] - centroids[None, :]), axis=1)
        new = centroids.copy()
        for c in range(k):
            sel = assign == c
            wsum = weights[sel].sum()
            if wsum > 0:
                new[c] = (weights[sel] * centers_bins[sel]).sum() / wsum
        if np.allclose(new, centroids, atol=1e-6):
            centroids = new
            break
        centroids = new
    brightest = int(np.argmax(centroids))
    assign = np.argmin(np.abs(centers_bins[:, None] - centroids[None, :]), axis=1)
    bin_idx = np.minimum((f * 256).astype(np.intp), 255)
    return assign[bin_idx] == brightest


def adaptive_threshold_segment(
    image: np.ndarray,
    *,
    window: int = 31,
    offset: float = 0.05,
    normalize: bool = True,
) -> np.ndarray:
    """Local mean thresholding: fg where ``img > local_mean + offset``."""
    if window < 3 or window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 3, got {window}")
    img = np.asarray(image)
    f = robust_normalize(img) if normalize else ensure_2d(img).astype(np.float32)
    local = uniform_filter(f, size=window, mode="reflect")
    return f > (local + offset)


def watershed_segment(
    image: np.ndarray,
    *,
    marker_quantiles: tuple[float, float] = (0.12, 0.92),
    smooth_sigma: float = 1.5,
    normalize: bool = True,
) -> np.ndarray:
    """Gradient watershed from dark/bright markers; fg = bright basin.

    Markers come from the intensity quantiles; the flooding runs on the
    Sobel gradient magnitude (scipy's integer watershed_ift).
    """
    img = np.asarray(image)
    f = robust_normalize(img) if normalize else ensure_2d(img).astype(np.float32)
    smooth = denoise_gaussian(f, sigma=smooth_sigma)
    gy = sobel(smooth, axis=0, mode="reflect")
    gx = sobel(smooth, axis=1, mode="reflect")
    grad = np.hypot(gy, gx)
    grad_u8 = np.round(255 * grad / max(float(grad.max()), 1e-9)).astype(np.uint8)

    lo_q, hi_q = marker_quantiles
    lo, hi = np.quantile(smooth, [lo_q, hi_q])
    markers = np.zeros(f.shape, dtype=np.int32)
    # Seed only robust extrema (local maxima of distance-from-threshold).
    dark = smooth <= lo
    bright = smooth >= hi
    markers[dark] = 1
    markers[bright] = 2
    if not dark.any() or not bright.any():
        return bright
    flooded = watershed_ift(grad_u8, markers)
    return flooded == 2
