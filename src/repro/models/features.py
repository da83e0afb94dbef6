"""Engineered image feature maps backing the foundation-model surrogates.

Pretrained backbones are unavailable offline, so the cross-modal grounding
signal comes from a bank of classical per-pixel features with clear physical
meaning for microscopy:

* ``intensity``  — smoothed brightness;
* ``darkness``   — its complement (grounds "background", "pore", "void");
* ``midtone``    — peaked at mid-gray (grounds "film", "membrane");
* ``relative_brightness`` — local top-hat: brighter than the neighbourhood
  (grounds "catalyst", "particle" — both phases are locally bright);
* ``edge``       — Sobel gradient magnitude;
* ``texture``    — local high-frequency energy ("distinct features");
* ``elongation`` — structure-tensor coherence (grounds "needle",
  "crystalline": thin anisotropic structures score high).

Feature maps are computed densely, then max-pooled onto the patch grid the
grounding transformer works on (max, not mean, so 2-3 px needles survive
pooling).  Everything is vectorised; no per-pixel Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import sobel, uniform_filter

from ..adapt.denoise import denoise_gaussian
from ..utils.validation import ensure_2d

__all__ = ["FEATURE_NAMES", "PatchFeatureExtractor", "compute_feature_maps", "FeatureGrid"]

FEATURE_NAMES = (
    "intensity",
    "darkness",
    "midtone",
    "relative_brightness",
    "edge",
    "texture",
    "elongation",
)

N_FEATURES = len(FEATURE_NAMES)


def _robust01(x: np.ndarray, p_lo: float = 2.0, p_hi: float = 98.0) -> np.ndarray:
    lo, hi = np.percentile(x, [p_lo, p_hi])
    if hi <= lo:
        return np.zeros_like(x, dtype=np.float32)
    return np.clip((x - lo) / (hi - lo), 0.0, 1.0).astype(np.float32)


def compute_feature_maps(image: np.ndarray, *, smooth_sigma: float = 1.0, background_sigma: float = 14.0) -> np.ndarray:
    """Dense feature maps, shape ``(H, W, N_FEATURES)``, each in [0, 1]."""
    img = ensure_2d(image, "image").astype(np.float32)
    smooth = denoise_gaussian(img, sigma=smooth_sigma)

    intensity = np.clip(smooth, 0.0, 1.0)
    darkness = 1.0 - intensity
    midtone = 4.0 * intensity * (1.0 - intensity)

    background = denoise_gaussian(smooth, sigma=background_sigma)
    # Positive part only: flat regions score 0, locally-bright structures 1.
    pos = np.maximum(smooth - background, 0.0)
    hi = float(np.percentile(pos, 99.5))
    rel = np.clip(pos / hi, 0.0, 1.0).astype(np.float32) if hi > 1e-6 else np.zeros_like(pos, dtype=np.float32)

    gy = sobel(smooth, axis=0, mode="reflect")
    gx = sobel(smooth, axis=1, mode="reflect")
    edge = _robust01(np.hypot(gy, gx))

    highpass = img - denoise_gaussian(img, sigma=2.5)
    # uniform_filter can dip epsilon-negative on flat inputs; clamp before sqrt.
    texture = _robust01(np.sqrt(np.maximum(uniform_filter(highpass**2, size=7, mode="reflect"), 0.0)))

    # Structure-tensor coherence: (l1 - l2) / (l1 + l2) of the smoothed
    # gradient outer product; high along thin oriented structures.
    w = 2.5
    jyy = denoise_gaussian(gy * gy, sigma=w)
    jxx = denoise_gaussian(gx * gx, sigma=w)
    jxy = denoise_gaussian(gx * gy, sigma=w)
    tr = jxx + jyy
    det_term = np.sqrt(np.maximum((jxx - jyy) ** 2 + 4.0 * jxy**2, 0.0))
    coherence = np.where(tr > 1e-8, det_term / np.maximum(tr, 1e-8), 0.0)
    # Gate by edge presence so flat regions don't score as "oriented".
    elongation = (coherence * np.clip(edge * 3.0, 0.0, 1.0)).astype(np.float32)

    return np.stack(
        [intensity, darkness, midtone, rel, edge, texture, elongation], axis=-1
    ).astype(np.float32)


@dataclass(frozen=True)
class FeatureGrid:
    """Patch-level features: ``grid`` is (gh, gw, F); stride in pixels."""

    grid: np.ndarray
    stride: int
    image_shape: tuple[int, int]

    @property
    def tokens(self) -> np.ndarray:
        """Flattened view, shape (gh*gw, F)."""
        gh, gw, f = self.grid.shape
        return self.grid.reshape(gh * gw, f)


class PatchFeatureExtractor:
    """Dense features max-pooled onto a patch grid of the given stride."""

    def __init__(self, *, stride: int = 4, smooth_sigma: float = 1.0, background_sigma: float = 14.0) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.smooth_sigma = smooth_sigma
        self.background_sigma = background_sigma

    def __call__(self, image: np.ndarray) -> FeatureGrid:
        img = ensure_2d(image, "image")
        dense = compute_feature_maps(
            img, smooth_sigma=self.smooth_sigma, background_sigma=self.background_sigma
        )
        s = self.stride
        h, w, f = dense.shape
        gh, gw = h // s, w // s
        if gh < 1 or gw < 1:
            raise ValueError(f"image {h}x{w} smaller than stride {s}")
        # Max over the non-overlapping s×s blocks; rows and columns past
        # the last whole block are dropped.  Two reductions over contiguous
        # runs (block rows, then block columns) beat one over two strided
        # axes, and max is exact, so the grid is the same.
        rows = dense[: gh * s, : gw * s].reshape(gh, s, gw * s * f).max(axis=1)
        grid = rows.reshape(gh, gw, s, f).max(axis=2)
        return FeatureGrid(grid=grid, stride=s, image_shape=(h, w))
