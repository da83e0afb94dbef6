"""Channel adaptation: grayscale ↔ the 3-channel inputs RGB-trained models expect.

The simplest embedding replicates the gray channel; the *multi-scale*
embedding instead packs complementary views (raw, local-contrast-enhanced,
edge magnitude) into the three channels, giving an RGB-trained backbone
genuinely different information per channel — one of the paper's
"lightweight multi-modal adaptation techniques".
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import sobel

from ..utils.validation import ensure_2d
from .denoise import denoise_gaussian

__all__ = ["gray_to_rgb", "gray_to_multichannel", "rgb_to_gray"]


def gray_to_rgb(image: np.ndarray) -> np.ndarray:
    """Replicate a grayscale image into 3 identical channels (HxWx3)."""
    img = ensure_2d(image, "image").astype(np.float32)
    return np.repeat(img[:, :, None], 3, axis=2)


def gray_to_multichannel(image: np.ndarray, *, detail_sigma: float = 2.0) -> np.ndarray:
    """Pack (raw, local-contrast, edge-magnitude) into 3 channels.

    * channel 0 — the raw intensity;
    * channel 1 — unsharp residual ``img - gaussian(img)`` recentred at 0.5,
      highlighting local structure regardless of absolute brightness;
    * channel 2 — Sobel gradient magnitude, normalised to [0, 1].
    """
    img = ensure_2d(image, "image").astype(np.float32)
    smooth = denoise_gaussian(img, sigma=detail_sigma)
    local = np.clip(img - smooth + 0.5, 0.0, 1.0)
    gy = sobel(img, axis=0, mode="reflect")
    gx = sobel(img, axis=1, mode="reflect")
    mag = np.hypot(gy, gx)
    peak = float(mag.max())
    if peak > 0:
        mag = mag / peak
    return np.stack([img, local, mag.astype(np.float32)], axis=2)


def rgb_to_gray(image: np.ndarray) -> np.ndarray:
    """Luma conversion (Rec. 601 weights) for RGB scientific overlays."""
    arr = np.asarray(image, dtype=np.float32)
    if arr.ndim == 2:
        return arr
    if arr.ndim != 3 or arr.shape[2] < 3:
        raise ValueError(f"expected HxWx3(+) array, got shape {arr.shape}")
    return arr[:, :, 0] * 0.299 + arr[:, :, 1] * 0.587 + arr[:, :, 2] * 0.114
