"""Channel adaptation: grayscale → the 3-channel inputs RGB-trained models expect.

The *multi-scale* embedding packs complementary views (raw, local-contrast-enhanced,
edge magnitude) into the three channels, giving an RGB-trained backbone
genuinely different information per channel — one of the paper's
"lightweight multi-modal adaptation techniques".
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import sobel

from ..utils.validation import ensure_2d
from .denoise import denoise_gaussian

__all__ = ["gray_to_multichannel"]


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
