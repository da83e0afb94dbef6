"""FIB-SEM artifact and noise models.

Each function maps a float image in [0, 1] to a corrupted float image in
[0, 1] (clipping at the end, like a detector saturating).  The models cover
the artifacts the paper blames for non-AI-readiness:

* **Poisson-Gaussian noise** — shot noise at low dose plus readout noise.
* **Curtaining** — vertical intensity stripes from uneven ion milling.
* **Charging** — bright halos where insulating material accumulates charge.
* **Defocus** — Gaussian blur with per-slice varying sigma (the paper cites
  "variability in contrast caused by defocus and sample topography").
* **Slice drift** — multiplicative brightness drift along Z.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import distance_transform_edt, gaussian_filter

from ...utils.rng import as_rng
from ...utils.validation import ensure_2d, ensure_range
from .shapes import smooth_noise_1d

__all__ = [
    "add_poisson_gaussian_noise",
    "add_curtaining",
    "add_charging",
    "apply_defocus",
    "apply_drift",
]


def _clip01(img: np.ndarray) -> np.ndarray:
    return np.clip(img, 0.0, 1.0, out=img)


def add_poisson_gaussian_noise(
    image: np.ndarray,
    rng,
    *,
    dose: float = 400.0,
    read_sigma: float = 0.015,
) -> np.ndarray:
    """Shot noise for an expected ``dose`` electrons/pixel plus readout noise.

    Lower dose → stronger relative shot noise, matching low-dose FIB-SEM of
    beam-sensitive ionomer samples.
    """
    img = ensure_2d(image, "image").astype(np.float64, copy=False)
    rng = as_rng(rng)
    counts = rng.poisson(np.maximum(img, 0.0) * dose).astype(np.float64)
    noisy = counts / dose
    noisy += rng.normal(scale=read_sigma, size=img.shape)
    return _clip01(noisy)


def add_curtaining(
    image: np.ndarray,
    rng,
    *,
    strength: float = 0.06,
    n_modes: int = 24,
) -> np.ndarray:
    """Vertical milling stripes: a smooth per-column gain field.

    ``strength`` is the RMS relative amplitude of the stripes.
    """
    img = ensure_2d(image, "image").astype(np.float64, copy=True)
    ensure_range(strength, 0.0, 1.0, "strength")
    rng = as_rng(rng)
    stripes = smooth_noise_1d(img.shape[1], rng, n_modes=n_modes, amplitude=strength)
    img *= 1.0 + stripes[None, :]
    return _clip01(img)


def add_charging(
    image: np.ndarray,
    mask: np.ndarray,
    *,
    strength: float = 0.12,
    decay_px: float = 4.0,
) -> np.ndarray:
    """Bright charging halo decaying with distance outside ``mask``.

    Insulating phases (the ionomer) glow near their boundaries; the halo
    brightness is ``strength * exp(-d / decay_px)`` for distance ``d`` from
    the masked phase.
    """
    img = ensure_2d(image, "image").astype(np.float64, copy=True)
    m = np.asarray(mask, dtype=bool)
    if m.shape != img.shape:
        raise ValueError(f"mask shape {m.shape} != image shape {img.shape}")
    if not m.any() or m.all():
        return _clip01(img)
    dist = distance_transform_edt(~m)
    halo = strength * np.exp(-dist / max(decay_px, 1e-6))
    halo[m] = 0.0
    img += halo
    return _clip01(img)


def apply_defocus(image: np.ndarray, *, sigma: float = 1.0) -> np.ndarray:
    """Gaussian defocus blur with standard deviation ``sigma`` pixels."""
    img = ensure_2d(image, "image").astype(np.float64, copy=False)
    if sigma <= 0:
        return _clip01(img.copy())
    return _clip01(gaussian_filter(img, sigma=sigma, mode="reflect"))


def apply_drift(image: np.ndarray, *, gain: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Per-slice brightness drift: ``gain * image + offset``."""
    img = ensure_2d(image, "image").astype(np.float64, copy=True)
    img *= gain
    img += offset
    return _clip01(img)
