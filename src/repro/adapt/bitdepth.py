"""Bit-depth normalisation: the first data-readiness barrier.

Foundation models expect 8-bit RGB; instruments produce 8/16/32-bit
grayscale whose useful signal often occupies a narrow band of the dynamic
range.  These functions map any supported dtype to float32 [0, 1], either
by the dtype's nominal range or robustly by percentiles.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..utils.validation import ensure_ndarray, ensure_range

__all__ = ["to_float01", "robust_normalize", "nominal_range"]


def nominal_range(dtype: np.dtype) -> float:
    """Full-scale value for a dtype (1.0 for floats)."""
    dt = np.dtype(dtype)
    if dt == np.uint8:
        return 255.0
    if dt == np.uint16:
        return 65535.0
    if dt in (np.uint32, np.int32):
        return 4294967295.0
    if dt.kind == "f":
        return 1.0
    raise ValidationError(f"unsupported dtype {dt}")


def to_float01(image: np.ndarray) -> np.ndarray:
    """Scale an image to float32 [0, 1] by its dtype's nominal range."""
    arr = ensure_ndarray(image, "image")
    scale = nominal_range(arr.dtype)
    out = arr.astype(np.float32)
    if scale != 1.0:
        out /= np.float32(scale)
    return np.clip(out, 0.0, 1.0)


def robust_normalize(image: np.ndarray, *, p_lo: float = 0.5, p_hi: float = 99.5) -> np.ndarray:
    """Percentile-stretch an image to float32 [0, 1].

    Maps the ``p_lo`` percentile to 0 and ``p_hi`` to 1, clipping outside —
    the standard defence against hot pixels and detector glare that would
    otherwise crush the usable contrast after nominal scaling.
    """
    arr = ensure_ndarray(image, "image").astype(np.float32)
    ensure_range(p_lo, 0.0, 100.0, "p_lo")
    ensure_range(p_hi, 0.0, 100.0, "p_hi")
    if p_lo >= p_hi:
        raise ValidationError(f"p_lo ({p_lo}) must be < p_hi ({p_hi})")
    lo, hi = np.percentile(arr, [p_lo, p_hi])
    if hi <= lo:
        return np.zeros_like(arr, dtype=np.float32)
    out = (arr - lo) / (hi - lo)
    return np.clip(out, 0.0, 1.0).astype(np.float32)
