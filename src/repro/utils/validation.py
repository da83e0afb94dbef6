"""Argument-validation helpers shared across the library.

These helpers centralise the error messages raised for malformed user input
so the platform layer can surface them verbatim in API responses.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = [
    "ensure_ndarray",
    "ensure_2d",
    "ensure_3d",
    "ensure_finite",
    "ensure_positive",
    "ensure_range",
    "ensure_box",
    "ensure_mask",
]


def ensure_ndarray(value, name: str = "array") -> np.ndarray:
    """Coerce ``value`` to an ndarray, rejecting object dtypes."""
    arr = np.asarray(value)
    if arr.dtype == object:
        raise ValidationError(f"{name} must be numeric, got object dtype")
    return arr


def ensure_2d(value, name: str = "image") -> np.ndarray:
    """Require a 2-D array (a single grayscale slice)."""
    arr = ensure_ndarray(value, name)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def ensure_3d(value, name: str = "volume") -> np.ndarray:
    """Require a 3-D array ordered (slice, row, col)."""
    arr = ensure_ndarray(value, name)
    if arr.ndim != 3:
        raise ValidationError(f"{name} must be 3-D (Z, Y, X), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def ensure_finite(value, name: str = "array") -> np.ndarray:
    """Require a non-empty numeric array with no NaN or ±inf entries.

    The platform upload path runs every user array through this before it
    reaches the pipeline: a NaN-poisoned instrument export must surface as
    a structured validation error, not as silently-empty masks (NaN
    comparisons are all-False) or a numeric crash deep in a stage.
    """
    arr = ensure_ndarray(value, name)
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.floating) or np.issubdtype(arr.dtype, np.complexfloating):
        bad = ~np.isfinite(arr)
        if bad.any():
            n_nan = int(np.isnan(arr).sum())
            n_inf = int(bad.sum()) - n_nan
            raise ValidationError(
                f"{name} contains non-finite values ({n_nan} NaN, {n_inf} inf "
                f"of {arr.size} elements)"
            )
    return arr


def ensure_positive(value, name: str = "value", *, strict: bool = True):
    """Require a (strictly) positive scalar."""
    if strict and not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_range(value, lo, hi, name: str = "value"):
    """Require ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValidationError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def ensure_box(box, image_shape: tuple[int, int] | None = None, name: str = "box") -> np.ndarray:
    """Validate an XYXY box; optionally require it to intersect the image.

    Boxes use the (x0, y0, x1, y1) convention with x along columns, matching
    GroundingDINO / SAM output conventions.
    """
    arr = np.asarray(box, dtype=np.float64).reshape(-1)
    if arr.shape != (4,):
        raise ValidationError(f"{name} must have 4 coordinates (x0, y0, x1, y1), got {box!r}")
    x0, y0, x1, y1 = arr
    if not (x1 > x0 and y1 > y0):
        raise ValidationError(f"{name} must satisfy x1 > x0 and y1 > y0, got {arr.tolist()}")
    if image_shape is not None:
        h, w = image_shape
        if x1 <= 0 or y1 <= 0 or x0 >= w or y0 >= h:
            raise ValidationError(
                f"{name} {arr.tolist()} does not intersect image of shape {(h, w)}"
            )
    return arr


def ensure_mask(mask, shape: tuple[int, ...] | None = None, name: str = "mask") -> np.ndarray:
    """Validate a boolean mask, optionally against an expected shape."""
    arr = np.asarray(mask)
    if arr.dtype != bool:
        if not np.isin(np.unique(arr), (0, 1)).all():
            raise ValidationError(f"{name} must be boolean or 0/1-valued")
        arr = arr.astype(bool)
    if shape is not None and arr.shape != tuple(shape):
        raise ValidationError(f"{name} shape {arr.shape} != expected {tuple(shape)}")
    return arr
