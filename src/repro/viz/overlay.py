"""Overlay rendering: masks and boxes on grayscale images.

Mirrors the platform UI's visualisation modes: translucent mask fill and
DINO bounding-box outlines.
"""

from __future__ import annotations

import numpy as np

from ..core.boxes import as_boxes
from ..utils.validation import ensure_mask
from .colormap import gray_to_rgb_u8, label_color

__all__ = ["overlay_mask", "draw_boxes", "extract_segment"]


def _as_rgb(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim == 3 and arr.dtype == np.uint8:
        return arr.copy()
    return gray_to_rgb_u8(arr)


def overlay_mask(
    image: np.ndarray,
    mask: np.ndarray,
    *,
    color: tuple[int, int, int] | None = None,
    alpha: float = 0.45,
    label_index: int = 0,
) -> np.ndarray:
    """Alpha-blend a colored mask over the image; returns uint8 RGB."""
    rgb = _as_rgb(image)
    m = ensure_mask(mask, shape=rgb.shape[:2])
    c = np.array(color if color is not None else label_color(label_index), dtype=np.float32)
    rgb_f = rgb.astype(np.float32)
    rgb_f[m] = (1.0 - alpha) * rgb_f[m] + alpha * c
    return np.round(rgb_f).astype(np.uint8)


def draw_boxes(
    image: np.ndarray,
    boxes,
    *,
    color: tuple[int, int, int] | None = None,
    thickness: int = 1,
) -> np.ndarray:
    """Draw XYXY box outlines; each box gets the next categorical color."""
    rgb = _as_rgb(image)
    h, w = rgb.shape[:2]
    arr = as_boxes(boxes)
    for i, (x0, y0, x1, y1) in enumerate(arr):
        c = color if color is not None else label_color(i)
        xi0, yi0 = max(int(x0), 0), max(int(y0), 0)
        xi1, yi1 = min(int(np.ceil(x1)), w), min(int(np.ceil(y1)), h)
        for t in range(thickness):
            top, bot = min(yi0 + t, h - 1), min(max(yi1 - 1 - t, 0), h - 1)
            lef, rig = min(xi0 + t, w - 1), min(max(xi1 - 1 - t, 0), w - 1)
            rgb[top, xi0:xi1] = c
            rgb[bot, xi0:xi1] = c
            rgb[yi0:yi1, lef] = c
            rgb[yi0:yi1, rig] = c
    return rgb


def extract_segment(image: np.ndarray, mask: np.ndarray, *, background: float = 0.0) -> np.ndarray:
    """The platform's "extracted segment" view: image where mask, else flat."""
    img = np.asarray(image, dtype=np.float32)
    m = ensure_mask(mask, shape=img.shape[:2])
    out = np.full_like(img, background)
    out[m] = img[m]
    return out
