"""Bounding-box operations (XYXY convention, x along columns).

Vectorised over arrays of boxes shaped ``(N, 4)``.  Used by the grounding
detector (merging), the HITL rectifier (random proposals, distances),
and the temporal heuristic (per-slice box statistics).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..utils.rng import as_rng

__all__ = [
    "as_boxes",
    "box_area",
    "box_iou",
    "clip_boxes",
    "pad_box",
    "merge_overlapping",
    "mask_to_box",
    "random_boxes",
]


def as_boxes(boxes) -> np.ndarray:
    """Coerce to a float ``(N, 4)`` array, validating x1>x0, y1>y0."""
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 4)
    if arr.ndim == 1:
        arr = arr.reshape(1, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValidationError(f"boxes must be (N, 4), got shape {arr.shape}")
    if not ((arr[:, 2] > arr[:, 0]) & (arr[:, 3] > arr[:, 1])).all():
        raise ValidationError("every box must satisfy x1 > x0 and y1 > y0")
    return arr


def box_area(boxes) -> np.ndarray:
    """Areas of ``(N, 4)`` boxes."""
    b = as_boxes(boxes)
    return (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])


def box_iou(a, b) -> np.ndarray:
    """Pairwise IoU matrix between ``(N, 4)`` and ``(M, 4)`` boxes."""
    a = as_boxes(a)
    b = as_boxes(b)
    x0 = np.maximum(a[:, None, 0], b[None, :, 0])
    y0 = np.maximum(a[:, None, 1], b[None, :, 1])
    x1 = np.minimum(a[:, None, 2], b[None, :, 2])
    y1 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x1 - x0, 0, None) * np.clip(y1 - y0, 0, None)
    union = box_area(a)[:, None] + box_area(b)[None, :] - inter
    return np.where(union > 0, inter / union, 0.0)


def clip_boxes(boxes, image_shape: tuple[int, int]) -> np.ndarray:
    """Clip boxes to image bounds (H, W); boxes fully outside collapse is an error."""
    b = as_boxes(boxes).copy()
    h, w = image_shape
    outside = (b[:, 0] >= w) | (b[:, 1] >= h) | (b[:, 2] <= 0) | (b[:, 3] <= 0)
    if outside.any():
        raise ValidationError(f"box {b[outside][0].tolist()} lies entirely outside image {(h, w)}")
    b[:, 0] = np.clip(b[:, 0], 0, w - 1)
    b[:, 2] = np.clip(b[:, 2], 1, w)
    b[:, 1] = np.clip(b[:, 1], 0, h - 1)
    b[:, 3] = np.clip(b[:, 3], 1, h)
    if not ((b[:, 2] > b[:, 0]) & (b[:, 3] > b[:, 1])).all():
        raise ValidationError("a box collapsed to zero size after clipping")
    return b


def pad_box(box, margin: float, image_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Expand a single box by ``margin`` pixels on every side."""
    b = as_boxes(box)[0].copy()
    b += np.array([-margin, -margin, margin, margin])
    if image_shape is not None:
        b = clip_boxes(b, image_shape)[0]
    return b


def merge_overlapping(boxes, *, iou_threshold: float = 0.3) -> np.ndarray:
    """Union boxes whose IoU exceeds the threshold (transitively).

    Returns the merged ``(M, 4)`` boxes.  Used to consolidate fragmented
    detections of the same particle cluster.
    """
    b = as_boxes(boxes)
    n = len(b)
    if n == 0:
        return b
    adj = box_iou(b, b) > iou_threshold
    # Union-find over the overlap graph.
    parent = np.arange(n)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ii, jj = np.nonzero(adj)
    for i, j in zip(ii, jj):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[rj] = ri
    roots = np.array([find(i) for i in range(n)])
    merged = []
    for r in np.unique(roots):
        grp = b[roots == r]
        merged.append([grp[:, 0].min(), grp[:, 1].min(), grp[:, 2].max(), grp[:, 3].max()])
    return np.asarray(merged, dtype=np.float64)


def mask_to_box(mask: np.ndarray) -> np.ndarray | None:
    """Tight XYXY box around a mask's True pixels, or None for empty masks."""
    m = np.asarray(mask, dtype=bool)
    ys, xs = np.nonzero(m)
    if ys.size == 0:
        return None
    return np.array([xs.min(), ys.min(), xs.max() + 1, ys.max() + 1], dtype=np.float64)


def random_boxes(
    n: int,
    image_shape: tuple[int, int],
    rng=None,
    *,
    full_extent_axis: str | None = None,
    min_size: float = 8.0,
) -> np.ndarray:
    """Random candidate boxes for the HITL Rectify-Segmentation feature.

    ``full_extent_axis`` of ``"width"``/``"height"`` pins that dimension to
    the full image (the paper's "length or width equal to the image size"
    criterion); ``None`` draws both extents freely.
    """
    rng = as_rng(rng)
    h, w = image_shape
    if n < 1:
        raise ValidationError("n must be >= 1")
    boxes = np.empty((n, 4), dtype=np.float64)
    for i in range(n):
        if full_extent_axis == "width":
            x0, x1 = 0.0, float(w)
        else:
            x0 = rng.uniform(0, w - min_size)
            x1 = rng.uniform(x0 + min_size, w)
        if full_extent_axis == "height":
            y0, y1 = 0.0, float(h)
        else:
            y0 = rng.uniform(0, h - min_size)
            y1 = rng.uniform(y0 + min_size, h)
        boxes[i] = (x0, y0, x1, y1)
    return boxes
