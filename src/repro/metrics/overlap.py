"""Region-overlap metrics: IoU (Jaccard) and Dice, the paper's headline numbers."""

from __future__ import annotations

import numpy as np

from ..utils.validation import ensure_mask

__all__ = ["iou", "dice"]


def iou(pred, gt) -> float:
    """Intersection over union.  Empty-vs-empty is defined as 1.0."""
    p = ensure_mask(pred, name="pred")
    g = ensure_mask(gt, shape=p.shape, name="gt")
    inter = int(np.count_nonzero(p & g))
    union = int(np.count_nonzero(p | g))
    if union == 0:
        return 1.0
    return inter / union


def dice(pred, gt) -> float:
    """Dice coefficient 2|A∩B| / (|A|+|B|).  Empty-vs-empty is 1.0."""
    p = ensure_mask(pred, name="pred")
    g = ensure_mask(gt, shape=p.shape, name="gt")
    inter = int(np.count_nonzero(p & g))
    denom = int(np.count_nonzero(p)) + int(np.count_nonzero(g))
    if denom == 0:
        return 1.0
    return 2.0 * inter / denom
