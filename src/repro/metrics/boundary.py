"""Boundary-aware metric: boundary F1.

Complement the overlap metrics: two masks with equal IoU can have very
different boundary quality, which matters for morphology measurements
(surface area of catalyst, for instance).
"""

from __future__ import annotations

from scipy.ndimage import distance_transform_edt

from ..core.masks import mask_boundary
from ..utils.validation import ensure_mask

__all__ = ["boundary_f1"]


def boundary_f1(pred, gt, *, tolerance_px: float = 2.0) -> float:
    """Boundary F1: precision/recall of boundary pixels within a tolerance."""
    p = ensure_mask(pred, name="pred")
    g = ensure_mask(gt, shape=p.shape, name="gt")
    bp = mask_boundary(p)
    bg = mask_boundary(g)
    if not bp.any() and not bg.any():
        return 1.0
    if not bp.any() or not bg.any():
        return 0.0
    dist_to_g = distance_transform_edt(~bg)
    dist_to_p = distance_transform_edt(~bp)
    prec = float((dist_to_g[bp] <= tolerance_px).mean())
    rec = float((dist_to_p[bg] <= tolerance_px).mean())
    if prec + rec == 0:
        return 0.0
    return 2 * prec * rec / (prec + rec)
