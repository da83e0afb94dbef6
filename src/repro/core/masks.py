"""Mask operations: RLE codec, components, boundaries, morphology, stability.

The RLE codec matches the COCO-style column-major convention SAM tooling
uses, so the API's RLE masks interoperate.  Binary morphology is one pair
of NumPy shift kernels, :func:`dilate` and :func:`erode`: every erosion,
dilation, opening and closing in the package goes through them.  They
match ``scipy.ndimage``'s default cross element with pixels outside the
array read as 0, at a few microseconds per call instead of scipy's ~100 µs
fixed cost.  Hole filling stays with ``scipy.ndimage``, and so does
component labelling, through :func:`label`: the one place the package
decides connectivity.  :func:`clean_masks` cleans a stack of masks with one
call of each, shifting and connecting only within a plane, and
:func:`clean_mask` is its one-plane case.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import ndimage
from scipy.ndimage import binary_fill_holes, generate_binary_structure

from ..errors import ValidationError
from ..utils.validation import ensure_mask

__all__ = [
    "rle_encode",
    "rle_decode",
    "label",
    "connected_components",
    "component_containing",
    "dilate",
    "erode",
    "mask_boundary",
    "clean_mask",
    "clean_masks",
    "stability_score",
    "masks_iou",
]


def rle_encode(mask: np.ndarray) -> dict:
    """Column-major run-length encoding (COCO uncompressed-RLE convention).

    Counts alternate background/foreground runs, starting with background.
    """
    m = ensure_mask(mask)
    if m.ndim != 2:
        raise ValidationError(f"rle_encode expects a 2-D mask, got shape {m.shape}")
    flat = m.flatten(order="F").astype(np.int8)
    changes = np.nonzero(np.diff(flat))[0] + 1
    points = np.concatenate([[0], changes, [flat.size]])
    counts = np.diff(points).tolist()
    if flat.size and flat[0] == 1:
        counts = [0] + counts  # must start with a background run
    return {"size": list(m.shape), "counts": counts}


def rle_decode(rle: dict) -> np.ndarray:
    """Inverse of :func:`rle_encode`."""
    h, w = rle["size"]
    counts = rle["counts"]
    total = int(np.sum(counts))
    if total != h * w:
        raise ValidationError(f"RLE counts sum to {total}, expected {h * w}")
    vals = np.zeros(total, dtype=bool)
    pos = 0
    val = False
    for c in counts:
        if val:
            vals[pos : pos + c] = True
        pos += c
        val = not val
    return vals.reshape((h, w), order="F")


@lru_cache(maxsize=None)
def _cross(ndim: int) -> np.ndarray:
    """scipy's default (cross) labelling element, built once per ``ndim``."""
    structure = generate_binary_structure(ndim, 1)
    structure.setflags(write=False)
    return structure


def label(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``scipy.ndimage.label(m)``: cross connectivity, element built once per ``ndim``."""
    return ndimage.label(m, structure=_cross(m.ndim))


def connected_components(mask: np.ndarray, *, min_area: int = 1) -> list[np.ndarray]:
    """Split a mask into per-component masks, largest first."""
    m = ensure_mask(mask)
    labels, n = label(m)
    if n == 0:
        return []
    areas = np.bincount(labels.ravel())[1:]
    order = np.argsort(-areas)
    return [labels == (i + 1) for i in order if areas[i] >= min_area]


def component_containing(mask: np.ndarray, point_yx: tuple[float, float]) -> np.ndarray | None:
    """The component containing a (y, x) point, or None."""
    m = ensure_mask(mask)
    y, x = int(round(point_yx[0])), int(round(point_yx[1]))
    if not (0 <= y < m.shape[0] and 0 <= x < m.shape[1]) or not m[y, x]:
        return None
    labels, _ = label(m)
    return labels == labels[y, x]


@lru_cache(maxsize=None)
def _shifts(ndim: int, first_axis: int = 0) -> tuple[tuple[tuple, tuple, tuple, tuple], ...]:
    """Per axis from ``first_axis`` on: index tuples for "all but the first"
    and "all but the last" plane along it, then the first and the last plane."""
    def along(axis: int, index) -> tuple:
        return tuple(index if i == axis else slice(None) for i in range(ndim))

    return tuple(
        (along(ax, slice(1, None)), along(ax, slice(None, -1)), along(ax, 0), along(ax, -1))
        for ax in range(first_axis, ndim)
    )


def _checked(mask: np.ndarray, iterations: int) -> np.ndarray:
    if iterations < 1:
        raise ValidationError(f"morphology iterations must be >= 1, got {iterations}")
    return ensure_mask(mask)


def _dilate(m: np.ndarray, iterations: int, first_axis: int) -> np.ndarray:
    for _ in range(iterations):
        out = m.copy()
        for tail, head, _, _ in _shifts(m.ndim, first_axis):
            out[tail] |= m[head]
            out[head] |= m[tail]
        m = out
    return m


def _erode(m: np.ndarray, iterations: int, first_axis: int) -> np.ndarray:
    for _ in range(iterations):
        out = m.copy()
        for tail, head, first, last in _shifts(m.ndim, first_axis):
            out[tail] &= m[head]
            out[head] &= m[tail]
            out[first] = False
            out[last] = False
        m = out
    return m


def dilate(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    """Binary dilation by the cross element, ``iterations`` times.

    Each iteration ORs the mask with its one-pixel shifts along every
    axis; pixels outside the array are 0, as in scipy.ndimage's dilation
    with its default structuring element.  Returns a new array; ``mask``
    may be any view and is not modified.
    """
    return _dilate(_checked(mask, iterations), iterations, 0)


def erode(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    """Binary erosion by the cross element, ``iterations`` times.

    A pixel survives an iteration when it and its face neighbours are all
    set; pixels outside the array are 0, so the outermost planes always
    clear, as in scipy.ndimage's erosion with ``border_value=0``.  Returns
    a new array; ``mask`` may be any view and is not modified.
    """
    return _erode(_checked(mask, iterations), iterations, 0)


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """One-pixel-wide boundary of a mask (mask minus its erosion)."""
    m = ensure_mask(mask)
    return m & ~erode(m)


@lru_cache(maxsize=None)
def _plane_cross(ndim: int) -> np.ndarray:
    """Connectivity of a stack of ``ndim - 1``-D planes: the plane's cross
    element in the middle, nothing across planes."""
    structure = np.zeros((3,) * ndim, dtype=bool)
    structure[1] = generate_binary_structure(ndim - 1, 1)
    structure.setflags(write=False)
    return structure


def clean_masks(
    masks: np.ndarray,
    *,
    open_radius: int = 1,
    close_radius: int = 1,
    fill_holes: bool = False,
    min_area: int = 0,
) -> np.ndarray:
    """:func:`clean_mask` on every plane of a stack ``(N, ...)`` at once.

    Morphology shifts only along the plane axes, and hole filling and
    component labelling use :func:`_plane_cross`, so no pixel reaches across
    planes: plane ``i`` of the result is ``clean_mask(masks[i])``.  One
    morphology chain, one labelling and one ``bincount`` serve the whole
    stack.  Returns a new array.
    """
    m = ensure_mask(masks)
    if m.ndim < 2:
        raise ValidationError(f"clean_masks expects a stack of masks, got shape {m.shape}")
    m = m.copy()
    if open_radius > 0:
        m = _dilate(_erode(m, open_radius, 1), open_radius, 1)
    if close_radius > 0:
        m = _erode(_dilate(m, close_radius, 1), close_radius, 1)
    if fill_holes:
        m = binary_fill_holes(m, structure=_plane_cross(m.ndim))
    if min_area > 0 and m.any():
        labels, n = ndimage.label(m, structure=_plane_cross(m.ndim))
        if n:
            # Label 0 is the background, so the kept pixels are exactly the
            # labels whose area reaches min_area.
            keep = np.bincount(labels.ravel()) >= min_area
            keep[0] = False
            m = keep[labels]
    return m


def clean_mask(
    mask: np.ndarray,
    *,
    open_radius: int = 1,
    close_radius: int = 1,
    fill_holes: bool = False,
    min_area: int = 0,
) -> np.ndarray:
    """Morphological cleanup: opening, closing, optional hole fill, dust removal."""
    return clean_masks(
        ensure_mask(mask)[None],
        open_radius=open_radius,
        close_radius=close_radius,
        fill_holes=fill_holes,
        min_area=min_area,
    )[0]


def stability_score(mask: np.ndarray, *, iterations: int = 2) -> float:
    """SAM-style stability: IoU between eroded and dilated versions.

    1.0 means the mask barely changes when its decision boundary is
    perturbed; thin/noisy masks score low.
    """
    m = ensure_mask(mask)
    lo = erode(m, iterations)
    hi = dilate(m, iterations)
    inter = np.count_nonzero(lo)
    union = np.count_nonzero(hi)
    return float(inter / union) if union else 0.0


def masks_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU between two boolean masks of the same shape."""
    ma = ensure_mask(a)
    mb = ensure_mask(b, shape=ma.shape, name="b")
    inter = np.count_nonzero(ma & mb)
    union = np.count_nonzero(ma | mb)
    return float(inter / union) if union else 0.0
