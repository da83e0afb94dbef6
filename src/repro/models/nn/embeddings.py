"""Patch and positional embeddings for the vision transformer and SAM prompts.

* :class:`PatchEmbed` — non-overlapping patch projection (the ViT stem),
  implemented as a reshape + matmul (a stride-p conv with kernel p is exactly
  that, and the matmul form is the fast path in NumPy).
* :func:`sincos_position_embedding` — fixed 2-D sine/cosine position codes.
* :class:`RandomFourierPositionEncoding` — SAM's continuous-coordinate
  positional encoding used by its prompt encoder.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .init import ParamFactory
from .layers import Linear

__all__ = [
    "PatchEmbed",
    "sincos_position_embedding",
    "clear_sincos_cache",
    "RandomFourierPositionEncoding",
]


class PatchEmbed:
    """Split an image into p×p patches and project each to ``dim`` channels."""

    def __init__(self, params: ParamFactory, name: str, patch: int, in_chans: int, dim: int) -> None:
        self.patch = patch
        self.in_chans = in_chans
        self.proj = Linear(params, f"{name}.proj", patch * patch * in_chans, dim)

    def __call__(self, image: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
        """``(H, W[, C])`` image → ``(n_patches, dim)`` tokens + grid shape.

        H and W must be divisible by the patch size (the caller pads).
        """
        img = np.asarray(image, dtype=np.float32)
        if img.ndim == 2:
            img = img[:, :, None]
        h, w, c = img.shape
        p = self.patch
        if h % p or w % p:
            raise ValueError(f"image {h}x{w} not divisible by patch size {p}")
        if c != self.in_chans:
            raise ValueError(f"expected {self.in_chans} channels, got {c}")
        gh, gw = h // p, w // p
        # (gh, p, gw, p, c) -> (gh*gw, p*p*c)
        patches = img.reshape(gh, p, gw, p, c).transpose(0, 2, 1, 3, 4).reshape(gh * gw, p * p * c)
        return self.proj(np.ascontiguousarray(patches)), (gh, gw)


# sincos_position_embedding is pure in (grid, dim) but recomputed on every
# set_image; a tiny keyed LRU makes the second encode of any grid shape free.
# Thread-safety: entries are computed outside the lock (two threads may race
# to compute the same key — both get correct values, last write wins) and the
# OrderedDict itself is only touched under ``_SINCOS_LOCK``.  Cached arrays
# are returned directly but marked read-only so no caller can corrupt them.
_SINCOS_LOCK = threading.Lock()
_SINCOS_CACHE: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
_SINCOS_CACHE_MAX = 32


def clear_sincos_cache() -> None:
    """Drop every cached positional-embedding table (tests, memory pressure)."""
    with _SINCOS_LOCK:
        _SINCOS_CACHE.clear()


def sincos_position_embedding(grid: tuple[int, int], dim: int) -> np.ndarray:
    """Fixed 2-D sine/cosine positional embedding, shape ``(gh*gw, dim)``.

    Results are cached per ``(gh, gw, dim)`` (LRU, small) and returned as
    read-only arrays — callers add them into fresh token buffers.
    """
    if dim % 4 != 0:
        raise ValueError(f"dim must be divisible by 4, got {dim}")
    gh, gw = grid
    key = (int(gh), int(gw), int(dim))
    with _SINCOS_LOCK:
        hit = _SINCOS_CACHE.get(key)
        if hit is not None:
            _SINCOS_CACHE.move_to_end(key)
            return hit
    table = _compute_sincos((gh, gw), dim)
    table.setflags(write=False)
    with _SINCOS_LOCK:
        _SINCOS_CACHE[key] = table
        _SINCOS_CACHE.move_to_end(key)
        while len(_SINCOS_CACHE) > _SINCOS_CACHE_MAX:
            _SINCOS_CACHE.popitem(last=False)
    return table


def _compute_sincos(grid: tuple[int, int], dim: int) -> np.ndarray:
    gh, gw = grid
    quarter = dim // 4
    omega = 1.0 / (10000.0 ** (np.arange(quarter, dtype=np.float64) / quarter))
    ys, xs = np.mgrid[0:gh, 0:gw]
    out = np.concatenate(
        [
            np.sin(ys.reshape(-1, 1) * omega),
            np.cos(ys.reshape(-1, 1) * omega),
            np.sin(xs.reshape(-1, 1) * omega),
            np.cos(xs.reshape(-1, 1) * omega),
        ],
        axis=1,
    )
    return out.astype(np.float32)


class RandomFourierPositionEncoding:
    """SAM's positional encoding for continuous [0,1]² coordinates.

    Coordinates are projected by a fixed Gaussian matrix, then mapped through
    sin/cos.  Output dim is ``2 * n_features``.
    """

    def __init__(self, params: ParamFactory, name: str, n_features: int, *, scale: float = 1.0) -> None:
        self.matrix = params.normal(f"{name}.gaussian", (2, n_features), std=scale)
        self.dim = 2 * n_features

    def encode_points(self, coords01: np.ndarray) -> np.ndarray:
        """``(N, 2)`` normalised (x, y) coordinates → ``(N, dim)`` codes."""
        c = 2.0 * np.asarray(coords01, dtype=np.float32) - 1.0
        proj = (2.0 * np.pi) * (c @ self.matrix)
        return np.concatenate([np.sin(proj), np.cos(proj)], axis=-1)

    def encode_grid(self, grid: tuple[int, int]) -> np.ndarray:
        """Dense codes for a gh×gw grid of pixel centres, ``(gh, gw, dim)``."""
        gh, gw = grid
        ys = (np.arange(gh, dtype=np.float32) + 0.5) / gh
        xs = (np.arange(gw, dtype=np.float32) + 0.5) / gw
        coords = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)  # (x, y) order
        return self.encode_points(coords).reshape(gh, gw, self.dim)

