"""Cross-cutting utilities: deterministic RNG, validation, timing, logging."""

from .logging import configure, get_logger
from .rng import GLOBAL_SEED, as_rng, derive_seed, make_rng, spawn_rng
from .timing import Timer
from .validation import (
    ensure_2d,
    ensure_3d,
    ensure_box,
    ensure_in,
    ensure_mask,
    ensure_ndarray,
    ensure_positive,
    ensure_range,
)

__all__ = [
    "GLOBAL_SEED",
    "Timer",
    "as_rng",
    "configure",
    "derive_seed",
    "ensure_2d",
    "ensure_3d",
    "ensure_box",
    "ensure_in",
    "ensure_mask",
    "ensure_ndarray",
    "ensure_positive",
    "ensure_range",
    "get_logger",
    "make_rng",
    "spawn_rng",
]
