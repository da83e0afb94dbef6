"""Deterministic random-number utilities.

Every stochastic component in the library (synthetic data, model weight
initialisation, HITL box proposals) draws from a :class:`numpy.random.Generator`
obtained through :func:`make_rng` so that a single integer seed reproduces an
entire experiment bit-for-bit.  Sub-streams are derived with
:func:`spawn_rng` / :func:`derive_seed` which hash a textual key into the seed
sequence, so adding a new consumer never perturbs existing streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["make_rng", "derive_seed", "spawn_rng", "as_rng", "GLOBAL_SEED"]

#: Library-wide default seed used when callers do not supply one.
GLOBAL_SEED = 20250701  # the paper's date stamp (July 1, 2025)

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, *keys: str | int) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of stream keys.

    The derivation is a SHA-256 hash of the base seed and the keys, folded to
    64 bits.  It is stable across processes and Python versions (unlike
    ``hash()``), which matters because Mode B workers re-derive their streams
    independently.
    """
    h = hashlib.sha256()
    h.update(str(int(base_seed)).encode("ascii"))
    for key in keys:
        h.update(b"\x00")
        h.update(str(key).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an integer seed.

    ``None`` selects :data:`GLOBAL_SEED`, keeping the default fully
    deterministic; pass an explicit ``numpy.random.Generator`` through
    :func:`as_rng` instead when you already hold a stream.
    """
    if seed is None:
        seed = GLOBAL_SEED
    return np.random.default_rng(int(seed) & _MASK64)


def spawn_rng(rng_or_seed: np.random.Generator | int | None, *keys: str | int) -> np.random.Generator:
    """Spawn an independent child generator for the stream named by ``keys``.

    When given a generator, a 64-bit word is drawn from it to seed the child
    (cheap, sequential-dependence acceptable for intra-component use).  When
    given an integer (or ``None``), the child seed is derived positionally via
    :func:`derive_seed` so parallel workers agree without communication.
    """
    if isinstance(rng_or_seed, np.random.Generator):
        base = int(rng_or_seed.integers(0, _MASK64, dtype=np.uint64))
    else:
        base = GLOBAL_SEED if rng_or_seed is None else int(rng_or_seed)
    return make_rng(derive_seed(base, *keys))


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` (generator, seed, or ``None``) into a generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(rng)
