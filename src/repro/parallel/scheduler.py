"""Slice-domain decomposition for Mode B volume processing.

Follows the MPI decomposition idiom: a Z range is split across workers in
contiguous, balanced **blocks**.  The volume driver partitions each pooled
decode round this way, one block per forked worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParallelError

__all__ = ["SlicePartition", "block_partition"]


@dataclass(frozen=True)
class SlicePartition:
    """One worker's share of the Z range."""

    worker: int
    owned: tuple[int, ...]  # slices this worker processes


def block_partition(n_slices: int, n_workers: int) -> list[SlicePartition]:
    """Contiguous blocks of size ``ceil(n/k)`` or ``floor(n/k)``."""
    if n_workers < 1:
        raise ParallelError("n_workers must be >= 1")
    if n_slices < 1:
        raise ParallelError("n_slices must be >= 1")
    n_workers = min(n_workers, n_slices)
    base = n_slices // n_workers
    extra = n_slices % n_workers
    parts: list[SlicePartition] = []
    start = 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        parts.append(SlicePartition(worker=w, owned=tuple(range(start, start + size))))
        start += size
    return parts
