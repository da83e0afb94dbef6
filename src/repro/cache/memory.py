"""In-memory LRU tier with a byte budget.

The working set of an interactive session (a handful of image embeddings,
analytic contexts, adapted branches, text encodings) fits comfortably in a
couple hundred megabytes; the budget bounds the worst case — a Mode B sweep
over a large volume — by evicting least-recently-used entries.  Sizes are
estimated by walking the stored value for ndarray buffers, which is where
essentially all the bytes live.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .stats import TierStats

__all__ = ["MemoryTier", "nbytes_of"]


def nbytes_of(obj) -> int:
    """Approximate deep size in bytes, counting ndarray buffers exactly.

    An ndarray weighs its buffer, a dataclass instance the sum of its
    fields, a dict, list, tuple or set the sum of its items, a string or
    bytes its length, and anything else ``sys.getsizeof``.
    """
    return _sizer(type(obj))(obj)


@lru_cache(maxsize=None)
def _sizer(cls: type) -> Callable[[object], int]:
    """How :func:`nbytes_of` weighs an instance of ``cls``, decided once per class.

    Cached values are walked on every put, and a dataclass's field list
    costs more to look up than its fields cost to weigh.
    """
    if issubclass(cls, np.ndarray):
        return lambda obj: int(obj.nbytes)
    if is_dataclass(cls):
        names = tuple(f.name for f in fields(cls))
        return lambda obj: sum(nbytes_of(getattr(obj, name)) for name in names)
    if issubclass(cls, dict):
        return lambda obj: sum(nbytes_of(k) + nbytes_of(v) for k, v in obj.items())
    if issubclass(cls, (list, tuple, set, frozenset)):
        return lambda obj: sum(nbytes_of(v) for v in obj)
    if issubclass(cls, (str, bytes)):
        return len
    return _getsizeof


def _getsizeof(obj) -> int:
    try:
        return int(sys.getsizeof(obj))
    except TypeError:
        return 64


class MemoryTier:
    """Byte-budgeted LRU over an :class:`collections.OrderedDict`."""

    name = "memory"

    def __init__(self, byte_budget: int = 256 * 1024 * 1024) -> None:
        self.byte_budget = int(byte_budget)
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._sizes: dict[str, int] = {}
        self.stats = TierStats(tier=self.name, byte_budget=self.byte_budget)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, default=None):
        if key not in self._entries:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return self._entries[key]

    def put(self, key: str, value, nbytes: int | None = None) -> bool:
        """Insert (or refresh) an entry; returns False when it cannot fit."""
        size = nbytes_of(value) if nbytes is None else int(nbytes)
        if size > self.byte_budget:
            return False  # larger than the whole tier: never admit
        if key in self._entries:
            self.stats.bytes_used -= self._sizes[key]
            del self._entries[key]
        self._entries[key] = value
        self._sizes[key] = size
        self.stats.bytes_used += size
        self.stats.puts += 1
        while self.stats.bytes_used > self.byte_budget and self._entries:
            old_key, _ = self._entries.popitem(last=False)
            self.stats.bytes_used -= self._sizes.pop(old_key)
            self.stats.evictions += 1
        self.stats.entries = len(self._entries)
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.stats.bytes_used = 0
        self.stats.entries = 0
