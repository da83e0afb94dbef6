"""Cache observability: per-tier and per-namespace counters.

Every tier (memory, disk) tracks hits/misses/puts/evictions plus its byte
occupancy; every namespace (``sam.image``, ``dino.ground``, …) tracks its
own hit/miss split so ``--profile``, the Fig 8 dashboard and ``/metrics``
can show *where* reuse happens, not just that it does.

These are each cache instance's own state.
:func:`~repro.cache.export_cache_metrics` publishes them as the registry's
``repro_cache_*`` series when a reader asks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TierStats", "NamespaceStats", "CacheStats"]


@dataclass
class TierStats:
    """Counters for one storage tier."""

    tier: str
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    quarantined: int = 0  # corrupt entries moved aside, never re-read
    bytes_used: int = 0
    byte_budget: int = 0
    entries: int = 0

    def as_dict(self) -> dict:
        return {
            "tier": self.tier,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "bytes_used": self.bytes_used,
            "byte_budget": self.byte_budget,
            "entries": self.entries,
        }


@dataclass
class NamespaceStats:
    """Hit/miss split for one logical cache namespace."""

    namespace: str
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        n = self.hits + self.misses
        return self.hits / n if n else 0.0


@dataclass
class CacheStats:
    """Aggregated view over all tiers and namespaces of one cache."""

    tiers: dict[str, TierStats] = field(default_factory=dict)
    namespaces: dict[str, NamespaceStats] = field(default_factory=dict)

    def tier(self, name: str) -> TierStats:
        return self.tiers.setdefault(name, TierStats(tier=name))

    def namespace(self, name: str) -> NamespaceStats:
        return self.namespaces.setdefault(name, NamespaceStats(namespace=name))
