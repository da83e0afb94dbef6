"""The multi-tier inference cache and its process-global instance.

Lookup walks memory → disk; a disk hit is promoted into memory so the
second access is free.  Every value is addressed by content (see
:mod:`repro.cache.keys`), so correctness never depends on invalidation
logic: change an input array or a config field and the address changes
with it.

Cached values are shared by reference — treat them as immutable.  All
producers in this repository (encoders, adaptation, analytic heads) return
fresh arrays derived from their inputs, so sharing is safe.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..observability.metrics import MetricsRegistry, get_registry
from .disk import DiskTier
from .memory import MemoryTier, nbytes_of
from .stats import CacheStats

__all__ = [
    "MISS",
    "CacheConfig",
    "InferenceCache",
    "get_cache",
    "configure_cache",
    "reset_cache",
    "export_cache_metrics",
]


class _Miss:
    """Sentinel distinguishing a cache miss from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<cache MISS>"


MISS = _Miss()


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@dataclass(frozen=True)
class CacheConfig:
    """Tier sizes and switches (env overrides for ops tuning)."""

    enabled: bool = field(default_factory=lambda: os.environ.get("REPRO_CACHE_DISABLE", "") != "1")
    memory_bytes: int = field(default_factory=lambda: _env_int("REPRO_CACHE_BYTES", 256 * 1024 * 1024))
    disk_enabled: bool = field(default_factory=lambda: os.environ.get("REPRO_CACHE_DISK", "") == "1")
    disk_dir: Path | None = None
    disk_bytes: int = field(default_factory=lambda: _env_int("REPRO_CACHE_DISK_BYTES", 1024 * 1024 * 1024))


class InferenceCache:
    """Content-addressed, multi-tier cache for heavy inference products."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self.enabled = self.config.enabled
        self._memory = MemoryTier(byte_budget=self.config.memory_bytes)
        self._disk = (
            DiskTier(root=self.config.disk_dir, byte_budget=self.config.disk_bytes)
            if self.config.disk_enabled
            else None
        )
        self._stats = CacheStats()
        self._stats.tiers[self._memory.name] = self._memory.stats
        if self._disk is not None:
            self._stats.tiers[self._disk.name] = self._disk.stats
        self._lock = threading.RLock()

    # -- core protocol --------------------------------------------------------

    def get(self, namespace: str, key: str):
        """Look ``namespace:key`` up across tiers; returns :data:`MISS` if absent."""
        if not self.enabled:
            return MISS
        full = f"{namespace}:{key}"
        with self._lock:
            ns = self._stats.namespace(namespace)
            value = self._memory.get(full, MISS)
            if value is not MISS:
                ns.hits += 1
                return value
            if self._disk is not None:
                value = self._disk.get(full, MISS)
                if value is not MISS:
                    ns.hits += 1
                    self._memory.put(full, value)  # promote
                    return value
            ns.misses += 1
            return MISS

    def put(self, namespace: str, key: str, value) -> None:
        if not self.enabled:
            return
        full = f"{namespace}:{key}"
        size = nbytes_of(value)
        with self._lock:
            self._memory.put(full, value, nbytes=size)
            if self._disk is not None:
                self._disk.put(full, value, nbytes=size)

    def get_or_compute(self, namespace: str, key: str, compute: Callable[[], object]):
        """Return the cached value or compute-and-store it."""
        value = self.get(namespace, key)
        if value is MISS:
            value = compute()
            self.put(namespace, key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            if self._disk is not None:
                self._disk.clear()

    # -- observability --------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        return self._stats


_global_cache: InferenceCache | None = None
_global_lock = threading.Lock()


def get_cache() -> InferenceCache:
    """The process-global cache (created lazily from env defaults)."""
    global _global_cache
    if _global_cache is None:
        with _global_lock:
            if _global_cache is None:
                _global_cache = InferenceCache()
    return _global_cache


def configure_cache(config: CacheConfig) -> InferenceCache:
    """Replace the process-global cache (e.g. to enable the disk tier)."""
    global _global_cache
    with _global_lock:
        _global_cache = InferenceCache(config)
    return _global_cache


def reset_cache() -> None:
    """Drop the global cache entirely (tests; frees all held arrays)."""
    global _global_cache
    with _global_lock:
        _global_cache = None


def export_cache_metrics(
    cache: InferenceCache | None = None, registry: MetricsRegistry | None = None
) -> None:
    """Publish ``cache``'s stats (default: the global cache) to the registry.

    Per tier: ``repro_cache_{hits,misses,evictions,quarantined}_total`` and
    the gauges ``repro_cache_{bytes,entries}``, labelled ``tier``.  Per
    namespace: ``repro_cache_ns_{hits,misses}_total``, labelled
    ``namespace``.  Counters are published with :meth:`Counter.set_to`, so
    a repeat export never double-counts.  Readers call this right before
    they read (``/metrics``, run manifests, ``--profile``, the dashboard).
    """
    cache = cache if cache is not None else get_cache()
    reg = registry or get_registry()
    with cache._lock:
        tiers = [t.as_dict() for t in cache.stats.tiers.values()]
        namespaces = [(ns.namespace, ns.hits, ns.misses) for ns in cache.stats.namespaces.values()]
    for t in tiers:
        for metric in ("hits", "misses", "evictions", "quarantined"):
            reg.counter(f"repro_cache_{metric}_total", tier=t["tier"]).set_to(t[metric])
        reg.gauge("repro_cache_bytes", tier=t["tier"]).set(t["bytes_used"])
        reg.gauge("repro_cache_entries", tier=t["tier"]).set(t["entries"])
    for namespace, hits, misses in namespaces:
        reg.counter("repro_cache_ns_hits_total", namespace=namespace).set_to(hits)
        reg.counter("repro_cache_ns_misses_total", namespace=namespace).set_to(misses)
