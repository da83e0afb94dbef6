"""Content-addressed inference cache (memory LRU + optional disk tier).

The interactive claims of the paper — HITL rectification, Further Segment,
the live Mode C dashboard — all revisit images and prompts the session has
already seen.  Upstream SAM amortizes its image embedding once per image so
thousands of prompts are cheap; this package generalises that idiom to the
whole Zenesis stack: SAM image embeddings and analytic contexts, DINO text
and image encodings, full grounding results, both adaptation branches, and
batched decoder outputs are cached under SHA-1 content addresses combined
with model-config fingerprints (see :mod:`repro.cache.keys`).

Public surface:

* :func:`get_cache` / :func:`configure_cache` — the process-global cache;
* :class:`InferenceCache`, :class:`CacheConfig` — explicit instances;
* :data:`MISS` — the miss sentinel returned by :meth:`InferenceCache.get`;
* :func:`array_content_key`, :func:`config_fingerprint`,
  :func:`combine_keys` — key construction;
* :class:`CacheStats` + :func:`export_cache_metrics` — observability: each
  cache's own stats, published as the registry's ``repro_cache_*`` series.
"""

from .core import (
    MISS,
    CacheConfig,
    InferenceCache,
    configure_cache,
    export_cache_metrics,
    get_cache,
    reset_cache,
)
from .disk import DiskTier, default_cache_dir
from .keys import array_content_key, combine_keys, config_fingerprint
from .memory import MemoryTier, nbytes_of
from .stats import CacheStats, NamespaceStats, TierStats

__all__ = [
    "MISS",
    "CacheConfig",
    "InferenceCache",
    "configure_cache",
    "export_cache_metrics",
    "get_cache",
    "reset_cache",
    "DiskTier",
    "default_cache_dir",
    "MemoryTier",
    "nbytes_of",
    "array_content_key",
    "combine_keys",
    "config_fingerprint",
    "CacheStats",
    "NamespaceStats",
    "TierStats",
]
