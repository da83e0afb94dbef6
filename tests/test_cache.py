"""Tests for the content-addressed inference cache (repro.cache).

Covers key stability across array memory layouts, dtype/shape sensitivity,
config-fingerprint invalidation, LRU eviction, the disk tier (roundtrip,
promotion, persistence across instances), and end-to-end reuse through the
Zenesis pipeline.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from repro.cache import (
    MISS,
    CacheConfig,
    InferenceCache,
    MemoryTier,
    array_content_key,
    combine_keys,
    config_fingerprint,
    export_cache_metrics,
    nbytes_of,
)
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.models.sam.model import SamPredictor
from repro.models.text import default_lexicon
from repro.observability import MetricsRegistry, format_profile, get_registry


def _ns_counts(cache: InferenceCache) -> dict[str, int]:
    """``{"<namespace>.hits": n, "<namespace>.misses": n}`` from the cache's stats."""
    out = {}
    for name, ns in cache.stats.namespaces.items():
        out[f"{name}.hits"], out[f"{name}.misses"] = ns.hits, ns.misses
    return out


def _ns_delta(cache: InferenceCache, before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in _ns_counts(cache).items()}


class TestArrayContentKey:
    def test_same_content_same_key(self, rng):
        a = rng.random((17, 23))
        assert array_content_key(a) == array_content_key(a.copy())

    def test_view_and_noncontiguous_copy_match(self, rng):
        a = rng.random((16, 16))
        assert array_content_key(a) == array_content_key(a.T.copy().T)  # stride-jumbled view
        assert array_content_key(a) == array_content_key(np.asfortranarray(a))
        wide = rng.random((16, 32))
        sliced = wide[:, ::2]  # non-contiguous view
        assert not sliced.flags.c_contiguous
        assert array_content_key(sliced) == array_content_key(np.ascontiguousarray(sliced))

    def test_dtype_sensitivity(self):
        a32 = np.arange(12, dtype=np.float32)
        a64 = np.arange(12, dtype=np.float64)
        assert array_content_key(a32) != array_content_key(a64)

    def test_shape_sensitivity(self):
        flat = np.arange(12, dtype=np.float32)
        assert array_content_key(flat) != array_content_key(flat.reshape(3, 4))

    def test_value_sensitivity(self, rng):
        a = rng.random((8, 8))
        b = a.copy()
        b[3, 3] += 1e-9
        assert array_content_key(a) != array_content_key(b)


@dataclass(frozen=True)
class _Knobs:
    sigma: float = 1.5
    tiles: tuple[int, int] = (8, 8)
    name: str = "x"


class TestConfigFingerprint:
    def test_equal_configs_equal_fingerprint(self):
        assert config_fingerprint(_Knobs()) == config_fingerprint(_Knobs())
        cfg = {"dim": 96, "depth": 4}
        assert config_fingerprint(cfg) == config_fingerprint(cfg)  # stable across calls

    def test_any_field_change_invalidates(self):
        base = config_fingerprint(_Knobs())
        assert config_fingerprint(replace(_Knobs(), sigma=1.6)) != base
        assert config_fingerprint(replace(_Knobs(), tiles=(4, 4))) != base
        assert config_fingerprint(replace(_Knobs(), name="y")) != base

    def test_multiple_objects_and_order(self):
        a, b = _Knobs(), _Knobs(sigma=2.0)
        assert config_fingerprint(a, b) != config_fingerprint(b, a)

    def test_ndarray_fields_hash_by_content(self, rng):
        arr = rng.random(5)
        assert config_fingerprint({"w": arr}) == config_fingerprint({"w": arr.copy()})

    def test_lexicon_fingerprint_changes_on_add(self):
        lex = default_lexicon()
        before = lex.fingerprint()
        assert lex.fingerprint() == before  # stable until mutated
        lex.add("martensite", np.ones(len(lex.entries["bright"]), dtype=np.float32))
        assert lex.fingerprint() != before

    def test_combine_keys(self):
        assert combine_keys("a", "b", "c") == "a|b|c"

    def test_pipeline_config_fingerprint_is_pinned(self):
        # Every cache entry, checkpoint and durable job identity is keyed
        # with this value: a change to ZenesisConfig's fields or to the
        # canonical form that moves it invalidates all of them.
        from repro.core.pipeline import ZenesisConfig

        assert config_fingerprint(ZenesisConfig()) == "874683b13d882dfd903049010456265f9c15f5c8"
        assert config_fingerprint(ZenesisConfig(box_threshold=0.5)) != config_fingerprint(
            ZenesisConfig()
        )

    def test_sam_predictor_fingerprint_is_pinned(self):
        # Keys every sam.image / sam.embedding / sam.dense_pe entry.
        from repro.models.sam.model import SamPredictor

        assert SamPredictor()._fingerprint == "d3e180205761d982a8181e36a8b59f3bb0a43864"

    def test_grounding_dino_config_fingerprint_is_pinned(self):
        # Keys every dino.* entry (the text side also folds in the lexicon).
        from repro.models.dino import GroundingDino

        assert GroundingDino()._config_fp() == "ea1f8302b9b11939dd7f02b65bf2b8b4540e1497"


class TestMemoryTier:
    def test_lru_eviction_order(self):
        arr = np.zeros(100, dtype=np.uint8)  # 100 B each
        tier = MemoryTier(byte_budget=250)
        tier.put("a", arr)
        tier.put("b", arr)
        tier.get("a")  # refresh a; b is now LRU
        tier.put("c", arr)  # 300 B > 250 → evict b
        assert "a" in tier and "c" in tier and "b" not in tier
        assert tier.stats.evictions == 1
        assert tier.stats.bytes_used == 200

    def test_oversized_value_refused(self):
        tier = MemoryTier(byte_budget=50)
        assert not tier.put("big", np.zeros(100, dtype=np.uint8))
        assert "big" not in tier

    def test_nbytes_walks_containers(self):
        a = np.zeros((4, 4), dtype=np.float64)  # 128 B
        assert nbytes_of((a, [a], {"k": a})) >= 3 * 128

    def test_nbytes_equals_field_walk_for_every_cached_value(self, crystalline_sample):
        pipe = ZenesisPipeline()
        vol = crystalline_sample.volume.voxels[:2]
        pipe.segment_volume(vol, "catalyst particles")
        pipe.segment_image(crystalline_sample.volume.slice_image(0), "bright particles")
        predictor = SamPredictor(pipe.sam, cache=pipe.cache)
        _, seg_img = pipe.adapt(vol[0])
        predictor.set_image(seg_img)
        predictor.predict(box=np.array([20.0, 20.0, 60.0, 70.0]))
        predictor.predict_boxes(np.array([[20.0, 20.0, 60.0, 70.0], [5.0, 50.0, 40.0, 90.0]]))
        memory = pipe.cache._memory
        namespaces = {key.split(":", 1)[0] for key in memory._entries}
        assert {
            "pipeline.adapt", "dino.text", "dino.image", "dino.ground",
            "sam.image", "sam.analytic_box", "sam.embedding", "sam.dense_pe", "sam.decode",
        } <= namespaces
        for key, value in memory._entries.items():
            assert nbytes_of(value) == _field_walk_nbytes(value) == memory._sizes[key], key

    def test_nbytes_of_odd_values(self):
        @dataclass
        class Point:
            xy: tuple
            tag: str

        values = [
            Point, Point((1, 2), "p"), [Point((3.5, None), "q")], {"k": b"abc"}, frozenset({1, 2}), object(),
        ]
        for value in values:
            assert nbytes_of(value) == _field_walk_nbytes(value)


def _field_walk_nbytes(obj) -> int:
    """``nbytes_of`` as it read dataclass fields before they were memoised per class."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_field_walk_nbytes(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, dict):
        return sum(_field_walk_nbytes(k) + _field_walk_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_field_walk_nbytes(v) for v in obj)
    if isinstance(obj, (str, bytes)):
        return len(obj)
    try:
        return int(sys.getsizeof(obj))
    except TypeError:
        return 64


class TestInferenceCache:
    def test_miss_vs_cached_none(self):
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        assert cache.get("ns", "k") is MISS
        cache.put("ns", "k", None)
        assert cache.get("ns", "k") is None  # a cached None is NOT a miss

    def test_disabled_cache_is_inert(self):
        cache = InferenceCache(CacheConfig(enabled=False))
        cache.put("ns", "k", 42)
        assert cache.get("ns", "k") is MISS

    def test_get_or_compute_runs_once(self):
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        calls = []
        for _ in range(3):
            v = cache.get_or_compute("ns", "k", lambda: calls.append(1) or "v")
        assert v == "v" and len(calls) == 1

    def test_namespace_stats(self):
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        cache.get("a", "k")
        cache.put("a", "k", 1)
        cache.get("a", "k")
        ns = cache.stats.namespace("a")
        assert (ns.hits, ns.misses) == (1, 1)
        assert ns.hit_rate == 0.5
        reg = MetricsRegistry()
        export_cache_metrics(cache, reg)
        assert reg.value("repro_cache_ns_hits_total", namespace="a") == 1
        assert reg.value("repro_cache_entries", tier="memory") == 1

    def test_export_gauges_vs_counters(self):
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        cache.put("a", "k", np.zeros(100, dtype=np.uint8))
        cache.get("a", "k")
        cache.get("a", "k")
        reg = MetricsRegistry()
        export_cache_metrics(cache, reg)
        assert reg.value("repro_cache_bytes", tier="memory") == 100
        cache.clear()
        cache.get("a", "k")
        export_cache_metrics(cache, reg)
        export_cache_metrics(cache, reg)  # a repeat export never double-counts
        assert reg.value("repro_cache_hits_total", tier="memory") == 2  # counter: cumulative
        assert reg.value("repro_cache_misses_total", tier="memory") == 1
        assert reg.value("repro_cache_bytes", tier="memory") == 0  # gauge: latest value


class TestDiskTier:
    def _cache(self, tmp_path, **kw):
        return InferenceCache(
            CacheConfig(enabled=True, disk_enabled=True, disk_dir=tmp_path, **kw)
        )

    def test_roundtrip_and_promotion(self, tmp_path, rng):
        value = {"emb": rng.random((7, 7)).astype(np.float32)}
        self._cache(tmp_path).put("ns", "deadbeef", value)
        # A fresh instance (cold memory tier) must hit via disk...
        cache2 = self._cache(tmp_path)
        got = cache2.get("ns", "deadbeef")
        assert np.array_equal(got["emb"], value["emb"])
        assert cache2.stats.tier("disk").hits == 1
        # ...and the hit promotes to memory: next get never touches disk.
        cache2.get("ns", "deadbeef")
        assert cache2.stats.tier("disk").hits == 1
        assert cache2.stats.tier("memory").hits == 1

    def test_disk_budget_evicts_lru(self, tmp_path):
        cache = self._cache(tmp_path, disk_bytes=3000)
        for i in range(6):
            cache.put("ns", f"key{i:02d}", np.zeros(1000, dtype=np.uint8))
        disk = cache.stats.tier("disk")
        assert disk.evictions > 0
        assert disk.bytes_used <= 3000

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("ns", "cafe00", [1, 2, 3])
        path = next(tmp_path.glob("*/*.pkl"))
        path.write_bytes(b"not a pickle")
        cold = self._cache(tmp_path)
        assert cold.get("ns", "cafe00") is MISS


class TestPipelineReuse:
    def test_second_segment_hits_cache(self, crystalline_sample):
        pipe = ZenesisPipeline()
        img = crystalline_sample.volume.slice_image(0)
        pipe.segment_image(img, "catalyst particles")
        before = _ns_counts(pipe.cache)
        pipe.segment_image(img, "catalyst particles")
        delta = _ns_delta(pipe.cache, before)
        # Every heavy namespace the grounded path reads must hit on the
        # repeat run (it never encodes or decodes, so no sam.embedding or
        # sam.decode lookups happen at all).
        for ns in ("pipeline.adapt", "dino.ground", "sam.image"):
            assert delta[f"{ns}.hits"] >= 1, ns
            assert delta[f"{ns}.misses"] == 0, ns

    def test_new_prompt_reuses_image_side_only(self, crystalline_sample):
        pipe = ZenesisPipeline()
        img = crystalline_sample.volume.slice_image(0)
        pipe.segment_image(img, "catalyst particles")
        before = _ns_counts(pipe.cache)
        pipe.segment_image(img, "dark background")
        delta = _ns_delta(pipe.cache, before)
        assert delta["pipeline.adapt.hits"] >= 1  # image side reused
        assert delta["dino.ground.misses"] >= 1  # text side recomputed

    def test_no_cache_config_disables_reuse(self, crystalline_sample):
        pipe = ZenesisPipeline(ZenesisConfig(use_cache=False))
        img = crystalline_sample.volume.slice_image(0)
        a = pipe.segment_image(img, "catalyst particles")
        b = pipe.segment_image(img, "catalyst particles")
        assert not pipe.cache.enabled
        reg = MetricsRegistry()
        export_cache_metrics(pipe.cache, reg)
        snap = reg.snapshot()
        assert snap["counters"] == {
            'repro_cache_evictions_total{tier="memory"}': 0,
            'repro_cache_hits_total{tier="memory"}': 0,
            'repro_cache_misses_total{tier="memory"}': 0,
            'repro_cache_quarantined_total{tier="memory"}': 0,
        }
        assert snap["gauges"] == {
            'repro_cache_bytes{tier="memory"}': 0,
            'repro_cache_entries{tier="memory"}': 0,
        }
        assert np.array_equal(a.mask, b.mask)

    def test_cached_and_uncached_results_identical(self, crystalline_sample):
        img = crystalline_sample.volume.slice_image(0)
        cold = ZenesisPipeline(ZenesisConfig(use_cache=False)).segment_image(img, "catalyst particles")
        warm_pipe = ZenesisPipeline()
        warm_pipe.segment_image(img, "catalyst particles")
        warm = warm_pipe.segment_image(img, "catalyst particles")  # fully cached
        assert np.array_equal(cold.mask, warm.mask)
        assert np.array_equal(cold.detection.boxes, warm.detection.boxes)

    def test_profiler_exposes_cache_counters(self, crystalline_sample):
        pipe = ZenesisPipeline()
        img = crystalline_sample.volume.slice_image(0)
        pipe.segment_image(img, "catalyst particles")
        export_cache_metrics(pipe.cache)
        assert any(m.name.startswith("repro_cache_") for m in get_registry().metrics())
        assert "counter" in format_profile()
