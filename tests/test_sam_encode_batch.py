"""Batched slice encoding: bit-exactness and cache warming."""

import numpy as np
import pytest

from repro.cache import MISS, CacheConfig, InferenceCache, array_content_key, combine_keys
from repro.models.nn.embeddings import (
    clear_sincos_cache,
    sincos_position_embedding,
)
from repro.models.nn.init import ParamFactory
from repro.models.nn.precision import precision
from repro.models.sam.image_encoder import ImageEncoderViT
from repro.models.sam.model import Sam, SamConfig, SamPredictor, _ctx_key


def _encoder(window=0, global_idx=None):
    return ImageEncoderViT(
        ParamFactory(3),
        patch_size=8,
        embed_dim=16,
        depth=2,
        n_heads=2,
        out_chans=8,
        window_size=window,
        global_attn_indexes=global_idx,
    )


class TestEncodeBatch:
    def test_bit_exact_vs_serial_global(self, rng):
        enc = _encoder(0)
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(4)]
        serial = [enc(im) for im in imgs]
        batched = enc.encode_batch(imgs)
        for s, b in zip(serial, batched):
            assert np.array_equal(s, b)

    def test_bit_exact_vs_serial_windowed(self, rng):
        enc = _encoder(4, global_idx=(1,))
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(5)]
        serial = [enc(im) for im in imgs]
        batched = enc.encode_batch(imgs)
        for s, b in zip(serial, batched):
            assert np.array_equal(s, b)

    def test_mixed_shapes_grouped(self, rng):
        # Different grid shapes cannot stack; they must still come back
        # bit-exact and in input order.
        enc = _encoder(4, global_idx=())
        imgs = [
            rng.random((64, 64)).astype(np.float32),
            rng.random((48, 64)).astype(np.float32),
            rng.random((64, 64)).astype(np.float32),
            rng.random((32, 32)).astype(np.float32),
        ]
        serial = [enc(im) for im in imgs]
        batched = enc.encode_batch(imgs)
        assert len(batched) == 4
        for s, b in zip(serial, batched):
            assert np.array_equal(s, b)

    def test_empty_batch(self):
        assert _encoder(0).encode_batch([]) == []

    def test_results_own_their_memory(self, rng):
        enc = _encoder(0)
        outs = enc.encode_batch([rng.random((32, 32)).astype(np.float32) for _ in range(3)])
        for out in outs:
            assert out.flags.owndata and out.flags.c_contiguous

    def test_fast_tier_close_to_exact(self, rng):
        enc = _encoder(4, global_idx=(1,))
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(3)]
        exact = enc.encode_batch(imgs)
        with precision("fast"):
            fast = enc.encode_batch(imgs)
        for e, f in zip(exact, fast):
            assert np.allclose(e, f, atol=5e-2, rtol=5e-2)


class TestPrecomputeImages:
    def _predictor(self):
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        sam = Sam(SamConfig(patch_size=16, encoder_dim=32, encoder_depth=2, encoder_heads=2))
        return SamPredictor(sam, cache=cache), cache

    def test_warms_cache_with_set_image_identical_entries(self, rng):
        predictor, cache = self._predictor()
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(3)]
        stats = predictor.precompute_images(imgs)
        assert stats == {"hits": 0, "encoded": 3}
        # The entries must be exactly what set_image and the lazy embedding
        # would have stored: both are pure hits afterwards and yield the
        # same context and embedding.
        misses = {ns: cache.stats.namespace(ns).misses for ns in ("sam.image", "sam.embedding")}
        for img in imgs:
            key = combine_keys(array_content_key(np.asarray(img, np.float32)), predictor._fingerprint)
            embedding = cache.get("sam.embedding", key)
            ctx = cache.get("sam.image", combine_keys(key, "ctx"))
            assert embedding is not MISS and ctx is not MISS
            predictor.set_image(img)
            assert predictor.analytic_context is ctx  # identity: served from cache
            assert predictor.embedding is embedding
            assert np.array_equal(embedding, predictor.sam.image_encoder(img))
        assert {ns: cache.stats.namespace(ns).misses for ns in misses} == misses

    def test_second_call_all_hits(self, rng):
        predictor, _ = self._predictor()
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(2)]
        predictor.precompute_images(imgs)
        assert predictor.precompute_images(imgs) == {"hits": 2, "encoded": 0}

    def test_duplicates_encoded_once(self, rng):
        predictor, _ = self._predictor()
        img = rng.random((64, 64)).astype(np.float32)
        stats = predictor.precompute_images([img, img.copy(), img])
        assert stats == {"hits": 2, "encoded": 1}

    def test_disabled_cache_is_noop(self, rng):
        sam = Sam(SamConfig(patch_size=16, encoder_dim=32, encoder_depth=2, encoder_heads=2))
        predictor = SamPredictor(sam, cache=InferenceCache(CacheConfig(enabled=False)))
        calls = []
        predictor.sam.image_encoder.encode_batch = lambda images: calls.append(len(images))
        assert predictor.precompute_images([rng.random((64, 64)).astype(np.float32)]) == {
            "hits": 0,
            "encoded": 0,
        }
        assert calls == []


class TestTierKeySegregation:
    """The predictor resolves the precision tier at KEY time, not __init__.

    A predictor built outside a ``precision("fast")`` scope and used inside
    it must file its (fast-tier) embeddings under fast keys — never under
    the contractually bit-exact tier's keys (REVIEW: cache poisoning).
    """

    def _predictor(self):
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        sam = Sam(SamConfig(patch_size=16, encoder_dim=32, encoder_depth=2, encoder_heads=2))
        return SamPredictor(sam, cache=cache), cache

    def test_fingerprint_tracks_active_tier(self):
        predictor, _ = self._predictor()
        exact_fp = predictor._fingerprint
        with precision("fast"):
            assert predictor._fingerprint != exact_fp
        assert predictor._fingerprint == exact_fp  # restored after the scope

    def test_set_image_inside_fast_scope_uses_fast_keys(self, rng):
        predictor, cache = self._predictor()
        img = rng.random((64, 64)).astype(np.float32)
        exact_key = combine_keys(array_content_key(img), predictor._fingerprint)
        with precision("fast"):
            predictor.set_image(img)
            predictor.embedding
            fast_key = combine_keys(array_content_key(img), predictor._fingerprint)
            assert cache.get("sam.image", combine_keys(fast_key, "ctx")) is not MISS
            assert cache.get("sam.embedding", fast_key) is not MISS
        assert fast_key != exact_key
        # exact tier untouched
        assert cache.get("sam.image", combine_keys(exact_key, "ctx")) is MISS
        assert cache.get("sam.embedding", exact_key) is MISS

    def test_lazy_embedding_keys_by_tier_at_read(self, rng):
        # set_image under exact, first embedding read under fast: the
        # fast-tier encode must land under the fast key, not the exact one.
        predictor, cache = self._predictor()
        img = rng.random((64, 64)).astype(np.float32)
        exact_key = combine_keys(array_content_key(img), predictor._fingerprint)
        predictor.set_image(img)
        with precision("fast"):
            predictor.embedding
            fast_key = combine_keys(array_content_key(img), predictor._fingerprint)
        assert cache.get("sam.embedding", fast_key) is not MISS
        assert cache.get("sam.embedding", exact_key) is MISS

    def test_precompute_inside_fast_scope_never_poisons_exact(self, rng):
        predictor, cache = self._predictor()
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(2)]
        with precision("fast"):
            assert predictor.precompute_images(imgs) == {"hits": 0, "encoded": 2}
        for img in imgs:
            # The exact-tier keys (the scope has closed) of both entries.
            key = combine_keys(array_content_key(img), predictor._fingerprint)
            assert cache.get("sam.embedding", key) is MISS
            assert cache.get("sam.image", _ctx_key(key)) is MISS
        # An exact-tier warm-up therefore recomputes rather than serving
        # fast-tier bytes.
        assert predictor.precompute_images(imgs) == {"hits": 0, "encoded": 2}

    def test_dino_keys_track_active_tier(self):
        from repro.models.dino import GroundingDino

        dino = GroundingDino()
        exact_fp = dino._config_fp()
        with precision("fast"):
            assert dino._config_fp() != exact_fp
        assert dino._config_fp() == exact_fp


class TestSincosCache:
    def test_cache_hit_returns_same_object(self):
        clear_sincos_cache()
        a = sincos_position_embedding((6, 7), 16)
        b = sincos_position_embedding((6, 7), 16)
        assert a is b

    def test_cached_array_is_read_only(self):
        clear_sincos_cache()
        table = sincos_position_embedding((4, 4), 8)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_invalidation(self):
        clear_sincos_cache()
        a = sincos_position_embedding((5, 5), 8)
        clear_sincos_cache()
        b = sincos_position_embedding((5, 5), 8)
        assert a is not b
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_tables(self):
        clear_sincos_cache()
        a = sincos_position_embedding((4, 4), 8)
        b = sincos_position_embedding((4, 5), 8)
        c = sincos_position_embedding((4, 4), 12)
        assert a.shape != b.shape or not np.array_equal(a, b)
        assert c.shape[1] == 12

    def test_lru_eviction_bounded(self):
        from repro.models.nn import embeddings

        clear_sincos_cache()
        for i in range(embeddings._SINCOS_CACHE_MAX + 10):
            sincos_position_embedding((2, 2 + i), 8)
        assert len(embeddings._SINCOS_CACHE) <= embeddings._SINCOS_CACHE_MAX

    def test_values_match_uncached_compute(self):
        from repro.models.nn.embeddings import _compute_sincos

        clear_sincos_cache()
        assert np.array_equal(sincos_position_embedding((3, 9), 16), _compute_sincos((3, 9), 16))
