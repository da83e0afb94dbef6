"""Batched slice encoding: bit-exactness and cache warming."""

import numpy as np
import pytest

from repro.cache import MISS, CacheConfig, InferenceCache, array_content_key, combine_keys
from repro.models.nn.embeddings import (
    clear_sincos_cache,
    sincos_position_embedding,
)
from repro.models.nn.init import ParamFactory
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

    def test_fast_tier_close_to_exact(self, rng, monkeypatch):
        # A REPRO_PRECISION=fast left in the environment now gets the exact
        # bytes, the closest a result can be.
        enc = _encoder(4, global_idx=(1,))
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(3)]
        exact = enc.encode_batch(imgs)
        monkeypatch.setenv("REPRO_PRECISION", "fast")
        for e, f in zip(exact, enc.encode_batch(imgs)):
            assert np.array_equal(e, f)


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
    """Every SAM and DINO key is the exact tier's key.

    The keys equal those the tiered code filed exact entries under, so those
    entries stay valid; the keys its fast tier used are never read or
    written; and a REPRO_PRECISION=fast left in the environment moves no key.
    """

    #: ``_fingerprint`` of ``_predictor()`` and ``GroundingDino()._config_fp()``
    #: under the exact tier and under the removed fast tier, as the tiered
    #: code computed them.
    SAM_EXACT_FP = "1154d2324b596c0276e5451e2d5081166d358822"
    SAM_LEGACY_FAST_FP = "adc1da37b9ed17ecc7e018c6e0a7a087721ebafa"
    DINO_EXACT_FP = "ea1f8302b9b11939dd7f02b65bf2b8b4540e1497"
    DINO_LEGACY_FAST_FP = "f62851f9940059806a5f614d100fe83143ef9803"

    def _predictor(self):
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        sam = Sam(SamConfig(patch_size=16, encoder_dim=32, encoder_depth=2, encoder_heads=2))
        return SamPredictor(sam, cache=cache), cache

    def test_fingerprint_tracks_active_tier(self, monkeypatch):
        predictor, _ = self._predictor()
        assert predictor._fingerprint == self.SAM_EXACT_FP
        monkeypatch.setenv("REPRO_PRECISION", "fast")
        assert predictor._fingerprint == self.SAM_EXACT_FP
        assert self._predictor()[0]._fingerprint == self.SAM_EXACT_FP

    def test_lazy_embedding_keys_by_tier_at_read(self, rng, monkeypatch):
        # set_image, then the first embedding read with the fast tier asked
        # for: the encode still lands under the exact key.
        predictor, cache = self._predictor()
        img = rng.random((64, 64)).astype(np.float32)
        predictor.set_image(img)
        monkeypatch.setenv("REPRO_PRECISION", "fast")
        embedding = predictor.embedding
        content = array_content_key(img)
        assert cache.get("sam.embedding", combine_keys(content, self.SAM_EXACT_FP)) is embedding
        assert cache.get("sam.embedding", combine_keys(content, self.SAM_LEGACY_FAST_FP)) is MISS

    def test_precompute_inside_fast_scope_never_poisons_exact(self, rng, monkeypatch):
        predictor, cache = self._predictor()
        imgs = [rng.random((64, 64)).astype(np.float32) for _ in range(2)]
        expected = [predictor.sam.image_encoder(img) for img in imgs]
        monkeypatch.setenv("REPRO_PRECISION", "fast")
        assert predictor.precompute_images(imgs) == {"hits": 0, "encoded": 2}
        for img, want in zip(imgs, expected):
            content = array_content_key(img)
            key = combine_keys(content, self.SAM_EXACT_FP)
            # The exact key holds the exact bytes, and nothing is filed
            # under the fast tier's keys.
            assert np.array_equal(cache.get("sam.embedding", key), want)
            assert cache.get("sam.image", _ctx_key(key)) is not MISS
            fast_key = combine_keys(content, self.SAM_LEGACY_FAST_FP)
            assert cache.get("sam.embedding", fast_key) is MISS
            assert cache.get("sam.image", _ctx_key(fast_key)) is MISS
        monkeypatch.delenv("REPRO_PRECISION")
        assert predictor.precompute_images(imgs) == {"hits": 2, "encoded": 0}

    def test_dino_keys_track_active_tier(self, rng, monkeypatch):
        from repro.models.dino import GroundingDino

        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        monkeypatch.setenv("REPRO_PRECISION", "fast")
        dino = GroundingDino(cache=cache)
        assert dino._config_fp() == self.DINO_EXACT_FP
        img = rng.random((64, 64)).astype(np.float32)
        encoded = dino.encode_image(img)
        content = array_content_key(img)
        assert cache.get("dino.image", combine_keys(content, self.DINO_EXACT_FP)) is encoded
        assert cache.get("dino.image", combine_keys(content, self.DINO_LEGACY_FAST_FP)) is MISS


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
