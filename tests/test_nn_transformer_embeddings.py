"""Tests for transformer blocks and embeddings."""

import numpy as np
import pytest

from repro.models.nn.embeddings import (
    PatchEmbed,
    RandomFourierPositionEncoding,
    sincos_position_embedding,
)
from repro.models.nn.init import ParamFactory
from repro.models.nn.transformer import TransformerBlock, TransformerEncoder, TwoWayBlock


@pytest.fixture()
def params():
    return ParamFactory(seed=11)


class TestPatchEmbed:
    def test_token_count(self, params, rng):
        pe = PatchEmbed(params, "pe", patch=8, in_chans=1, dim=16)
        tokens, grid = pe(rng.random((32, 48)).astype(np.float32))
        assert grid == (4, 6)
        assert tokens.shape == (24, 16)

    def test_divisibility_enforced(self, params):
        pe = PatchEmbed(params, "pe", patch=8, in_chans=1, dim=16)
        with pytest.raises(ValueError, match="divisible"):
            pe(np.zeros((30, 32), dtype=np.float32))

    def test_patch_locality(self, params):
        # Zeroing one patch changes only that token.
        pe = PatchEmbed(params, "pe", patch=4, in_chans=1, dim=8)
        img = np.ones((8, 8), dtype=np.float32)
        base, _ = pe(img)
        img2 = img.copy()
        img2[0:4, 4:8] = 0.0  # patch (0,1) -> token index 1
        mod, _ = pe(img2)
        changed = ~np.isclose(base, mod).all(axis=1)
        assert changed.tolist() == [False, True, False, False]

    def test_channels(self, params, rng):
        pe = PatchEmbed(params, "pe", patch=4, in_chans=3, dim=8)
        tokens, _ = pe(rng.random((8, 8, 3)).astype(np.float32))
        assert tokens.shape == (4, 8)


class TestSincosPE:
    def test_shape(self):
        pe = sincos_position_embedding((3, 5), 32)
        assert pe.shape == (15, 32)

    def test_unique_positions(self):
        pe = sincos_position_embedding((4, 4), 32)
        # All rows distinct.
        assert len(np.unique(pe.round(5), axis=0)) == 16

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            sincos_position_embedding((2, 2), 30)


class TestRandomFourierPE:
    def test_point_encoding_shape(self, params):
        pe = RandomFourierPositionEncoding(params, "pe", 8)
        out = pe.encode_points(np.array([[0.5, 0.5], [0.1, 0.9]]))
        assert out.shape == (2, 16)

    def test_grid_matches_points(self, params):
        pe = RandomFourierPositionEncoding(params, "pe", 8)
        grid = pe.encode_grid((4, 4))
        # Grid cell (1,2) centre = ((2+.5)/4, (1+.5)/4) in (x, y).
        point = pe.encode_points(np.array([[2.5 / 4, 1.5 / 4]]))
        assert np.allclose(grid[1, 2], point[0], atol=1e-5)

    def test_nearby_points_similar(self, params):
        pe = RandomFourierPositionEncoding(params, "pe", 16, scale=1.0)
        a = pe.encode_points(np.array([[0.5, 0.5]]))
        b = pe.encode_points(np.array([[0.505, 0.5]]))
        c = pe.encode_points(np.array([[0.9, 0.1]]))
        assert np.linalg.norm(a - b) < np.linalg.norm(a - c)


class TestTransformer:
    def test_block_shape_preserved(self, params, rng):
        block = TransformerBlock(params, "b", dim=16, n_heads=4)
        x = rng.normal(size=(9, 16)).astype(np.float32)
        out = block(x)
        assert out.shape == x.shape
        assert out.dtype == np.float32

    def test_encoder_depth(self, params, rng):
        enc = TransformerEncoder(params, "e", dim=16, depth=3, n_heads=4)
        assert len(enc.blocks) == 3
        x = rng.normal(size=(9, 16)).astype(np.float32)
        out = enc(x)
        assert out.shape == x.shape
        assert np.isfinite(out).all()

    def test_encoder_deterministic(self, rng):
        x = rng.normal(size=(5, 16)).astype(np.float32)
        a = TransformerEncoder(ParamFactory(3), "e", 16, 2, 4)(x)
        b = TransformerEncoder(ParamFactory(3), "e", 16, 2, 4)(x)
        assert np.array_equal(a, b)

    def test_two_way_block(self, params, rng):
        block = TwoWayBlock(params, "tw", dim=16, n_heads=4)
        q = rng.normal(size=(6, 16)).astype(np.float32)
        img = rng.normal(size=(20, 16)).astype(np.float32)
        q_pe = rng.normal(size=(6, 16)).astype(np.float32)
        img_pe = rng.normal(size=(20, 16)).astype(np.float32)
        q2, img2 = block(q, img, q_pe, img_pe)
        assert q2.shape == q.shape
        assert img2.shape == img.shape
        # Both streams must actually update.
        assert not np.allclose(q2, q)
        assert not np.allclose(img2, img)
