"""Tests for multi-head attention and the paper's attention operator."""

import numpy as np
import pytest

from repro.models.nn.attention import MultiHeadAttention, attention_scores
from repro.models.nn.init import ParamFactory


@pytest.fixture()
def params():
    return ParamFactory(seed=7)


class TestAttentionScores:
    def test_formula(self, rng):
        # attention_scores must equal Q K^T / sqrt(d) exactly.
        q = rng.normal(size=(3, 8)).astype(np.float32)
        k = rng.normal(size=(5, 8)).astype(np.float32)
        expected = q @ k.T / np.sqrt(8)
        assert np.allclose(attention_scores(q, k), expected, atol=1e-5)

    def test_batched(self, rng):
        q = rng.normal(size=(2, 4, 3, 8)).astype(np.float32)
        k = rng.normal(size=(2, 4, 5, 8)).astype(np.float32)
        out = attention_scores(q, k)
        assert out.shape == (2, 4, 3, 5)

    def test_orthonormal_projection_preserves_dots(self, rng):
        # The analytic-alignment trick GroundingDINO's surrogate relies on:
        # after projecting both sides with one orthonormal matrix, scaled
        # attention logits reproduce the raw dot products (up to the 1/sqrt(d)).
        f, d = 7, 16
        gauss = rng.normal(size=(d, f))
        qmat, _ = np.linalg.qr(gauss)
        proj = qmat[:, :f].T  # (f, d), orthonormal rows
        a = rng.normal(size=(4, f)).astype(np.float32)
        b = rng.normal(size=(6, f)).astype(np.float32)
        raw = a @ b.T
        recovered = attention_scores(a @ proj, b @ proj) * np.sqrt(d)
        assert np.allclose(recovered, raw, atol=1e-3)


class TestMultiHeadAttention:
    def test_self_attention_shape(self, params, rng):
        mha = MultiHeadAttention(params, "mha", dim=16, n_heads=4)
        x = rng.normal(size=(10, 16)).astype(np.float32)
        assert mha(x).shape == (10, 16)

    def test_cross_attention_shape(self, params, rng):
        mha = MultiHeadAttention(params, "mha", dim=16, n_heads=4, kv_dim=8)
        q = rng.normal(size=(3, 16)).astype(np.float32)
        kv = rng.normal(size=(20, 8)).astype(np.float32)
        assert mha(q, kv).shape == (3, 16)

    def test_downsample_rate(self, params, rng):
        mha = MultiHeadAttention(params, "mha", dim=16, n_heads=2, downsample_rate=2)
        assert mha.inner == 8
        x = rng.normal(size=(5, 16)).astype(np.float32)
        assert mha(x).shape == (5, 16)

    def test_dim_head_mismatch(self, params):
        with pytest.raises(ValueError):
            MultiHeadAttention(params, "bad", dim=10, n_heads=3)

    def test_permutation_equivariance(self, params, rng):
        # Self-attention without positional codes is permutation-equivariant.
        mha = MultiHeadAttention(params, "mha", dim=8, n_heads=2)
        x = rng.normal(size=(7, 8)).astype(np.float32)
        perm = rng.permutation(7)
        assert np.allclose(mha(x)[perm], mha(x[perm]), atol=1e-4)
