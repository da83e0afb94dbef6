"""Property tests for the kernel layer.

The contracts under test (see DESIGN.md "Kernel layer"):
``blocked_attention`` is **bit-identical** to ``naive_attention`` over
window sizes, head counts, ragged leading tiles, and cross-attention
shapes; ``attention_scores`` is bit-compatible with the historical
divide-the-logits formula; fused Q/K/V projection is bit-identical to three
separate gemms; in-place GELU/LayerNorm are bit-identical to their
historical out-of-place expressions.  The one numeric tier, ``exact``, is
recorded in every config fingerprint, and the environment switches of the
removed ``fast`` tier and kernel modes change no result and no key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import config_fingerprint
from repro.cli import build_parser
from repro.models.nn import kernels
from repro.models.nn.attention import MultiHeadAttention, attention_scores
from repro.models.nn.init import ParamFactory
from repro.models.nn.layers import LayerNorm, gelu


def _reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The out-of-place softmax ``kernels.softmax_`` must match bit for bit."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _qkv(seed, lead, t_q, t_k, d, d_v):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(*lead, t_q, d)).astype(np.float32)
    k = rng.normal(size=(*lead, t_k, d)).astype(np.float32)
    v = rng.normal(size=(*lead, t_k, d_v)).astype(np.float32)
    return q, k, v


# Shapes sweep window sizes (t_q = win² ∈ {4..64}), head counts (lead),
# cross-attention (t_k ≠ t_q), and head dims with both power-of-two and
# non-power-of-two sqrt (the two scaling branches).
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_lead=st.integers(1, 12),
    extra_lead=st.booleans(),
    t_q=st.sampled_from([1, 4, 9, 16, 25, 64]),
    t_k=st.sampled_from([1, 3, 16, 40]),
    d=st.sampled_from([4, 8, 16, 24, 64]),
    d_v=st.sampled_from([8, 24]),
    tile=st.sampled_from([1, 2, 3, 5, None]),
)
def test_blocked_equals_naive_bit_exact(seed, n_lead, extra_lead, t_q, t_k, d, d_v, tile):
    lead = (2, n_lead) if extra_lead else (n_lead,)
    q, k, v = _qkv(seed, lead, t_q, t_k, d, d_v)
    naive = kernels.naive_attention(q, k, v)
    blocked = kernels.blocked_attention(q, k, v, tile=tile)
    assert blocked.shape == naive.shape
    assert np.array_equal(naive, blocked)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.sampled_from([4, 16, 24, 36, 64, 80]))
def test_attention_scores_bit_compatible_with_legacy(seed, d):
    # The prescale-q satellite must keep the public function bit-compatible
    # with the historical (q @ k.T) / float32(sqrt(d)) in exact mode, for
    # power-of-two sqrt(d) (errorless prescale) and otherwise (divide kept).
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(3, 5, d)).astype(np.float32)
    k = rng.normal(size=(3, 9, d)).astype(np.float32)
    legacy = (q @ np.swapaxes(k, -1, -2)) / np.float32(np.sqrt(d))
    assert np.array_equal(attention_scores(q, k), legacy)


class TestDispatcher:
    def test_exact_blocked_default(self, rng):
        q, k, v = _qkv(0, (6,), 16, 16, 24, 24)
        assert np.array_equal(kernels.attention(q, k, v), kernels.naive_attention(q, k, v))

    def test_naive_mode_env_and_context(self, monkeypatch):
        # The naive mode needs no switch: the blocked kernel already gives
        # its bytes, so a leftover REPRO_KERNEL=naive reads the same result.
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        q, k, v = _qkv(1, (4,), 9, 9, 16, 16)
        assert np.array_equal(kernels.attention(q, k, v), kernels.naive_attention(q, k, v))
        assert not hasattr(kernels, "kernel_mode")
        assert not hasattr(kernels, "set_kernel_mode")

    def test_fp16_inputs_accepted(self):
        q, k, v = _qkv(3, (4,), 16, 16, 16, 16)
        half = [x.astype(np.float16) for x in (q, k, v)]
        out = kernels.attention(*half)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()
        # Inputs are widened to float32 first, so fp16 goes the exact path.
        assert np.array_equal(out, kernels.naive_attention(*(x.astype(np.float32) for x in half)))


class TestFusedQKV:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), t=st.integers(1, 20))
    def test_fused_projection_bit_identical_to_separate(self, seed, t):
        mha = MultiHeadAttention(ParamFactory(seed % 97), "mha", dim=24, n_heads=4)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t, 24)).astype(np.float32)
        q_f, k_f, v_f = mha._project_qkv(x, None, None)  # fused gemm
        q_s = mha._split(mha.q_proj(x))
        k_s = mha._split(mha.k_proj(x))
        v_s = mha._split(mha.v_proj(x))
        assert np.array_equal(q_f, q_s)
        assert np.array_equal(k_f, k_s)
        assert np.array_equal(v_f, v_s)

    def test_fuse_linear_shapes(self):
        params = ParamFactory(5)
        w1 = params.xavier("a", (8, 4))
        w2 = params.xavier("b", (8, 6))
        fused_w, fused_b = kernels.fuse_linear([w1, w2], [np.zeros(4, np.float32), np.ones(6, np.float32)])
        assert fused_w.shape == (8, 10)
        assert fused_b.shape == (10,)
        assert np.array_equal(fused_w[:, :4], w1)
        assert np.array_equal(fused_w[:, 4:], w2)

    def test_cross_attention_skips_fusion(self, rng):
        mha = MultiHeadAttention(ParamFactory(7), "mha", dim=16, n_heads=4, kv_dim=8)
        assert mha._w_qkv is None
        q = rng.normal(size=(3, 16)).astype(np.float32)
        kv = rng.normal(size=(10, 8)).astype(np.float32)
        assert mha(q, kv).shape == (3, 16)


class TestInPlaceActivations:
    def test_gelu_inplace_matches_copy(self, rng):
        x = rng.normal(size=(30, 17)).astype(np.float32)
        expected = gelu(x)
        buf = x.copy()
        out = kernels.gelu_(buf)
        assert out is buf
        assert np.array_equal(out, expected)

    def test_gelu_matches_tanh_formula(self, rng):
        # Same polynomial as the textbook expression, to fp32 tolerance
        # (x*x*x vs pow(x, 3) may differ in the last ulp).
        x = rng.normal(size=(100,)).astype(np.float32)
        c = np.float32(np.sqrt(2.0 / np.pi))
        reference = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        assert np.allclose(gelu(x), reference, atol=1e-6)

    def test_gelu_scalar_input(self):
        assert float(gelu(np.float32(0.0))) == 0.0

    def test_layernorm_exact_matches_legacy_expression(self, rng):
        x = rng.normal(size=(40, 16)).astype(np.float32)
        gamma = rng.normal(size=16).astype(np.float32)
        beta = rng.normal(size=16).astype(np.float32)
        eps = np.float32(1e-5)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        legacy = (x - mu) / np.sqrt(var + eps) * gamma + beta
        assert np.array_equal(kernels.layernorm(x, gamma, beta, eps), legacy)

    def test_layernorm_class_delegates(self, rng):
        ln = LayerNorm(ParamFactory(3), "ln", 16)
        x = rng.normal(size=(5, 16)).astype(np.float32)
        out = ln(x)
        assert out.shape == x.shape
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)

    def test_softmax_inplace_matches_layers_softmax(self, rng):
        x = rng.normal(size=(6, 9)).astype(np.float32)
        assert np.array_equal(kernels.softmax_(x.copy()), _reference_softmax(x, axis=-1))


class TestPrecisionPolicy:
    """One tier, ``exact``, kept as a term of every config fingerprint.

    No environment variable or flag selects another tier or tile.  Cache keys, checkpoint fingerprints and job identities written before
    the ``fast`` tier was removed stay valid, and entries that tier filed
    under its own keys are never served.
    """

    CFG = {"dim": 96, "depth": 4}
    #: ``config_fingerprint(CFG)`` under the exact tier, and under the
    #: removed fast tier, as the tiered code computed them.
    EXACT_FP = "8c6860a76eb848228cdb7e215c596ea9e7ea421a"
    LEGACY_FAST_FP = "b92afd1d641c2969f78ba418736ac7ccd630f59a"

    def test_default_is_exact(self):
        assert config_fingerprint(self.CFG) == self.EXACT_FP

    def test_env_variable(self, monkeypatch, rng):
        from repro.models.nn.transformer import TransformerBlock

        block = TransformerBlock(ParamFactory(3), "b", dim=16, n_heads=4)
        x = rng.normal(size=(9, 16)).astype(np.float32)
        reference = block(x)
        for value in ("fast", "bogus"):
            monkeypatch.setenv("REPRO_PRECISION", value)
            assert config_fingerprint(self.CFG) == self.EXACT_FP
            out = block(x)
            assert out.dtype == np.float32
            assert np.array_equal(out, reference)

    def test_override_beats_env(self, monkeypatch):
        # The tile follows the detected L2 size alone; REPRO_ATTN_TILE no
        # longer pins it, and an explicit ``tile=`` is the only override.
        budgeted = kernels.attention_tile(16, 16)
        monkeypatch.setenv("REPRO_ATTN_TILE", "1")
        assert kernels.attention_tile(16, 16) == budgeted
        q, k, v = _qkv(4, (7,), 16, 16, 16, 16)
        assert np.array_equal(kernels.blocked_attention(q, k, v, tile=3), kernels.naive_attention(q, k, v))

    def test_invalid_tier_rejected(self):
        # Every tier name is now unknown to the CLI: a run that asks for one
        # fails at parse time instead of silently running exact.
        parser = build_parser()
        for argv in (
            ["segment", "x.tif", "catalyst"],
            ["batch", "x.tif", "catalyst"],
            ["evaluate"],
            ["serve"],
        ):
            parser.parse_args(argv)
            for tier in ("fast", "exact"):
                with pytest.raises(SystemExit):
                    parser.parse_args([*argv, "--precision", tier])

    def test_fingerprint_segregates_tiers(self):
        exact_fp = config_fingerprint(self.CFG)
        assert exact_fp != self.LEGACY_FAST_FP
        assert exact_fp == config_fingerprint(self.CFG)  # stable across calls
