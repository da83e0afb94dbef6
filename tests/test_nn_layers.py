"""Tests for the NumPy NN primitives."""

import numpy as np
import pytest

from repro.models.nn.init import ParamFactory
from repro.models.nn import kernels
from repro.models.nn.layers import LayerNorm, Linear, Mlp, gelu


@pytest.fixture()
def params():
    return ParamFactory(seed=123)


class TestParamFactory:
    def test_deterministic_by_name(self):
        a = ParamFactory(1).normal("w", (4, 4))
        b = ParamFactory(1).normal("w", (4, 4))
        assert np.array_equal(a, b)

    def test_name_sensitive(self):
        f = ParamFactory(1)
        assert not np.array_equal(f.normal("w1", (4, 4)), f.normal("w2", (4, 4)))

    def test_scope_composition(self):
        root = ParamFactory(1)
        child = root.child("block")
        grand = child.child("attn")
        direct = ParamFactory(1, "block/attn")
        assert np.array_equal(grand.normal("w", (3,)), direct.normal("w", (3,)))

    def test_xavier_bound(self):
        w = ParamFactory(1).xavier("w", (100, 100))
        bound = np.sqrt(6 / 200)
        assert np.abs(w).max() <= bound
        assert w.std() > bound / 4

    def test_dtype_float32(self, params):
        for arr in (params.normal("a", (2,)), params.xavier("b", (2, 2)), params.zeros("c", (2,)), params.ones("d", (2,))):
            assert arr.dtype == np.float32


class TestActivations:
    def test_gelu_known_values(self):
        assert gelu(np.array(0.0)) == pytest.approx(0.0)
        assert gelu(np.array(10.0)) == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-3)

    def test_gelu_monotone_for_positive(self):
        # GELU is non-monotone near -0.75 by design; check the positive side.
        x = np.linspace(0, 3, 100)
        assert (np.diff(gelu(x)) > 0).all()

    def test_softmax_sums_to_one(self, rng):
        x = rng.normal(size=(3, 5)).astype(np.float32)
        s = kernels.softmax_(x.copy())
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_stable_large_logits(self):
        s = kernels.softmax_(np.array([1000.0, 1000.0, -1000.0], dtype=np.float32))
        assert np.isfinite(s).all()
        assert s[0] == pytest.approx(0.5)

    def test_softmax_axis(self, rng):
        # The kernel normalises the last axis only; a transposed copy puts
        # axis 0 there.
        x = rng.normal(size=(4, 6)).astype(np.float32)
        s = kernels.softmax_(np.ascontiguousarray(x.T))
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)


class TestLinear:
    def test_shape(self, params, rng):
        lin = Linear(params, "lin", 8, 3)
        out = lin(rng.normal(size=(5, 8)).astype(np.float32))
        assert out.shape == (5, 3)

    def test_batched(self, params, rng):
        lin = Linear(params, "lin", 8, 3)
        out = lin(rng.normal(size=(2, 5, 8)).astype(np.float32))
        assert out.shape == (2, 5, 3)

    def test_no_bias(self, params):
        lin = Linear(params, "nb", 4, 4, bias=False)
        assert lin.bias is None
        assert np.allclose(lin(np.zeros((1, 4), dtype=np.float32)), 0.0)

    def test_linearity(self, params, rng):
        lin = Linear(params, "lin", 6, 2)
        x = rng.normal(size=(3, 6)).astype(np.float32)
        y = rng.normal(size=(3, 6)).astype(np.float32)
        lhs = lin(x + y)
        rhs = lin(x) + lin(y) - lin.bias
        assert np.allclose(lhs, rhs, atol=1e-4)


class TestLayerNorm:
    def test_normalises(self, params, rng):
        ln = LayerNorm(params, "ln", 16)
        out = ln(rng.normal(loc=5.0, scale=3.0, size=(4, 16)).astype(np.float32))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_constant_input_finite(self, params):
        ln = LayerNorm(params, "ln", 8)
        out = ln(np.full((2, 8), 3.0, dtype=np.float32))
        assert np.isfinite(out).all()


class TestMlp:
    def test_shape_and_nonlinearity(self, params, rng):
        mlp = Mlp(params, "mlp", 8, 32)
        x = rng.normal(size=(5, 8)).astype(np.float32)
        out = mlp(x)
        assert out.shape == (5, 8)
        # Non-linear: f(2x) != 2 f(x) in general.
        assert not np.allclose(mlp(2 * x), 2 * out, atol=1e-3)
