"""Tests for repro.utils.rng: determinism and stream independence."""

import numpy as np
import pytest

from repro.utils.rng import GLOBAL_SEED, as_rng, derive_seed, make_rng, spawn_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_key_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(2**80, "x") < 2**64

    def test_int_keys_accepted(self):
        assert derive_seed(1, 5) == derive_seed(1, "5")

    def test_no_concatenation_collision(self):
        # ("ab",) must differ from ("a", "b") — the separator byte matters.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestMakeRng:
    def test_default_seed_is_global(self):
        a = make_rng()
        b = make_rng(GLOBAL_SEED)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_same_seed_same_stream(self):
        assert np.array_equal(make_rng(9).random(8), make_rng(9).random(8))

    def test_different_seed_different_stream(self):
        assert not np.array_equal(make_rng(9).random(8), make_rng(10).random(8))


class TestSpawnRng:
    def test_from_int_deterministic(self):
        a = spawn_rng(3, "stream").random(4)
        b = spawn_rng(3, "stream").random(4)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = spawn_rng(3, "x").random(4)
        b = spawn_rng(3, "y").random(4)
        assert not np.array_equal(a, b)

    def test_from_generator_advances_parent(self):
        parent = make_rng(1)
        before = parent.bit_generator.state["state"]["state"]
        spawn_rng(parent, "child")
        after = parent.bit_generator.state["state"]["state"]
        assert before != after

    def test_none_uses_global(self):
        assert np.array_equal(spawn_rng(None, "k").random(3), spawn_rng(GLOBAL_SEED, "k").random(3))


class TestAsRng:
    def test_passthrough(self):
        g = make_rng(5)
        assert as_rng(g) is g

    def test_int_coerced(self):
        assert isinstance(as_rng(5), np.random.Generator)
