"""Tests for the FIB-SEM artifact models."""

import numpy as np
import pytest

from repro.data.synthesis.artifacts import (
    add_charging,
    add_curtaining,
    add_poisson_gaussian_noise,
    apply_defocus,
    apply_drift,
)


@pytest.fixture()
def flat():
    return np.full((48, 48), 0.5)


class TestNoise:
    def test_range_preserved(self, flat, rng):
        out = add_poisson_gaussian_noise(flat, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_mean_preserved(self, flat, rng):
        out = add_poisson_gaussian_noise(flat, rng, dose=1000)
        assert out.mean() == pytest.approx(0.5, abs=0.01)

    def test_lower_dose_noisier(self, flat):
        lo = add_poisson_gaussian_noise(flat, np.random.default_rng(0), dose=50)
        hi = add_poisson_gaussian_noise(flat, np.random.default_rng(0), dose=5000)
        assert lo.std() > hi.std()

    def test_deterministic(self, flat):
        a = add_poisson_gaussian_noise(flat, np.random.default_rng(1))
        b = add_poisson_gaussian_noise(flat, np.random.default_rng(1))
        assert np.array_equal(a, b)


class TestCurtaining:
    def test_stripes_are_columnar(self, flat, rng):
        out = add_curtaining(flat, rng, strength=0.1)
        col_var = out.mean(axis=0).std()
        row_var = out.mean(axis=1).std()
        assert col_var > 5 * row_var

    def test_zero_strength_identity(self, flat, rng):
        out = add_curtaining(flat, rng, strength=0.0)
        assert np.allclose(out, flat)

    def test_strength_validated(self, flat, rng):
        with pytest.raises(Exception):
            add_curtaining(flat, rng, strength=2.0)


class TestCharging:
    def test_halo_outside_mask(self, flat):
        mask = np.zeros((48, 48), dtype=bool)
        mask[20:28, 20:28] = True
        out = add_charging(flat, mask, strength=0.2, decay_px=3)
        assert out[19, 24] > 0.5  # just outside: brightened
        assert out[24, 24] == pytest.approx(0.5)  # inside: untouched
        assert out[0, 0] == pytest.approx(0.5, abs=1e-3)  # far away: decayed out

    def test_decay_monotone(self, flat):
        mask = np.zeros((48, 48), dtype=bool)
        mask[24, 24] = True
        out = add_charging(flat, mask, strength=0.3, decay_px=5)
        assert out[24, 26] > out[24, 30] > out[24, 40]

    def test_empty_and_full_masks_noop(self, flat):
        empty = add_charging(flat, np.zeros_like(flat, dtype=bool))
        full = add_charging(flat, np.ones_like(flat, dtype=bool))
        assert np.allclose(empty, flat) and np.allclose(full, flat)

    def test_shape_mismatch(self, flat):
        with pytest.raises(ValueError):
            add_charging(flat, np.zeros((3, 3), dtype=bool))


class TestDefocusDriftVignette:
    def test_defocus_blurs_edge(self):
        img = np.zeros((32, 32))
        img[:, 16:] = 1.0
        out = apply_defocus(img, sigma=2.0)
        assert 0.1 < out[16, 16] < 0.9

    def test_defocus_zero_identity(self, flat):
        assert np.allclose(apply_defocus(flat, sigma=0.0), flat)

    def test_drift(self, flat):
        out = apply_drift(flat, gain=1.2, offset=0.05)
        assert out.mean() == pytest.approx(0.65, abs=1e-6)

    def test_drift_clips(self, flat):
        out = apply_drift(flat, gain=3.0)
        assert out.max() <= 1.0
