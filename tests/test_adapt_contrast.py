"""Tests for contrast operators: stretch and CLAHE."""

import numpy as np
import pytest

from repro.adapt.contrast import clahe, stretch_contrast
from repro.errors import ValidationError


class TestStretch:
    def test_full_range_after(self):
        img = np.linspace(0.3, 0.6, 64).reshape(8, 8)
        out = stretch_contrast(img)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_explicit_bounds(self):
        img = np.full((4, 4), 0.5)
        out = stretch_contrast(img, lo=0.0, hi=1.0)
        assert np.allclose(out, 0.5)

    def test_constant_image(self):
        assert np.all(stretch_contrast(np.full((4, 4), 0.7)) == 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            stretch_contrast(np.full((4, 4), 7.0))


class TestClahe:
    def test_output_range_and_shape(self, rng):
        img = rng.random((65, 47)).astype(np.float32)  # awkward size
        out = clahe(img, tiles=(4, 4))
        assert out.shape == img.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_enhances_local_contrast(self):
        # Faint structure on two different background levels.
        img = np.full((64, 64), 0.4)
        img[:, 32:] = 0.6
        img[16:20, 8:24] += 0.02
        img[16:20, 40:56] += 0.02
        out = clahe(img, tiles=(4, 4), clip_limit=4.0)
        local_before = img[18, 12] - img[24, 12]
        local_after = out[18, 12] - out[24, 12]
        assert local_after > local_before

    def test_clip_limit_bounds_amplification(self, rng):
        img = np.full((64, 64), 0.5, dtype=np.float32)
        img += rng.normal(scale=0.005, size=img.shape).astype(np.float32)
        gentle = clahe(img, clip_limit=1.01)
        harsh = clahe(img, clip_limit=50.0)
        assert gentle.std() < harsh.std()

    def test_tiles_validated(self):
        with pytest.raises(ValidationError):
            clahe(np.zeros((16, 16)), tiles=(0, 4))

    def test_uniform_image_stable(self):
        out = clahe(np.full((32, 32), 0.5))
        assert out.std() < 0.2
