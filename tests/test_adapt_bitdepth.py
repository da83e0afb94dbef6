"""Tests for bit-depth normalisation."""

import numpy as np
import pytest

from repro.adapt.bitdepth import nominal_range, robust_normalize, to_float01
from repro.errors import ValidationError


class TestNominalRange:
    @pytest.mark.parametrize(
        "dtype,value",
        [(np.uint8, 255.0), (np.uint16, 65535.0), (np.uint32, 4294967295.0), (np.float32, 1.0)],
    )
    def test_values(self, dtype, value):
        assert nominal_range(np.dtype(dtype)) == value

    def test_unsupported(self):
        with pytest.raises(ValidationError):
            nominal_range(np.dtype(np.complex128))


class TestToFloat01:
    def test_uint16_scaling(self):
        arr = np.array([[0, 65535]], dtype=np.uint16)
        out = to_float01(arr)
        assert out.dtype == np.float32
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_float_passthrough_clipped(self):
        out = to_float01(np.array([[1.5, -0.5]], dtype=np.float32))
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0


class TestRobustNormalize:
    def test_stretches_narrow_band(self):
        # Signal in [1000, 3000] of a uint16 range: nominal scaling wastes
        # dynamic range, robust normalisation recovers it.
        rng = np.random.default_rng(0)
        arr = rng.integers(1000, 3000, (64, 64)).astype(np.uint16)
        nominal = to_float01(arr)
        robust = robust_normalize(arr)
        assert nominal.max() < 0.05
        assert robust.max() > 0.95
        assert robust.min() < 0.05

    def test_hot_pixels_clipped(self):
        arr = np.full((32, 32), 100, dtype=np.uint16)
        arr[0, 0] = 65535  # hot pixel
        arr[16:, :] = 200
        out = robust_normalize(arr)
        # The hot pixel saturates to 1 but doesn't compress the real signal.
        assert out[0, 0] == 1.0
        assert out[20, 5] > 0.9

    def test_constant_image(self):
        out = robust_normalize(np.full((8, 8), 42, dtype=np.uint8))
        assert np.all(out == 0.0)

    def test_bad_percentiles(self):
        with pytest.raises(ValidationError):
            robust_normalize(np.zeros((4, 4)), p_lo=60, p_hi=40)
