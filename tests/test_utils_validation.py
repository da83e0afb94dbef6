"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    ensure_2d,
    ensure_3d,
    ensure_box,
    ensure_finite,
    ensure_mask,
    ensure_ndarray,
    ensure_positive,
    ensure_range,
)


class TestEnsureNdarray:
    def test_list_coerced(self):
        out = ensure_ndarray([1, 2, 3])
        assert isinstance(out, np.ndarray)

    def test_object_dtype_rejected(self):
        with pytest.raises(ValidationError, match="numeric"):
            ensure_ndarray(np.array([{"a": 1}], dtype=object))


class TestEnsure2d3d:
    def test_2d_ok(self):
        assert ensure_2d(np.zeros((4, 5))).shape == (4, 5)

    def test_2d_rejects_3d(self):
        with pytest.raises(ValidationError, match="2-D"):
            ensure_2d(np.zeros((2, 3, 4)))

    def test_3d_ok(self):
        assert ensure_3d(np.zeros((2, 3, 4))).shape == (2, 3, 4)

    def test_3d_rejects_2d(self):
        with pytest.raises(ValidationError, match="3-D"):
            ensure_3d(np.zeros((3, 4)))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            ensure_2d(np.zeros((0, 5)))


class TestEnsureScalars:
    def test_positive_strict(self):
        ensure_positive(1e-9)
        with pytest.raises(ValidationError):
            ensure_positive(0.0)

    def test_positive_nonstrict(self):
        ensure_positive(0.0, strict=False)
        with pytest.raises(ValidationError):
            ensure_positive(-1, strict=False)

    def test_range(self):
        ensure_range(0.5, 0, 1)
        with pytest.raises(ValidationError):
            ensure_range(1.5, 0, 1)


class TestEnsureBox:
    def test_valid(self):
        out = ensure_box([1, 2, 5, 9])
        assert out.tolist() == [1, 2, 5, 9]

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError, match="x1 > x0"):
            ensure_box([5, 2, 5, 9])

    def test_wrong_arity(self):
        with pytest.raises(ValidationError, match="4 coordinates"):
            ensure_box([1, 2, 3])

    def test_outside_image_rejected(self):
        with pytest.raises(ValidationError, match="intersect"):
            ensure_box([100, 100, 120, 120], image_shape=(50, 50))

    def test_partially_inside_ok(self):
        ensure_box([40, 40, 80, 80], image_shape=(50, 50))


class TestEnsureMask:
    def test_bool_passthrough(self):
        m = np.zeros((3, 3), dtype=bool)
        assert ensure_mask(m).dtype == bool

    def test_01_coerced(self):
        out = ensure_mask(np.array([[0, 1], [1, 0]]))
        assert out.dtype == bool and out[0, 1]

    def test_other_values_rejected(self):
        with pytest.raises(ValidationError):
            ensure_mask(np.array([[0, 2]]))

    def test_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            ensure_mask(np.zeros((2, 2), dtype=bool), shape=(3, 3))


class TestEnsureFinite:
    def test_finite_float_passthrough(self):
        arr = np.linspace(0, 1, 16).reshape(4, 4)
        out = ensure_finite(arr)
        assert out is arr or np.array_equal(out, arr)

    def test_integer_dtypes_skip_the_scan(self):
        out = ensure_finite(np.arange(8, dtype=np.int32))
        assert out.dtype == np.int32

    def test_nan_rejected_with_counts(self):
        arr = np.ones((3, 3))
        arr[0, 0] = np.nan
        with pytest.raises(ValidationError, match=r"1 NaN, 0 inf"):
            ensure_finite(arr, "upload")

    def test_inf_rejected(self):
        arr = np.ones(5)
        arr[2] = -np.inf
        with pytest.raises(ValidationError, match=r"0 NaN, 1 inf"):
            ensure_finite(arr)

    def test_mixed_nan_and_inf_counts(self):
        arr = np.array([np.nan, np.inf, -np.inf, 1.0])
        with pytest.raises(ValidationError, match=r"1 NaN, 2 inf"):
            ensure_finite(arr)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            ensure_finite(np.zeros((0, 4)), "upload")

    def test_name_appears_in_message(self):
        with pytest.raises(ValidationError, match="uploaded array"):
            ensure_finite(np.array([np.nan]), "uploaded array")
