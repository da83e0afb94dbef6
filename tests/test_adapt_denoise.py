"""Tests for the denoisers and unsharp masking."""

import numpy as np
import pytest

from repro.adapt.denoise import (
    denoise_bilateral,
    denoise_gaussian,
    denoise_median,
    denoise_nlm,
    unsharp_mask,
)
from repro.data.synthesis.phantoms import two_phase_phantom


def _noisy_edge(rng, sigma=0.08):
    img, mask = two_phase_phantom((48, 48), top=0.2, bottom=0.8)
    noisy = np.clip(img + rng.normal(scale=sigma, size=img.shape), 0, 1)
    return img, noisy, mask


@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (denoise_gaussian, {"sigma": 1.2}),
        (denoise_median, {"size": 3}),
        (denoise_bilateral, {"sigma_spatial": 1.5, "sigma_range": 0.2}),
        (denoise_nlm, {"search_radius": 3, "h": 0.15}),
    ],
)
class TestAllDenoisers:
    def test_reduces_noise(self, fn, kwargs, rng):
        clean, noisy, _ = _noisy_edge(rng)
        out = fn(noisy, **kwargs)
        assert np.abs(out - clean).mean() < np.abs(noisy - clean).mean()

    def test_shape_dtype(self, fn, kwargs, rng):
        _, noisy, _ = _noisy_edge(rng)
        out = fn(noisy, **kwargs)
        assert out.shape == noisy.shape
        assert out.dtype == np.float32


class TestEdgePreservation:
    def test_bilateral_beats_gaussian_on_edges(self, rng):
        clean, noisy, mask = _noisy_edge(rng)
        gauss = denoise_gaussian(noisy, sigma=2.0)
        bilat = denoise_bilateral(noisy, sigma_spatial=2.0, sigma_range=0.15)
        # Compare the edge sharpness (intensity jump across the boundary).
        row = 24  # the boundary row
        jump_g = gauss[row + 2].mean() - gauss[row - 3].mean()
        jump_b = bilat[row + 2].mean() - bilat[row - 3].mean()
        assert jump_b > jump_g

    def test_median_removes_salt_noise(self, rng):
        img = np.full((32, 32), 0.5)
        img[rng.random((32, 32)) < 0.05] = 1.0  # salt
        out = denoise_median(img, size=3)
        assert (out == 1.0).sum() < (img == 1.0).sum() * 0.2


class TestParameterValidation:
    def test_median_even_size(self):
        with pytest.raises(ValueError):
            denoise_median(np.zeros((8, 8)), size=4)

    def test_nlm_even_patch(self):
        with pytest.raises(ValueError):
            denoise_nlm(np.zeros((8, 8)), patch_size=2)

    def test_gaussian_bad_sigma(self):
        with pytest.raises(Exception):
            denoise_gaussian(np.zeros((8, 8)), sigma=0)


class TestUnsharp:
    def test_sharpens_blurred_edge(self):
        from scipy.ndimage import gaussian_filter

        img, _ = two_phase_phantom((48, 48), top=0.2, bottom=0.8)
        blurred = gaussian_filter(img, 2.0)
        sharp = unsharp_mask(blurred, amount=2.0, sigma=2.0)
        grad_blur = np.abs(np.diff(blurred, axis=0)).max()
        grad_sharp = np.abs(np.diff(sharp, axis=0)).max()
        assert grad_sharp > grad_blur

    def test_clips_to_unit_range(self, rng):
        img = rng.random((16, 16)).astype(np.float32)
        out = unsharp_mask(img, amount=5.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_zero_amount_identity(self, rng):
        img = rng.random((16, 16)).astype(np.float32)
        assert np.allclose(unsharp_mask(img, amount=0.0), img, atol=1e-6)


class TestOneGaussian:
    """``denoise_gaussian`` is scipy's float32 reflect blur on both sides of
    the radius cut: scipy itself below it, banded products from it on."""

    @staticmethod
    def _scipy(img, sigma):
        from scipy.ndimage import gaussian_filter

        return gaussian_filter(np.asarray(img, dtype=np.float32), sigma=sigma, mode="reflect")

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 2.5, 4.0])
    def test_narrow_kernels_are_scipy(self, sigma):
        img = np.random.default_rng(11).random((200, 300))
        np.testing.assert_array_equal(denoise_gaussian(img, sigma=sigma), self._scipy(img, sigma))

    @pytest.mark.parametrize("shape", [(256, 256), (200, 300), (300, 300), (32, 32)])
    @pytest.mark.parametrize("sigma", [5.0, 10.0, 14.0, 48.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wide_kernels_within_one_ulp_of_scipy(self, shape, sigma, dtype):
        rng = np.random.default_rng([int(sigma), *shape])
        for _ in range(3):
            img = rng.random(shape).astype(dtype)
            out = denoise_gaussian(img, sigma=sigma)
            assert out.dtype == np.float32 and out.shape == shape
            np.testing.assert_array_max_ulp(out, self._scipy(img, sigma), maxulp=1)

    def test_radius_cut(self):
        # r = int(4σ + 0.5): σ 4.75 → 19 stays on scipy, σ 4.875 → 20 does not.
        from repro.adapt.denoise import _banded_operator

        img = np.random.default_rng(5).random((40, 40)).astype(np.float32)
        _banded_operator.cache_clear()
        denoise_gaussian(img, sigma=4.75)
        assert _banded_operator.cache_info().currsize == 0
        denoise_gaussian(img, sigma=4.875)
        assert _banded_operator.cache_info().currsize == 1

    @pytest.mark.parametrize("n", [8, 32, 100, 300])
    @pytest.mark.parametrize("sigma", [5.0, 10.0, 48.0])
    def test_operator_is_scipy_on_the_identity(self, n, sigma):
        from scipy.ndimage import gaussian_filter1d

        from repro.adapt.denoise import _reflect_operator

        expected = gaussian_filter1d(np.eye(n), sigma, axis=0, mode="reflect")
        np.testing.assert_array_equal(_reflect_operator(n, sigma), expected)

    @pytest.mark.parametrize("n", [8, 300])
    def test_blocks_tile_the_operator(self, n):
        from repro.adapt.denoise import _banded_operator, _reflect_operator

        full = _reflect_operator(n, 10.0)
        rebuilt = np.zeros_like(full)
        for a, b, lo, hi, op in _banded_operator(n, 10.0):
            assert not op.flags.writeable
            rebuilt[a:b, lo:hi] = op
        np.testing.assert_array_equal(rebuilt, full)

    def test_adapted_slice_is_bit_identical(self):
        from repro.core.pipeline import ZenesisPipeline
        from repro.data import make_sample

        raw = make_sample("crystalline", seed=1, shape=(256, 256), n_slices=1).volume.voxels[0]
        det_img, seg_img = ZenesisPipeline().adapt(raw)
        for img in (det_img, seg_img):
            for sigma in (10.0, 14.0, 48.0):
                np.testing.assert_array_equal(denoise_gaussian(img, sigma=sigma), self._scipy(img, sigma))


def _shifted(img, dy, dx):
    padded = np.pad(img, ((abs(dy), abs(dy)), (abs(dx), abs(dx))), mode="edge")
    h, w = img.shape
    return padded[abs(dy) + dy : abs(dy) + dy + h, abs(dx) + dx : abs(dx) + dx + w]


def _reference_bilateral(image, *, sigma_spatial=2.0, sigma_range=0.1, radius=None):
    """The per-offset loop ``denoise_bilateral`` replaced: one padded copy
    and one range weight per offset, over the whole frame."""
    img = np.asarray(image).astype(np.float32)
    r = radius if radius is not None else max(1, int(round(2 * sigma_spatial)))
    acc = np.zeros_like(img, dtype=np.float64)
    norm = np.zeros_like(img, dtype=np.float64)
    inv_2ss = 1.0 / (2.0 * sigma_spatial**2)
    inv_2sr = 1.0 / (2.0 * sigma_range**2)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            w_s = np.exp(-(dy * dy + dx * dx) * inv_2ss)
            if w_s < 1e-4:
                continue
            shifted = _shifted(img, dy, dx)
            w = w_s * np.exp(-((shifted - img) ** 2) * inv_2sr)
            acc += w * shifted
            norm += w
    return (acc / np.maximum(norm, 1e-12)).astype(np.float32)


class TestBilateralMatchesOffsetLoop:
    """The pair-shared, banded bilateral gives the per-offset loop's bits."""

    @staticmethod
    def _assert_same_bits(image, **kwargs):
        out = denoise_bilateral(image, **kwargs)
        ref = _reference_bilateral(image, **kwargs)
        assert out.dtype == np.float32 and out.shape == ref.shape
        np.testing.assert_array_equal(out.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (3, 3), (5, 7), (130, 70), (256, 256)])
    @pytest.mark.parametrize("sigmas", [(1.5, 0.12), (2.0, 0.1), (0.6, 0.3), (3.0, 0.05)])
    def test_random_images(self, shape, sigmas):
        sigma_spatial, sigma_range = sigmas
        img = np.random.default_rng([*shape, int(10 * sigma_spatial)]).random(shape).astype(np.float32)
        self._assert_same_bits(img, sigma_spatial=sigma_spatial, sigma_range=sigma_range)

    @pytest.mark.parametrize("radius", [0, 1, 2, 7])
    @pytest.mark.parametrize("shape", [(1, 9), (3, 3), (5, 7), (130, 70)])
    def test_radius_override(self, shape, radius):
        img = np.random.default_rng([*shape, radius]).random(shape)
        self._assert_same_bits(img, sigma_spatial=1.5, sigma_range=0.12, radius=radius)

    @pytest.mark.parametrize("kind", ["crystalline", "amorphous"])
    def test_pipeline_slices(self, kind):
        from repro.adapt import robust_normalize
        from repro.data import make_sample

        vol = make_sample(kind, seed=1, shape=(256, 256), n_slices=2).volume.voxels
        for raw in vol:
            self._assert_same_bits(robust_normalize(raw), sigma_spatial=1.5, sigma_range=0.12)

    def test_flat_and_constant_rows(self):
        img = np.zeros((70, 40), dtype=np.float32)
        img[64:] = 1.0  # an edge exactly at the first band boundary
        img[:, 20:] += 0.25
        self._assert_same_bits(img, sigma_spatial=2.0, sigma_range=0.1)

    def test_peak_allocation_not_above_the_offset_loop(self):
        import tracemalloc

        img = np.random.default_rng(3).random((512, 512)).astype(np.float32)
        peaks = []
        for fn in (denoise_bilateral, _reference_bilateral):
            tracemalloc.start()
            fn(img, sigma_spatial=1.5, sigma_range=0.12)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] <= peaks[1]
