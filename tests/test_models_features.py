"""Tests for the engineered feature bank."""

import numpy as np
import pytest

from repro.data.synthesis.phantoms import checkerboard, disk_phantom, needles_phantom
from repro.models.features import (
    FEATURE_NAMES,
    PatchFeatureExtractor,
    compute_feature_maps,
)


def _chan(maps, name):
    return maps[..., FEATURE_NAMES.index(name)]


class TestDenseFeatures:
    def test_shape_and_range(self, rng):
        img = rng.random((48, 48)).astype(np.float32)
        maps = compute_feature_maps(img)
        assert maps.shape == (48, 48, len(FEATURE_NAMES))
        assert maps.min() >= -1e-6 and maps.max() <= 1 + 1e-6

    def test_darkness_complements_intensity(self, rng):
        img = rng.random((32, 32)).astype(np.float32)
        maps = compute_feature_maps(img)
        assert np.allclose(_chan(maps, "intensity") + _chan(maps, "darkness"), 1.0, atol=1e-5)

    def test_midtone_peaks_at_half(self):
        img = np.full((32, 32), 0.5, dtype=np.float32)
        img[:8] = 0.05
        maps = compute_feature_maps(img)
        assert _chan(maps, "midtone")[20, 16] > 0.9
        assert _chan(maps, "midtone")[2, 16] < 0.4

    def test_relative_brightness_fires_on_local_structure(self):
        img, mask = disk_phantom((64, 64), radius=6, fg=0.7, bg=0.4)
        maps = compute_feature_maps(img)
        rel = _chan(maps, "relative_brightness")
        assert rel[mask].mean() > 5 * rel[~mask].mean() + 0.05

    def test_relative_brightness_zero_on_flat(self):
        maps = compute_feature_maps(np.full((32, 32), 0.6, dtype=np.float32))
        assert _chan(maps, "relative_brightness").max() < 0.05

    def test_edge_on_boundary(self):
        img, mask = disk_phantom((64, 64), radius=15)
        maps = compute_feature_maps(img)
        edge = _chan(maps, "edge")
        boundary = mask & ~np.roll(mask, 3, axis=0)
        assert edge[boundary].mean() > edge[32, 32] + 0.2

    def test_texture_on_checkerboard(self):
        board = checkerboard((64, 64), cell=4)
        flat = np.full((64, 64), 0.5)
        t_board = _chan(compute_feature_maps(board), "texture").mean()
        t_flat = _chan(compute_feature_maps(flat), "texture").mean()
        assert t_board > t_flat + 0.2

    def test_elongation_high_on_needles(self):
        img, mask = needles_phantom((96, 96), n=6, rng=3)
        maps = compute_feature_maps(img)
        elong = _chan(maps, "elongation")
        disk_img, disk_mask = disk_phantom((96, 96), radius=20)
        elong_disk = _chan(compute_feature_maps(disk_img), "elongation")
        # Needles score higher than the interior of a large disk.
        assert elong[mask].mean() > elong_disk[disk_mask].mean()


class TestPatchExtractor:
    def test_grid_geometry(self, rng):
        ex = PatchFeatureExtractor(stride=4)
        grid = ex(rng.random((64, 48)).astype(np.float32))
        assert grid.grid.shape == (16, 12, len(FEATURE_NAMES))
        assert grid.stride == 4
        assert grid.tokens.shape == (192, len(FEATURE_NAMES))

    def test_max_pooling_keeps_thin_structures(self):
        img, mask = needles_phantom((64, 64), n=3, rng=5)
        grid = PatchFeatureExtractor(stride=8)(img).grid
        rel = grid[..., FEATURE_NAMES.index("relative_brightness")]
        # Some patch must carry a strong needle response despite 8x pooling.
        assert rel.max() > 0.5

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape", [(255, 257), (7, 9), (64, 48)])
    def test_block_max_equals_strided_maximum_filter(self, stride, shape):
        from scipy.ndimage import maximum_filter

        img = np.random.default_rng([stride, *shape]).random(shape).astype(np.float32)
        dense = compute_feature_maps(img)
        gh, gw = shape[0] // stride, shape[1] // stride
        offs = stride // 2
        pooled = maximum_filter(dense, size=(stride, stride, 1), mode="nearest")
        expected = pooled[offs : gh * stride : stride, offs : gw * stride : stride, :]
        got = PatchFeatureExtractor(stride=stride)(img).grid
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, expected)

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            PatchFeatureExtractor(stride=0)

    def test_image_smaller_than_stride(self):
        ex = PatchFeatureExtractor(stride=64)
        with pytest.raises(ValueError):
            ex(np.zeros((32, 32), dtype=np.float32))
