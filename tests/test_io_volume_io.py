"""Tests for volume bundle persistence and TIFF export/import."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.io.tiff import read_tiff, read_tiff_pages
from repro.io.volume_io import (
    export_volume_tiff,
    load_volume_bundle,
    save_volume_bundle,
)


class TestBundle:
    def test_roundtrip_full(self, rng, tmp_path):
        vol = rng.integers(0, 65535, (3, 8, 9)).astype(np.uint16)
        masks = vol > 30000
        p = tmp_path / "b.npz"
        save_volume_bundle(p, vol, masks, {"catalyst": "crystalline"})
        v, m, meta = load_volume_bundle(p)
        assert np.array_equal(v, vol)
        assert np.array_equal(m, masks)
        assert meta["catalyst"] == "crystalline"
        assert meta["bundle_version"] == 1

    def test_roundtrip_no_masks(self, rng, tmp_path):
        vol = rng.integers(0, 255, (2, 4, 4)).astype(np.uint8)
        p = tmp_path / "b.npz"
        save_volume_bundle(p, vol)
        v, m, meta = load_volume_bundle(p)
        assert m is None
        assert np.array_equal(v, vol)

    def test_mask_shape_mismatch(self, rng, tmp_path):
        vol = rng.integers(0, 255, (2, 4, 4)).astype(np.uint8)
        with pytest.raises(FormatError, match="masks shape"):
            save_volume_bundle(tmp_path / "b.npz", vol, np.zeros((2, 5, 5), dtype=bool))

    def test_not_a_bundle(self, tmp_path):
        p = tmp_path / "x.npz"
        np.savez(p, something=np.zeros(3))
        with pytest.raises(FormatError, match="volume"):
            load_volume_bundle(p)


class TestTiffExport:
    def test_roundtrip(self, rng, tmp_path):
        vol = rng.integers(0, 65535, (4, 6, 6)).astype(np.uint16)
        p = tmp_path / "v.tif"
        export_volume_tiff(p, vol, voxel_size_nm=(5.0, 5.0), description="test export")
        back = read_tiff(p)
        assert np.array_equal(back, vol)

    def test_voxel_size_becomes_resolution(self, rng, tmp_path):
        vol = rng.integers(0, 255, (2, 4, 4)).astype(np.uint8)
        p = tmp_path / "v.tif"
        export_volume_tiff(p, vol, voxel_size_nm=(10.0, 20.0))
        _, info = read_tiff_pages(p)[0]
        # 10 nm/px -> 1e6 px/cm along x.
        assert info.resolution[0] == pytest.approx(1e6, rel=1e-3)
        assert info.resolution[1] == pytest.approx(5e5, rel=1e-3)


class TestQuarantine:
    def test_corrupt_bundle_quarantined_with_structured_error(self, rng, tmp_path):
        vol = rng.integers(0, 255, (2, 6, 6)).astype(np.uint8)
        p = tmp_path / "b.npz"
        save_volume_bundle(p, vol)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])  # torn mid-archive
        with pytest.raises(FormatError, match="quarantined"):
            load_volume_bundle(p)
        assert not p.exists()
        bad = tmp_path / ".bad"
        assert any(f.name.startswith("b.npz") for f in bad.iterdir())
        reasons = list(bad.glob("*.reason"))
        assert reasons and reasons[0].read_text()
