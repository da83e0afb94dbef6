"""Tests for the lazy volume front ends and the ingestion failure model.

Covers :mod:`repro.io.lazy` (TIFF / slice-directory / npy front ends,
salvage semantics, content keys) and :mod:`repro.io.integrity` (checksum
sidecars, verification, the policy-applying :class:`TileStream`, and the
budget-bounded :class:`Prefetcher`).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import CorruptTileError, FormatError, UnknownFormatError, ValidationError
from repro.io import (
    ArrayLazyVolume,
    IngestPolicy,
    NpyLazyVolume,
    Prefetcher,
    SliceDirectoryVolume,
    TiffLazyVolume,
    TileStream,
    load_sidecar,
    open_lazy_volume,
    sidecar_path,
    verify_volume,
    write_sidecar,
)
from repro.io.tiff import write_tiff


def _volume(rng, n=4, side=24, dtype=np.uint16):
    info = np.iinfo(dtype)
    return rng.integers(0, info.max, (n, side, side)).astype(dtype)


@pytest.fixture
def vol(rng):
    return _volume(rng)


@pytest.fixture
def tiff_path(vol, tmp_path):
    path = tmp_path / "v.tif"
    write_tiff(path, vol, compress=True)
    return path


# -- front ends ----------------------------------------------------------------


class TestFrontEnds:
    def test_tiff_round_trip(self, vol, tiff_path):
        with TiffLazyVolume(tiff_path) as lazy:
            assert lazy.shape == vol.shape
            assert lazy.dtype == vol.dtype
            assert lazy.meta["format"] == "tiff"
            assert lazy.meta["truncated_tail"] is False
            for z in range(lazy.n_tiles):
                assert np.array_equal(lazy.read_tile(z), vol[z])

    def test_npy_round_trip(self, vol, tmp_path):
        path = tmp_path / "v.npy"
        np.save(path, vol, allow_pickle=False)
        with NpyLazyVolume(path) as lazy:
            assert lazy.shape == vol.shape
            assert np.array_equal(lazy.read_tile(2), vol[2])

    def test_slice_directory_round_trip(self, vol, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        for z in range(vol.shape[0]):
            write_tiff(d / f"s{z:03d}.tif", vol[z])
        with SliceDirectoryVolume(d) as lazy:
            assert lazy.shape == vol.shape
            for z in range(lazy.n_tiles):
                assert np.array_equal(lazy.read_tile(z), vol[z])

    def test_content_key_identical_across_front_ends(self, vol, tiff_path, tmp_path):
        """Lossless re-export between front ends preserves the content key."""
        npy = tmp_path / "v.npy"
        np.save(npy, vol, allow_pickle=False)
        d = tmp_path / "slices"
        d.mkdir()
        for z in range(vol.shape[0]):
            np.save(d / f"s{z:03d}.npy", vol[z], allow_pickle=False)
        keys = set()
        for src in (tiff_path, npy, d, vol):
            with open_lazy_volume(src) if not isinstance(src, np.ndarray) else ArrayLazyVolume(
                src
            ) as lazy:
                keys.add(lazy.content_key())
        assert len(keys) == 1

    def test_open_dispatch(self, vol, tiff_path, tmp_path):
        assert isinstance(open_lazy_volume(tiff_path), TiffLazyVolume)
        npy = tmp_path / "v.npy"
        np.save(npy, vol, allow_pickle=False)
        assert isinstance(open_lazy_volume(npy), NpyLazyVolume)
        d = tmp_path / "slices"
        d.mkdir()
        write_tiff(d / "a.tif", vol[0])
        assert isinstance(open_lazy_volume(d), SliceDirectoryVolume)

    def test_open_unknown_format_is_structured(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"not an image at all")
        with pytest.raises(UnknownFormatError):
            open_lazy_volume(path)

    def test_open_empty_file_reports_empty(self, tmp_path):
        path = tmp_path / "empty.tif"
        path.write_bytes(b"")
        with pytest.raises(UnknownFormatError) as exc:
            open_lazy_volume(path)
        assert exc.value.reason == "empty"

    def test_tile_out_of_range(self, tiff_path):
        with TiffLazyVolume(tiff_path) as lazy:
            with pytest.raises(ValidationError):
                lazy.read_tile(99)

    def test_big_endian_tiles_normalized_to_native(self, tmp_path, rng):
        arr = rng.integers(0, 65535, (6, 7)).astype(">u2")
        path = tmp_path / "be.npy"
        np.save(path, arr.reshape(1, 6, 7), allow_pickle=False)
        with NpyLazyVolume(path) as lazy:
            tile = lazy.read_tile(0)
        assert tile.dtype.byteorder in ("=", "|")
        assert np.array_equal(tile, arr.astype(np.uint16))


# -- damage semantics ---------------------------------------------------------


class TestDamage:
    def test_torn_tiff_keeps_surviving_prefix(self, vol, tiff_path, tmp_path):
        data = tiff_path.read_bytes()
        torn = tmp_path / "torn.tif"
        torn.write_bytes(data[: int(len(data) * 0.55)])
        with TiffLazyVolume(torn) as lazy:
            assert lazy.meta["truncated_tail"] is True
            assert 0 < lazy.n_tiles < vol.shape[0]
            assert np.array_equal(lazy.read_tile(0), vol[0])

    def test_torn_npy_salvages_zero_tail(self, vol, tmp_path):
        path = tmp_path / "v.npy"
        np.save(path, vol, allow_pickle=False)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - vol[0].nbytes // 2])
        with NpyLazyVolume(path) as lazy:
            assert np.array_equal(lazy.read_tile(0), vol[0])
            with pytest.raises(CorruptTileError) as exc:
                lazy.read_tile(lazy.n_tiles - 1)
        assert exc.value.kind == "torn"
        assert exc.value.salvage is not None
        assert exc.value.salvage.shape == vol[0].shape

    def test_slice_directory_bad_file_classified(self, vol, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        for z in range(vol.shape[0]):
            write_tiff(d / f"s{z:03d}.tif", vol[z])
        # Truncate one mid-stack file to a stub: classified torn.
        victim = d / "s002.tif"
        victim.write_bytes(victim.read_bytes()[:40])
        with SliceDirectoryVolume(d) as lazy:
            with pytest.raises(CorruptTileError) as exc:
                lazy.read_tile(2)
        assert exc.value.kind == "torn"
        assert exc.value.tile == 2


# -- checksum sidecar + verify -------------------------------------------------


class TestSidecar:
    def test_round_trip_and_verify_ok(self, tiff_path):
        with open_lazy_volume(tiff_path) as lazy:
            side = write_sidecar(lazy)
            assert side == sidecar_path(tiff_path)
            manifest = load_sidecar(tiff_path)
            assert manifest["algo"] == "sha256"
            assert len(manifest["tiles"]) == lazy.n_tiles
            report = verify_volume(lazy)
        assert report["ok"] and report["checksums"]
        assert report["counts"]["ok"] == report["n_tiles"]

    def test_verify_classifies_flip(self, tiff_path):
        with open_lazy_volume(tiff_path) as lazy:
            write_sidecar(lazy)
        data = bytearray(tiff_path.read_bytes())
        data[700] ^= 0x40  # inside strip data, past the header
        tiff_path.write_bytes(bytes(data))
        with open_lazy_volume(tiff_path) as lazy:
            report = verify_volume(lazy)
        assert not report["ok"]
        assert report["counts"]["flip"] + report["counts"]["unreadable"] >= 1

    @staticmethod
    def _shrunken(vol, tmp_path):
        """Write an uncompressed TIFF, then tear off the last page's IFD.

        The tear swallows the trailing IFD plus part of that page's data,
        so the file opens "clean" but one tile short — the silent-shrink
        failure mode the sidecar's tile count exists to catch.
        """
        path = tmp_path / "shrunk.tif"
        write_tiff(path, vol, compress=False)
        with open_lazy_volume(path) as lazy:
            write_sidecar(lazy)
            n_orig = lazy.n_tiles
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - (vol[0].nbytes // 2 + 200)])
        return path, n_orig

    def test_verify_flags_shrunken_volume_as_torn(self, vol, tmp_path):
        path, n_orig = self._shrunken(vol, tmp_path)
        with open_lazy_volume(path) as lazy:
            assert lazy.n_tiles == n_orig - 1  # the container silently shrank
            report = verify_volume(lazy)
        assert not report["ok"]
        assert report["counts"]["torn"] >= 1
        assert any(t["tile"] == n_orig - 1 and t["status"] == "torn" for t in report["tiles"])

    def test_stream_refuses_or_degrades_shrunken_volume(self, vol, tmp_path):
        path, n_orig = self._shrunken(vol, tmp_path)
        with open_lazy_volume(path) as lazy:
            with pytest.raises(CorruptTileError) as err:
                TileStream(lazy, IngestPolicy(on_corrupt="fail"))
            assert err.value.kind == "torn"
        with open_lazy_volume(path) as lazy:
            stream = TileStream(lazy, IngestPolicy(on_corrupt="degrade"))
            assert stream.degraded == {n_orig - 1: "degrade:torn"}

    def test_verify_without_sidecar_cannot_see_flips(self, vol, tmp_path):
        path = tmp_path / "v.tif"
        write_tiff(path, vol, compress=False)  # uncompressed: flips decode fine
        data = bytearray(path.read_bytes())
        data[100] ^= 0x01
        path.write_bytes(bytes(data))
        with open_lazy_volume(path) as lazy:
            report = verify_volume(lazy)
        assert report["checksums"] is False
        assert report["ok"]  # silent corruption — exactly what the sidecar exists for


# -- TileStream policies -------------------------------------------------------


class TestTileStream:
    def _stream(self, tiff_path, policy):
        volume = open_lazy_volume(tiff_path)
        return TileStream(volume, policy)

    def test_fail_policy_raises_structured(self, tiff_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1")
        stream = self._stream(tiff_path, IngestPolicy(on_corrupt="fail"))
        stream.fetch(0)
        with pytest.raises(CorruptTileError) as exc:
            stream.fetch(1)
        assert exc.value.kind == "torn"
        assert (tiff_path.parent / ".bad" / "v.tif.tile00001.torn.json").is_file()

    def test_degrade_uses_salvage_and_records(self, vol, tiff_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1")
        stream = self._stream(tiff_path, IngestPolicy(on_corrupt="degrade"))
        tile, reason = stream.fetch(1)
        assert reason == "degrade:torn"
        assert stream.degraded == {1: "degrade:torn"}
        assert stream.quarantined == [str(tiff_path.parent / ".bad" / "v.tif.tile00001.torn.json")]
        assert np.array_equal(tile[: len(tile) // 2], vol[1][: len(tile) // 2])

    def test_skip_substitutes_zeros(self, tiff_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=2")
        stream = self._stream(tiff_path, IngestPolicy(on_corrupt="skip"))
        tile, reason = stream.fetch(2)
        assert reason == "skip:torn"
        assert not tile.any()
        assert (tiff_path.parent / ".bad" / "v.tif.tile00002.torn.json").is_file()

    def test_flip_detected_only_with_sidecar(self, tiff_path, monkeypatch):
        with open_lazy_volume(tiff_path) as lazy:
            write_sidecar(lazy)
        monkeypatch.setenv("REPRO_FAULTS", "io_flip@slice=1")
        stream = self._stream(tiff_path, IngestPolicy(on_corrupt="degrade"))
        _, reason = stream.fetch(1)
        assert reason == "degrade:flip"
        assert (tiff_path.parent / ".bad" / "v.tif.tile00001.flip.json").is_file()

    def test_transient_errors_are_retried(self, vol, tiff_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "io_transient@slice=0")
        stream = self._stream(tiff_path, IngestPolicy(on_corrupt="fail"))
        tile, reason = stream.fetch(0)
        assert reason is None
        assert np.array_equal(tile, vol[0])
        assert not (tiff_path.parent / ".bad").exists()

    def test_substituted_tile_is_stable_across_passes(self, tiff_path, monkeypatch):
        """The second pass of a two-pass run sees identical bytes."""
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1")  # fires once
        stream = self._stream(tiff_path, IngestPolicy(on_corrupt="degrade"))
        first, reason = stream.fetch(1)
        assert reason == "degrade:torn"
        second, reason2 = stream.fetch(1)
        assert reason2 == "degrade:torn"
        assert np.array_equal(first, second)
        assert len(stream.quarantined) == 1  # the pinned substitute is not re-quarantined

    def test_quarantine_writes_report(self, tiff_path, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=1")
        stream = self._stream(tiff_path, IngestPolicy(on_corrupt="degrade"))
        stream.fetch(1)
        assert len(stream.quarantined) == 1
        report_path = stream.quarantined[0]
        assert os.path.basename(os.path.dirname(report_path)) == ".bad"
        report = json.loads(open(report_path).read())
        assert report["kind"] == "torn" and report["tile"] == 1


# -- Prefetcher ----------------------------------------------------------------


class TestPrefetcher:
    def test_yields_in_order_within_budget(self, vol, tiff_path):
        volume = open_lazy_volume(tiff_path)
        budget = volume.tile_nbytes * 2
        stream = TileStream(volume, IngestPolicy(memory_budget_bytes=budget))
        fetcher = Prefetcher(stream)
        out = list(fetcher)
        assert [z for z, _, _ in out] == list(range(vol.shape[0]))
        for z, tile, reason in out:
            assert reason is None
            assert np.array_equal(tile, vol[z])
        assert fetcher.max_resident_bytes <= budget

    def test_reader_errors_propagate(self, tiff_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "io_torn@slice=3")
        volume = open_lazy_volume(tiff_path)
        stream = TileStream(volume, IngestPolicy(on_corrupt="fail"))
        with pytest.raises(CorruptTileError):
            list(Prefetcher(stream))
        assert (tiff_path.parent / ".bad" / "v.tif.tile00003.torn.json").is_file()
