"""Tests for the from-scratch TIFF codec."""

import numpy as np
import pytest

from repro.errors import FormatError, ValidationError
from repro.io.tiff import read_tiff, read_tiff_pages, write_tiff


class TestRoundtrip:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.float32])
    @pytest.mark.parametrize("compress", [False, True])
    def test_gray_2d(self, dtype, compress, rng, tmp_path):
        if np.dtype(dtype).kind == "f":
            arr = rng.random((13, 17)).astype(dtype)
        else:
            arr = rng.integers(0, np.iinfo(dtype).max, (13, 17)).astype(dtype)
        path = tmp_path / "x.tif"
        write_tiff(path, arr, compress=compress)
        back = read_tiff(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_multipage_volume(self, rng, tmp_path):
        vol = rng.integers(0, 65535, (5, 9, 11)).astype(np.uint16)
        path = tmp_path / "v.tif"
        write_tiff(path, vol, compress=True)
        back = read_tiff(path)
        assert back.shape == vol.shape
        assert np.array_equal(back, vol)

    def test_rgb_page(self, rng, tmp_path):
        img = rng.integers(0, 255, (21, 14, 3)).astype(np.uint8)
        path = tmp_path / "rgb.tif"
        write_tiff(path, img)
        back = read_tiff(path)
        assert back.shape == img.shape
        assert np.array_equal(back, img)

    def test_description_and_resolution(self, rng, tmp_path):
        arr = rng.integers(0, 255, (8, 8)).astype(np.uint8)
        path = tmp_path / "meta.tif"
        write_tiff(path, arr, description="FIB-SEM slice", resolution=(2e6, 4e6))
        pages = read_tiff_pages(path)
        assert len(pages) == 1
        _, info = pages[0]
        assert info.description == "FIB-SEM slice"
        assert info.resolution is not None
        assert info.resolution[0] == pytest.approx(2e6, rel=1e-3)
        assert info.resolution[1] == pytest.approx(4e6, rel=1e-3)

    def test_page_info_fields(self, rng, tmp_path):
        arr = rng.integers(0, 65535, (6, 7)).astype(np.uint16)
        path = tmp_path / "i.tif"
        write_tiff(path, arr, compress=True)
        _, info = read_tiff_pages(path)[0]
        assert (info.width, info.height) == (7, 6)
        assert info.bits_per_sample == 16
        assert info.compression == 8
        assert info.dtype == np.uint16


class TestValidation:
    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValidationError):
            write_tiff(tmp_path / "x.tif", np.zeros((4, 4), dtype=np.int64))

    def test_not_a_tiff(self, tmp_path):
        path = tmp_path / "no.tif"
        path.write_bytes(b"hello world, definitely not a tiff")
        with pytest.raises(FormatError, match="byte-order"):
            read_tiff(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.tif"
        path.write_bytes(b"II*\x00")
        with pytest.raises(FormatError):
            read_tiff(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.tif"
        path.write_bytes(b"II\x2b\x00" + b"\x00" * 16)  # BigTIFF magic 43
        with pytest.raises(FormatError, match="magic"):
            read_tiff(path)

    def test_heterogeneous_pages_need_pages_api(self, rng, tmp_path):
        # Write two valid single-page files and splice? Simpler: the writer
        # always emits homogeneous stacks, so emulate by writing pages of
        # different dtypes via two writes is impossible — instead check that
        # read_tiff on homogeneous input returns ndarray (covered above) and
        # that read_tiff_pages returns per-page arrays.
        vol = rng.integers(0, 255, (3, 5, 6)).astype(np.uint8)
        path = tmp_path / "v.tif"
        write_tiff(path, vol)
        pages = read_tiff_pages(path)
        assert len(pages) == 3
        for z, (arr, _) in enumerate(pages):
            assert np.array_equal(arr, vol[z])


# -- damaged and hand-crafted files -------------------------------------------


import struct

from repro.errors import CodecError, CorruptTileError, UnknownFormatError
from repro.io.lazy import TiffLazyVolume
from repro.io.tiff import decode_strips, walk_ifds


def _mk_tiff(pages, endian="<"):
    """Hand-build a minimal uncompressed grayscale TIFF (full tag control)."""
    e = endian
    bom = b"II" if e == "<" else b"MM"
    blob = bytearray(bom + struct.pack(e + "H", 42) + b"\x00\x00\x00\x00")
    strip_offsets = []
    for arr in pages:
        strip_offsets.append(len(blob))
        blob += arr.astype(arr.dtype.newbyteorder(e)).tobytes()
    ifd_offsets = []
    for i, arr in enumerate(pages):
        if len(blob) % 2:
            blob += b"\x00"
        ifd_offsets.append(len(blob))
        h, w = arr.shape
        bits = arr.dtype.itemsize * 8
        entries = [
            (256, 3, 1, w),
            (257, 3, 1, h),
            (258, 3, 1, bits),
            (259, 3, 1, 1),  # uncompressed
            (273, 4, 1, strip_offsets[i]),
            (277, 3, 1, 1),
            (279, 4, 1, arr.nbytes),
        ]
        blob += struct.pack(e + "H", len(entries))
        for tag, typ, count, value in entries:
            blob += struct.pack(e + "HHI", tag, typ, count)
            if typ == 3:
                blob += struct.pack(e + "HH", value, 0)
            else:
                blob += struct.pack(e + "I", value)
        blob += b"\x00\x00\x00\x00"  # next-IFD placeholder
    for i, off in enumerate(ifd_offsets):
        nxt = ifd_offsets[i + 1] if i + 1 < len(ifd_offsets) else 0
        n_entries = struct.unpack_from(e + "H", blob, off)[0]
        struct.pack_into(e + "I", blob, off + 2 + 12 * n_entries, nxt)
    struct.pack_into(e + "I", blob, 4, ifd_offsets[0])
    return bytes(blob)


class TestDamagedFiles:
    def test_truncated_ifd_declares_entries_past_eof(self, tmp_path):
        path = tmp_path / "t.tif"
        path.write_bytes(b"II*\x00" + struct.pack("<I", 8) + struct.pack("<H", 5000))
        with pytest.raises(FormatError, match="truncated|ends"):
            read_tiff(path)

    def test_zero_page_file(self, tmp_path):
        path = tmp_path / "z.tif"
        path.write_bytes(b"II*\x00" + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="no pages"):
            read_tiff(path)
        with pytest.raises(FormatError, match="no pages"):
            TiffLazyVolume(path)

    def test_ragged_pages_rejected(self, rng, tmp_path):
        pages = [
            rng.integers(0, 255, (8, 8)).astype(np.uint8),
            rng.integers(0, 255, (6, 10)).astype(np.uint8),
        ]
        path = tmp_path / "r.tif"
        path.write_bytes(_mk_tiff(pages))
        with pytest.raises(FormatError, match="heterogeneous"):
            read_tiff(path)
        with pytest.raises(FormatError):
            TiffLazyVolume(path)

    def test_big_endian_16bit_round_trip(self, rng, tmp_path):
        vol = rng.integers(0, 65535, (3, 9, 7)).astype(np.uint16)
        path = tmp_path / "be.tif"
        path.write_bytes(_mk_tiff(list(vol), endian=">"))
        back = read_tiff(path)
        assert back.dtype == np.uint16
        assert np.array_equal(back, vol)
        with TiffLazyVolume(path) as lazy:
            assert lazy.meta["endian"] == "big"
            for z in range(3):
                tile = lazy.read_tile(z)
                assert tile.dtype.byteorder in ("=", "|")
                assert np.array_equal(tile, vol[z])

    def test_truncated_tail_salvages_page_prefix(self, rng, tmp_path):
        vol = rng.integers(0, 255, (4, 12, 12)).astype(np.uint8)
        full = tmp_path / "full.tif"
        write_tiff(full, vol)
        data = full.read_bytes()
        torn = tmp_path / "torn.tif"
        torn.write_bytes(data[: len(data) * 2 // 3])
        with TiffLazyVolume(torn) as lazy:
            assert lazy.meta["truncated_tail"] is True
            assert 1 <= lazy.n_tiles < 4
            assert np.array_equal(lazy.read_tile(0), vol[0])

    def test_torn_zlib_strip_salvages_decoded_prefix(self, rng, tmp_path):
        img = rng.integers(0, 255, (32, 32)).astype(np.uint8)
        path = tmp_path / "z.tif"
        write_tiff(path, img, compress=True)
        data = path.read_bytes()
        endian, (page,), _ = walk_ifds(data)
        (off,), (cnt,) = page.strip_offsets, page.strip_counts
        with pytest.raises(CorruptTileError) as exc:
            decode_strips(data[: off + cnt // 2], endian, page)
        assert exc.value.kind == "torn"
        first_wrong = int(np.argmin(exc.value.salvage == img))
        assert first_wrong > img.size // 4  # inflated pixels, not deflate bytes

    def test_size_tags_beyond_the_strips_are_unreadable(self, rng, tmp_path):
        img = rng.integers(0, 255, (16, 16)).astype(np.uint8)
        path = tmp_path / "w.tif"
        write_tiff(path, img)
        data = bytearray(path.read_bytes())
        (ifd,) = struct.unpack_from("<I", data, 4)
        assert struct.unpack_from("<HHI", data, ifd + 2) == (256, 4, 1)  # width
        struct.pack_into("<I", data, ifd + 2 + 8, 4096)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_tiff(path)
        with TiffLazyVolume(path) as lazy, pytest.raises(CorruptTileError) as exc:
            lazy.read_tile(0)
        assert exc.value.kind == "unreadable" and exc.value.salvage is None

    def test_codec_stop_on_a_later_page_is_not_a_torn_tail(self, rng, tmp_path):
        vol = rng.integers(0, 255, (3, 8, 8)).astype(np.uint8)
        path = tmp_path / "lzw.tif"
        write_tiff(path, vol)
        data = bytearray(path.read_bytes())
        (ifd,) = struct.unpack_from("<I", data, 4)
        (n,) = struct.unpack_from("<H", data, ifd)
        (ifd,) = struct.unpack_from("<I", data, ifd + 2 + 12 * n)  # page 1
        (n,) = struct.unpack_from("<H", data, ifd)
        entries = [ifd + 2 + 12 * i for i in range(n)]
        (entry,) = [e for e in entries if struct.unpack_from("<H", data, e)[0] == 259]
        struct.pack_into("<H", data, entry + 8, 5)  # compression: LZW
        path.write_bytes(bytes(data))
        with pytest.raises(CodecError, match="compression 5"):
            TiffLazyVolume(path)


class TestBitFlipFuzz:
    """Fuzz-lite battery: single-byte flips anywhere in the file must come
    out as a structured error (or a successful decode) — never an uncaught
    exception — and the lazy front end must classify them."""

    def _flips(self, size, n=48):
        rng = np.random.default_rng(1234)
        return sorted(set(int(i) for i in rng.integers(0, size, n)))

    def test_eager_reader_never_raises_uncaught(self, rng, tmp_path):
        vol = rng.integers(0, 255, (3, 16, 16)).astype(np.uint8)
        path = tmp_path / "f.tif"
        write_tiff(path, vol, compress=True)
        data = bytearray(path.read_bytes())
        outcomes = {"ok": 0, "format_error": 0}
        for off in self._flips(len(data)):
            flipped = bytearray(data)
            flipped[off] ^= 0x20
            path.write_bytes(bytes(flipped))
            try:
                read_tiff(path)
                outcomes["ok"] += 1
            except FormatError:
                outcomes["format_error"] += 1
        assert sum(outcomes.values()) == len(self._flips(len(data)))
        assert outcomes["format_error"] > 0  # some flips must land in structure

    def test_lazy_front_end_classifies_flips(self, rng, tmp_path):
        from repro.io import write_sidecar

        vol = rng.integers(0, 255, (3, 16, 16)).astype(np.uint8)
        path = tmp_path / "f.tif"
        write_tiff(path, vol, compress=True)
        with TiffLazyVolume(path) as lazy:
            write_sidecar(lazy)
        data = bytearray(path.read_bytes())
        kinds = set()
        for off in self._flips(len(data)):
            flipped = bytearray(data)
            flipped[off] ^= 0x20
            path.write_bytes(bytes(flipped))
            try:
                lazy = TiffLazyVolume(path)
            except (FormatError, UnknownFormatError):
                kinds.add("open_rejected")
                continue
            with lazy:
                from repro.io import verify_volume

                report = verify_volume(lazy)
                for t in report["tiles"]:
                    assert t["status"] in ("torn", "flip", "unreadable")
                    kinds.add(t["status"])
                if report["ok"]:
                    kinds.add("ok")
        # The battery must exercise several classifications, and a sidecar
        # means a strip-data flip is *detected*, not silently decoded.
        assert "flip" in kinds or "unreadable" in kinds
        assert "open_rejected" in kinds or "torn" in kinds

    @pytest.mark.parametrize("compress", [False, True])
    def test_type_field_flips_agree_across_readers(self, rng, tmp_path, compress):
        """Flipping low bits of an IFD entry's type turns one known TIFF type
        into another (LONG -> RATIONAL, SHORT -> ASCII, RATIONAL -> unknown).
        Both readers must reject the result with a FormatError or decode
        it, and decode it to the same pixels."""
        vol = rng.integers(0, 255, (3, 16, 16)).astype(np.uint8)
        path = tmp_path / "f.tif"
        write_tiff(path, vol, compress=compress, resolution=(2e6, 4e6))
        data = path.read_bytes()
        type_fields = []
        (ifd,) = struct.unpack_from("<I", data, 4)
        while ifd:
            (n,) = struct.unpack_from("<H", data, ifd)
            type_fields += [ifd + 2 + 12 * i + 2 for i in range(n)]
            (ifd,) = struct.unpack_from("<I", data, ifd + 2 + 12 * n)
        assert len(type_fields) == 3 * 13

        outcomes = {"both_ok": 0, "rejected": 0}
        for pos in type_fields:
            for bit in (0x01, 0x02, 0x04):
                flipped = bytearray(data)
                flipped[pos] ^= bit
                path.write_bytes(bytes(flipped))
                results = []
                for read_page0 in (
                    lambda: read_tiff(path)[0],
                    lambda: _lazy_tile0(path),
                ):
                    try:
                        results.append(read_page0())
                    except FormatError:
                        results.append(None)
                if all(r is not None for r in results):
                    outcomes["both_ok"] += 1
                    assert np.array_equal(results[0], results[1]), (pos, bit)
                else:
                    outcomes["rejected"] += 1
        assert outcomes["both_ok"] > 0 and outcomes["rejected"] > 0


def _lazy_tile0(path):
    with TiffLazyVolume(path) as lazy:
        return lazy.read_tile(0)
