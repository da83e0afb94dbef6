"""Out-of-core volume readers: shape/dtype up front, tiles on demand.

Instrument stacks are routinely larger than RAM, and the paper's whole
premise is ingesting them *without* AI-ready preprocessing.  A
:class:`LazyVolume` exposes a volume's geometry and acquisition metadata
immediately — parsed from headers alone — while pixel data is read one
*tile* (Z slice) at a time, so the resident set of a streaming segmentation
is a handful of tiles, never the array.

Three front ends cover what instruments actually produce:

* :class:`TiffLazyVolume` — multi-page TIFF stacks, read via a
  bounds-checked IFD walk over a read-only memory map.  Every offset and
  length is validated against the file size before it is dereferenced, so a
  truncated or bit-rotted file yields a structured
  :class:`~repro.errors.CorruptTileError` (classified torn / flip /
  unreadable), never a raw ``struct.error``.  A stack whose IFD chain is
  torn mid-file opens with the pages that survive and flags
  ``meta["truncated_tail"]``.
* :class:`SliceDirectoryVolume` — a directory of per-slice image files
  (TIFF/PNG/npy), sorted by name; the common "export every frame" layout.
* :class:`NpyLazyVolume` — raw ``.npy`` volumes read through ``mmap`` with
  the header parsed by numpy's own format module.

:func:`open_lazy_volume` sniffs which front end applies.  The failure
model around per-tile reads (checksums, retries, quarantine, degrade
policies) lives in :mod:`repro.io.integrity`.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from hashlib import sha1
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import CorruptTileError, FormatError, UnknownFormatError, ValidationError
from .tiff import TiffPageInfo

__all__ = [
    "LazyVolume",
    "TiffLazyVolume",
    "SliceDirectoryVolume",
    "NpyLazyVolume",
    "ArrayLazyVolume",
    "open_lazy_volume",
]

_SLICE_FILE_SUFFIXES = (".tif", ".tiff", ".png", ".npy")


class LazyVolume:
    """Protocol base: geometry/metadata eagerly, pixels per tile on demand.

    Subclasses set ``shape`` (Z, Y, X), ``dtype`` (native byte order), and
    ``meta`` in ``__init__`` and implement :meth:`_read_tile_raw`.
    """

    shape: tuple[int, int, int]
    dtype: np.dtype
    meta: dict[str, Any]
    source_path: str | None = None

    # -- geometry -------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return int(self.shape[0])

    @property
    def tile_shape(self) -> tuple[int, int]:
        return (int(self.shape[1]), int(self.shape[2]))

    @property
    def tile_nbytes(self) -> int:
        """Bytes one decoded tile occupies (the unit of the memory budget)."""
        return int(self.shape[1]) * int(self.shape[2]) * int(self.dtype.itemsize)

    @property
    def nbytes(self) -> int:
        return self.tile_nbytes * self.n_tiles

    # -- data -----------------------------------------------------------------

    def read_tile(self, z: int) -> np.ndarray:
        """Decode tile ``z`` as a native-byte-order 2-D array.

        Raises :class:`~repro.errors.CorruptTileError` (with a torn / flip /
        unreadable classification) for damaged tiles; never leaks a raw
        ``struct.error`` / ``zlib.error`` / ``ValueError``.
        """
        if not 0 <= int(z) < self.n_tiles:
            raise ValidationError(f"tile {z} out of range for {self.n_tiles} tiles")
        tile = self._read_tile_raw(int(z))
        if tile.dtype.byteorder in ("<", ">"):
            tile = tile.astype(tile.dtype.newbyteorder("="))
        return tile

    def _read_tile_raw(self, z: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def tile_bytes(self, z: int) -> bytes:
        """The canonical byte serialization of tile ``z`` (checksum input).

        Defined over the *decoded* native-order array so a checksum written
        from one front end verifies a re-export through another.
        """
        return np.ascontiguousarray(self.read_tile(z)).tobytes()

    def content_key(self) -> str:
        """A streaming content address: sha1 over decoded tile bytes.

        One full pass of IO, O(tile) memory.  Cached — checkpoint
        fingerprints and job identities call this repeatedly.
        """
        cached = getattr(self, "_content_key", None)
        if cached is not None:
            return cached
        h = sha1()
        h.update(repr((self.shape, str(self.dtype))).encode())
        for z in range(self.n_tiles):
            h.update(self.tile_bytes(z))
        key = h.hexdigest()
        self._content_key = key
        return key

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release file handles / maps.  Idempotent."""

    def __enter__(self) -> "LazyVolume":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> dict[str, Any]:
        """JSON-safe summary (the platform preview for streamed volumes)."""
        return {
            "kind": "volume",
            "lazy": True,
            "shape": [int(s) for s in self.shape],
            "dtype": str(self.dtype),
            "tile_nbytes": self.tile_nbytes,
            "nbytes": self.nbytes,
            "source": self.source_path,
            "meta": {k: v for k, v in self.meta.items() if _json_safe(v)},
        }


def _json_safe(v) -> bool:
    return isinstance(v, (str, int, float, bool, type(None), list, tuple))


# ---------------------------------------------------------------------------
# TIFF front end: bounds-checked IFD walk over a memory map
# ---------------------------------------------------------------------------

_TAG_WIDTH = 256
_TAG_HEIGHT = 257
_TAG_BITS = 258
_TAG_COMPRESSION = 259
_TAG_DESCRIPTION = 270
_TAG_STRIP_OFFSETS = 273
_TAG_SAMPLES_PER_PIXEL = 277
_TAG_STRIP_BYTE_COUNTS = 279
_TAG_XRES = 282
_TAG_YRES = 283
_TAG_PLANAR = 284
_TAG_SAMPLE_FORMAT = 339

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8}


@dataclass
class _TiffPage:
    """Validated layout of one page: everything a tile read needs."""

    info: TiffPageInfo
    strip_offsets: tuple[int, ...]
    strip_counts: tuple[int, ...]
    ifd_offset: int


class _BoundedReader:
    """Checked primitive reads over a buffer; every access is validated."""

    def __init__(self, buf, endian: str) -> None:
        self.buf = buf
        self.size = len(buf)
        self.endian = endian

    def require(self, offset: int, length: int, what: str) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise CorruptTileError(
                f"TIFF {what} at offset {offset} (+{length} bytes) exceeds "
                f"file size {self.size}",
                kind="torn",
            )

    def u16(self, offset: int, what: str) -> int:
        self.require(offset, 2, what)
        return struct.unpack_from(self.endian + "H", self.buf, offset)[0]

    def u32(self, offset: int, what: str) -> int:
        self.require(offset, 4, what)
        return struct.unpack_from(self.endian + "I", self.buf, offset)[0]

    def bytes_at(self, offset: int, length: int, what: str) -> bytes:
        self.require(offset, length, what)
        return bytes(self.buf[offset : offset + length])


def _read_tag_values(r: _BoundedReader, typ: int, count: int, raw: bytes) -> tuple:
    """Decode one IFD entry's values with full bounds checking."""
    size = _TYPE_SIZE.get(typ)
    if size is None:
        return ()
    total = size * count
    if total <= 4:
        payload = raw[:total]
    else:
        (offset,) = struct.unpack(r.endian + "I", raw)
        payload = r.bytes_at(offset, total, "tag payload")
    try:
        if typ == 2:  # ASCII
            return (payload.rstrip(b"\x00").decode("ascii", "replace"),)
        if typ == 1:  # BYTE
            return tuple(payload)
        if typ == 3:  # SHORT
            return struct.unpack(r.endian + "H" * count, payload)
        if typ == 4:  # LONG
            return struct.unpack(r.endian + "I" * count, payload)
        if typ == 5:  # RATIONAL
            vals = struct.unpack(r.endian + "II" * count, payload)
            return tuple(
                (vals[2 * i] / vals[2 * i + 1]) if vals[2 * i + 1] else 0.0
                for i in range(count)
            )
    except struct.error as exc:
        raise CorruptTileError(f"corrupt TIFF tag payload: {exc}", kind="unreadable") from exc
    return ()


def _parse_page(r: _BoundedReader, ifd_offset: int) -> tuple[_TiffPage, int]:
    """Parse one IFD into a validated page layout; returns (page, next_ifd)."""
    n = r.u16(ifd_offset, "IFD entry count")
    tags: dict[int, tuple] = {}
    pos = ifd_offset + 2
    r.require(pos, 12 * n + 4, "IFD entries")
    for _ in range(n):
        tag, typ, count = struct.unpack_from(r.endian + "HHI", r.buf, pos)
        raw = bytes(r.buf[pos + 8 : pos + 12])
        tags[tag] = _read_tag_values(r, typ, count, raw)
        pos += 12
    next_ifd = r.u32(pos, "next-IFD pointer")

    def one(tag, default=None):
        v = tags.get(tag)
        return v[0] if v else default

    width, height = one(_TAG_WIDTH), one(_TAG_HEIGHT)
    if width is None or height is None:
        raise CorruptTileError("TIFF page missing width/height", kind="unreadable")
    info = TiffPageInfo(
        width=int(width),
        height=int(height),
        bits_per_sample=int(one(_TAG_BITS, 8)),
        samples_per_pixel=int(one(_TAG_SAMPLES_PER_PIXEL, 1)),
        sample_format=int(one(_TAG_SAMPLE_FORMAT, 1)),
        compression=int(one(_TAG_COMPRESSION, 1)),
        description=str(one(_TAG_DESCRIPTION, "")),
        tags=tags,
    )
    if _TAG_XRES in tags and _TAG_YRES in tags and tags[_TAG_XRES] and tags[_TAG_YRES]:
        info.resolution = (float(tags[_TAG_XRES][0]), float(tags[_TAG_YRES][0]))
    if int(one(_TAG_PLANAR, 1)) != 1:
        raise CorruptTileError("planar TIFF not supported", kind="unreadable")
    if info.compression not in (1, 8):
        raise CorruptTileError(
            f"unsupported TIFF compression {info.compression}", kind="unreadable"
        )
    offsets = tags.get(_TAG_STRIP_OFFSETS)
    counts = tags.get(_TAG_STRIP_BYTE_COUNTS)
    if not offsets or not counts or len(offsets) != len(counts):
        raise CorruptTileError("TIFF page missing strip layout", kind="unreadable")
    page = _TiffPage(
        info=info,
        strip_offsets=tuple(int(o) for o in offsets),
        strip_counts=tuple(int(c) for c in counts),
        ifd_offset=ifd_offset,
    )
    return page, next_ifd


class TiffLazyVolume(LazyVolume):
    """A multi-page TIFF stack over ``mmap``; one page per tile.

    The IFD chain is walked once at open time (headers only — strip data is
    untouched until :meth:`read_tile`).  A chain torn mid-file keeps the
    pages whose IFDs parsed and sets ``meta["truncated_tail"]``; a first
    page that does not parse raises :class:`~repro.errors.FormatError`.
    """

    def __init__(self, path: Path | str) -> None:
        self.source_path = os.fspath(path)
        self._fh = open(path, "rb")
        try:
            self._mm: Any = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-byte file cannot be mapped
            self._fh.close()
            raise UnknownFormatError(
                f"{self.source_path!r} is empty (0 bytes)", reason="empty"
            ) from exc
        if len(self._mm) < 8:
            self.close()
            raise FormatError(f"{self.source_path!r} too short to be a TIFF")
        head = bytes(self._mm[:2])
        if head == b"II":
            endian = "<"
        elif head == b"MM":
            endian = ">"
        else:
            self.close()
            raise FormatError("not a TIFF: bad byte-order mark")
        self._r = _BoundedReader(self._mm, endian)
        if self._r.u16(2, "magic") != 42:
            self.close()
            raise FormatError("not a TIFF: magic != 42")

        pages: list[_TiffPage] = []
        truncated = False
        ifd_offset = self._r.u32(4, "first IFD offset")
        seen: set[int] = set()
        while ifd_offset:
            if ifd_offset in seen:
                self.close()
                raise FormatError("TIFF IFD chain loops")
            seen.add(ifd_offset)
            try:
                page, ifd_offset = _parse_page(self._r, ifd_offset)
            except CorruptTileError as exc:
                if not pages:
                    self.close()
                    raise FormatError(
                        f"first TIFF page unreadable in {self.source_path!r}: {exc}"
                    ) from exc
                # A torn tail ate this IFD: keep the surviving prefix.
                truncated = True
                break
            pages.append(page)
        if not pages:
            self.close()
            raise FormatError(f"TIFF {self.source_path!r} contains no pages")

        first = pages[0].info
        if first.samples_per_pixel != 1:
            self.close()
            raise FormatError("lazy TIFF volumes must be single-channel grayscale stacks")
        for i, page in enumerate(pages):
            if (page.info.height, page.info.width) != (first.height, first.width) or (
                page.info.dtype != first.dtype
            ):
                self.close()
                raise FormatError(
                    f"TIFF pages have ragged shapes/dtypes: page {i} is "
                    f"{page.info.height}x{page.info.width} {page.info.dtype}, "
                    f"page 0 is {first.height}x{first.width} {first.dtype}"
                )
        self._pages = pages
        self._endian = endian
        self.shape = (len(pages), first.height, first.width)
        self.dtype = np.dtype(first.dtype)
        voxel_size = None
        if first.resolution is not None and all(first.resolution):
            # Resolution tags carry pixels-per-centimetre; invert to nm.
            voxel_size = (1e7 / first.resolution[0], 1e7 / first.resolution[1])
        self.meta = {
            "format": "tiff",
            "endian": "little" if endian == "<" else "big",
            "bit_depth": first.bits_per_sample,
            "compression": first.compression,
            "description": first.description,
            "pixel_size_nm": list(voxel_size) if voxel_size else None,
            "truncated_tail": truncated,
        }

    def _read_tile_raw(self, z: int) -> np.ndarray:
        page = self._pages[z]
        info = page.info
        n_expected = info.width * info.height
        expected_bytes = n_expected * info.dtype.itemsize
        blob = bytearray()
        short = False
        for off, cnt in zip(page.strip_offsets, page.strip_counts):
            try:
                self._r.require(off, cnt, f"page {z} strip")
            except CorruptTileError:
                # Strip extends past EOF: a torn tail.  Salvage what exists.
                avail = max(0, min(cnt, self._r.size - off)) if off < self._r.size else 0
                blob += self._r.bytes_at(off, avail, "salvage") if avail else b""
                short = True
                continue
            chunk = self._r.bytes_at(off, cnt, f"page {z} strip")
            if info.compression == 8:
                try:
                    chunk = zlib.decompress(chunk)
                except zlib.error as exc:
                    raise CorruptTileError(
                        f"TIFF page {z} has a corrupt zlib stream: {exc}",
                        kind="unreadable",
                        tile=z,
                        path=self.source_path,
                    ) from exc
            blob += chunk
        if short or len(blob) < expected_bytes:
            # Zero-fill the missing tail so degrade mode can salvage.
            salvage = np.zeros(n_expected, dtype=info.dtype)
            got = min(len(blob), expected_bytes) // info.dtype.itemsize
            if got:
                dtype = info.dtype.newbyteorder(self._endian)
                salvage[:got] = np.frombuffer(
                    bytes(blob[: got * info.dtype.itemsize]), dtype=dtype
                ).astype(info.dtype)
            raise CorruptTileError(
                f"TIFF page {z} truncated: {len(blob)} of {expected_bytes} bytes",
                kind="torn",
                tile=z,
                path=self.source_path,
                salvage=salvage.reshape(info.height, info.width),
            )
        dtype = info.dtype.newbyteorder(self._endian)
        arr = np.frombuffer(bytes(blob), dtype=dtype, count=n_expected)
        return arr.astype(info.dtype).reshape(info.height, info.width)

    def close(self) -> None:
        mm = getattr(self, "_mm", None)
        if mm is not None:
            try:
                mm.close()
            except ValueError:  # exported buffers still alive
                pass
            self._mm = None
        fh = getattr(self, "_fh", None)
        if fh is not None and not fh.closed:
            fh.close()


# ---------------------------------------------------------------------------
# Directory-of-slices front end
# ---------------------------------------------------------------------------


class SliceDirectoryVolume(LazyVolume):
    """A directory of per-slice image files, one tile per file (name order)."""

    def __init__(self, path: Path | str) -> None:
        self.source_path = os.fspath(path)
        root = Path(path)
        files = sorted(
            p for p in root.iterdir()
            if p.is_file() and p.suffix.lower() in _SLICE_FILE_SUFFIXES
        )
        if not files:
            raise FormatError(
                f"{self.source_path!r} holds no slice files "
                f"(looked for {', '.join(_SLICE_FILE_SUFFIXES)})"
            )
        self._files = files
        first = self._load_file(0)
        if first.ndim != 2:
            raise FormatError(
                f"slice files must be 2-D grayscale, {files[0].name} has shape {first.shape}"
            )
        self.shape = (len(files), int(first.shape[0]), int(first.shape[1]))
        self.dtype = np.dtype(first.dtype)
        self.meta = {
            "format": "slice_dir",
            "n_files": len(files),
            "first_file": files[0].name,
            "bit_depth": int(first.dtype.itemsize * 8),
        }

    def _load_file(self, z: int) -> np.ndarray:
        from .formats import load_image_file

        path = self._files[z]
        try:
            return np.asarray(load_image_file(path))
        except CorruptTileError as exc:
            raise CorruptTileError(
                str(exc), kind=exc.kind, tile=z, path=os.fspath(path), salvage=exc.salvage
            ) from exc
        except FormatError as exc:
            if not hasattr(self, "shape"):  # first file: no expectation yet
                raise
            # Distinguish a short file (torn transfer) from bad structure.
            try:
                size = path.stat().st_size
            except OSError:
                size = None
            kind = "torn" if size is not None and size < self.tile_nbytes // 4 else "unreadable"
            raise CorruptTileError(
                f"slice file {path.name} unreadable: {exc}",
                kind=kind,
                tile=z,
                path=os.fspath(path),
            ) from exc

    def _read_tile_raw(self, z: int) -> np.ndarray:
        tile = self._load_file(z)
        if tile.shape != self.tile_shape or tile.dtype != self.dtype:
            raise CorruptTileError(
                f"slice file {self._files[z].name} is {tile.shape} {tile.dtype}, "
                f"volume is {self.tile_shape} {self.dtype}",
                kind="unreadable",
                tile=z,
                path=os.fspath(self._files[z]),
            )
        return tile

    def tile_path(self, z: int) -> Path:
        return self._files[int(z)]


# ---------------------------------------------------------------------------
# Raw .npy / memmap front end
# ---------------------------------------------------------------------------


class NpyLazyVolume(LazyVolume):
    """A raw ``.npy`` 3-D volume, tiles sliced out of a read-only memmap."""

    def __init__(self, path: Path | str) -> None:
        self.source_path = os.fspath(path)
        try:
            with open(path, "rb") as fh:
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    header = np.lib.format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    header = np.lib.format.read_array_header_2_0(fh)
                else:
                    raise FormatError(f"unsupported .npy format version {version}")
                header_shape, fortran, dtype = header
                self._data_offset = fh.tell()
        except (ValueError, OSError) as exc:
            raise FormatError(f"{self.source_path!r} is not a valid .npy file: {exc}") from exc
        if fortran:
            raise FormatError("Fortran-order .npy volumes are not supported for streaming")
        if len(header_shape) != 3:
            raise FormatError(
                f".npy volume must be 3-D (Z, Y, X), got shape {tuple(header_shape)}"
            )
        if dtype.hasobject:
            raise FormatError("object-dtype .npy volumes are not supported")
        self.shape = tuple(int(s) for s in header_shape)  # type: ignore[assignment]
        self.dtype = np.dtype(dtype.newbyteorder("="))
        self._file_dtype = np.dtype(dtype)
        self._size = os.path.getsize(path)
        self.meta = {
            "format": "npy",
            "bit_depth": int(self.dtype.itemsize * 8),
            "data_offset": int(self._data_offset),
            "truncated_tail": self._size
            < self._data_offset + self.tile_nbytes * self.shape[0],
        }
        # Map exactly the whole samples present: a torn tail may end
        # mid-sample, which shape=None would reject with a ValueError.
        n_items = max(0, (self._size - self._data_offset) // self._file_dtype.itemsize)
        if n_items == 0:
            raise FormatError(f"{self.source_path!r} holds a header but no samples")
        self._mm = np.memmap(
            path, dtype=self._file_dtype, mode="r", offset=self._data_offset, shape=(n_items,)
        )

    def _read_tile_raw(self, z: int) -> np.ndarray:
        n = self.shape[1] * self.shape[2]
        start = z * n
        avail = int(self._mm.shape[0])
        if start + n > avail:
            got = max(0, avail - start)
            salvage = np.zeros(n, dtype=self.dtype)
            if got:
                salvage[:got] = np.asarray(self._mm[start : start + got]).astype(self.dtype)
            raise CorruptTileError(
                f".npy tile {z} truncated: {got} of {n} samples present",
                kind="torn",
                tile=z,
                path=self.source_path,
                salvage=salvage.reshape(self.tile_shape),
            )
        tile = np.asarray(self._mm[start : start + n]).astype(self.dtype)
        return tile.reshape(self.tile_shape)

    def close(self) -> None:
        mm = getattr(self, "_mm", None)
        if mm is not None:
            del self._mm
            self._mm = None


# ---------------------------------------------------------------------------
# In-memory wrapper (uniform code path for tests and the platform)
# ---------------------------------------------------------------------------


@dataclass
class ArrayLazyVolume(LazyVolume):
    """Wrap an in-memory array behind the LazyVolume protocol."""

    array: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.array)
        if arr.ndim != 3:
            raise ValidationError(f"ArrayLazyVolume needs a 3-D array, got {arr.shape}")
        self.array = arr
        self.shape = tuple(int(s) for s in arr.shape)  # type: ignore[assignment]
        self.dtype = arr.dtype
        self.meta = {"format": "array", **self.meta}
        self.source_path = None

    def _read_tile_raw(self, z: int) -> np.ndarray:
        return np.array(self.array[z], copy=True)

    def tile_bytes(self, z: int) -> bytes:
        # The array's own bytes (byte order included): a volume fingerprint
        # over them equals the array's array_content_key.
        return np.ascontiguousarray(self.array[z]).tobytes()


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def open_lazy_volume(path: Path | str) -> LazyVolume:
    """Open any supported source as a :class:`LazyVolume`.

    Directories become :class:`SliceDirectoryVolume`; files are sniffed by
    magic bytes (never extension).  Unsupported or empty content raises a
    structured :class:`~repro.errors.UnknownFormatError`.
    """
    p = Path(path)
    if p.is_dir():
        return SliceDirectoryVolume(p)
    if not p.exists():
        raise FormatError(f"no such volume source: {os.fspath(p)!r}")
    from .formats import sniff_format

    fmt = sniff_format(p)
    if fmt == "tiff":
        return TiffLazyVolume(p)
    if fmt == "npy":
        return NpyLazyVolume(p)
    raise UnknownFormatError(
        f"{os.fspath(p)!r} is a {fmt} file; streaming ingestion supports "
        "multi-page TIFF stacks, .npy volumes, and slice directories",
        reason="unstreamable",
    )
