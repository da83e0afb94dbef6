"""Out-of-core volume readers: shape/dtype up front, tiles on demand.

Instrument stacks are routinely larger than RAM, and the paper's whole
premise is ingesting them *without* AI-ready preprocessing.  A
:class:`LazyVolume` exposes a volume's geometry and acquisition metadata
immediately — parsed from headers alone — while pixel data is read one
*tile* (Z slice) at a time, so the resident set of a streaming segmentation
is a handful of tiles, never the array.

Three front ends cover what instruments actually produce:

* :class:`TiffLazyVolume` — multi-page TIFF stacks over a read-only
  memory map.  It is the lenient reader on the one TIFF parser in
  :mod:`repro.io.tiff` (the strict one is :func:`~repro.io.tiff.read_tiff`):
  the parser's bounds-checked IFD walk and strip decoder turn a truncated
  or bit-rotted file into a structured
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
from dataclasses import dataclass, field
from hashlib import sha1
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import CorruptTileError, FormatError, UnknownFormatError, ValidationError
from .tiff import decode_strips, walk_ifds

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
# TIFF front end: the lenient reader over the shared parser in .tiff
# ---------------------------------------------------------------------------


class TiffLazyVolume(LazyVolume):
    """A multi-page TIFF stack over ``mmap``; one page per tile.

    The IFD chain is walked once at open time (headers only — strip data is
    untouched until :meth:`read_tile`).  A chain torn mid-file keeps the
    pages whose IFDs parsed and sets ``meta["truncated_tail"]``; any other
    page that does not parse raises its :class:`~repro.errors.FormatError`
    (a :class:`~repro.errors.CodecError` for a feature the codec does not
    decode), as do multi-channel pages and pages of differing shape or
    dtype.
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
        try:
            self._endian, self._pages, error = walk_ifds(self._mm)
            if error is not None and not self._pages:
                raise FormatError(
                    f"first TIFF page unreadable in {self.source_path!r}: {error}"
                ) from error
            if error is not None and not (
                isinstance(error, CorruptTileError) and error.kind == "torn"
            ):
                # An intact page the codec cannot decode, or a damaged
                # layout tag, is not a torn tail: keeping the prefix would
                # hide the rest of the stack.
                raise error
            if not self._pages:
                raise FormatError(f"TIFF {self.source_path!r} contains no pages")
            first = self._pages[0].info
            if first.samples_per_pixel != 1:
                raise FormatError("lazy TIFF volumes must be single-channel grayscale stacks")
            for page in self._pages:
                info = page.info
                if (info.height, info.width, info.dtype) != (
                    first.height, first.width, first.dtype
                ):
                    raise FormatError(
                        f"TIFF pages have ragged shapes/dtypes: page {page.index} is "
                        f"{info.height}x{info.width} {info.dtype}, "
                        f"page 0 is {first.height}x{first.width} {first.dtype}"
                    )
        except FormatError:
            self.close()
            raise
        self.shape = (len(self._pages), first.height, first.width)
        self.dtype = np.dtype(first.dtype)
        voxel_size = None
        if first.resolution is not None and all(first.resolution):
            # Resolution tags carry pixels-per-centimetre; invert to nm.
            voxel_size = (1e7 / first.resolution[0], 1e7 / first.resolution[1])
        self.meta = {
            "format": "tiff",
            "endian": "little" if self._endian == "<" else "big",
            "bit_depth": first.bits_per_sample,
            "compression": first.compression,
            "description": first.description,
            "pixel_size_nm": list(voxel_size) if voxel_size else None,
            # A torn tail ate the IFD after the last surviving page.
            "truncated_tail": error is not None,
        }

    def _read_tile_raw(self, z: int) -> np.ndarray:
        try:
            return decode_strips(self._mm, self._endian, self._pages[z])
        except CorruptTileError as exc:
            exc.path = self.source_path
            raise

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
