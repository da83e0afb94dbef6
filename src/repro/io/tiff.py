"""The one TIFF parser: a baseline writer and two readers over one walk.

FIB-SEM instruments ship volumes as multi-page TIFF stacks with unusual
sample formats (8/16/32-bit unsigned, 32-bit float), which is exactly the
"non-AI-ready" input the paper targets.  This module owns TIFF structure:

* **Writer** — little-endian baseline TIFF, one strip per page, uncompressed
  or zlib ("Deflate", tag value 8) compressed; grayscale ``uint8``/``uint16``/
  ``uint32``/``float32`` and RGB ``uint8``; multi-page stacks for volumes;
  optional X/Y resolution tags carrying the voxel size.
* **Parser** — :func:`walk_ifds` walks the IFD chain of a ``bytes`` or
  ``mmap`` buffer, checks every offset and length against the buffer size
  before reading it, and returns validated page layouts
  (:class:`TiffPageLayout`): both byte orders, any strip layout,
  compression 1 or 8, PlanarConfiguration 1, the sample formats above.
  :func:`decode_strips` decodes one page, or raises
  :class:`~repro.errors.CorruptTileError` classified ``torn`` (with the
  surviving prefix as salvage) or ``unreadable``.

Two readers sit on the parser.  :func:`read_tiff_pages` / :func:`read_tiff`
are strict: any damage raises :class:`~repro.errors.FormatError`.
:class:`repro.io.lazy.TiffLazyVolume` is lenient: it keeps the pages before
a torn IFD chain and decodes one tile at a time over ``mmap``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CodecError, CorruptTileError, FormatError, ValidationError

__all__ = ["write_tiff", "read_tiff", "read_tiff_pages", "TiffPageInfo"]

# TIFF tag ids used by this codec.
_TAG_WIDTH = 256
_TAG_HEIGHT = 257
_TAG_BITS = 258
_TAG_COMPRESSION = 259
_TAG_PHOTOMETRIC = 262
_TAG_DESCRIPTION = 270
_TAG_STRIP_OFFSETS = 273
_TAG_SAMPLES_PER_PIXEL = 277
_TAG_ROWS_PER_STRIP = 278
_TAG_STRIP_BYTE_COUNTS = 279
_TAG_XRES = 282
_TAG_YRES = 283
_TAG_PLANAR = 284
_TAG_RES_UNIT = 296
_TAG_SAMPLE_FORMAT = 339

_TYPE_BYTE = 1
_TYPE_ASCII = 2
_TYPE_SHORT = 3
_TYPE_LONG = 4
_TYPE_RATIONAL = 5

_TYPE_SIZE = {_TYPE_BYTE: 1, _TYPE_ASCII: 1, _TYPE_SHORT: 2, _TYPE_LONG: 4, _TYPE_RATIONAL: 8}

_SF_UINT = 1
_SF_FLOAT = 3

_MAX_DEFLATE_RATIO = 1032  # no deflate stream inflates by more than this


@dataclass
class TiffPageInfo:
    """Decoded metadata for one TIFF page (IFD)."""

    width: int
    height: int
    bits_per_sample: int
    samples_per_pixel: int
    sample_format: int
    compression: int
    description: str = ""
    resolution: tuple[float, float] | None = None  # pixels per unit (x, y)
    tags: dict[int, tuple] = field(default_factory=dict)

    @property
    def dtype(self) -> np.dtype:
        if self.sample_format == _SF_FLOAT:
            if self.bits_per_sample == 32:
                return np.dtype(np.float32)
            if self.bits_per_sample == 64:
                return np.dtype(np.float64)
            raise CodecError(f"unsupported float bit depth {self.bits_per_sample}")
        if self.bits_per_sample == 8:
            return np.dtype(np.uint8)
        if self.bits_per_sample == 16:
            return np.dtype(np.uint16)
        if self.bits_per_sample == 32:
            return np.dtype(np.uint32)
        raise CodecError(f"unsupported integer bit depth {self.bits_per_sample}")


def _page_dtype_fields(arr: np.ndarray) -> tuple[int, int, int]:
    """Map an array dtype to (bits, sample_format, photometric-ish samples)."""
    if arr.dtype == np.uint8:
        return 8, _SF_UINT, 1
    if arr.dtype == np.uint16:
        return 16, _SF_UINT, 1
    if arr.dtype == np.uint32:
        return 32, _SF_UINT, 1
    if arr.dtype == np.float32:
        return 32, _SF_FLOAT, 1
    raise ValidationError(
        f"TIFF writer supports uint8/uint16/uint32/float32 (and uint8 RGB), got {arr.dtype}"
    )


def _normalise_pages(image: np.ndarray) -> list[np.ndarray]:
    arr = np.asarray(image)
    if arr.ndim == 2:
        return [arr]
    if arr.ndim == 3 and arr.shape[2] in (3, 4) and arr.dtype == np.uint8 and arr.shape[0] > 4:
        return [arr]  # single RGB(A) page
    if arr.ndim == 3:
        return [arr[i] for i in range(arr.shape[0])]  # volume: one page per slice
    if arr.ndim == 4 and arr.shape[3] == 3:
        return [arr[i] for i in range(arr.shape[0])]
    raise ValidationError(f"cannot interpret array of shape {arr.shape} as TIFF pages")


def write_tiff(
    path,
    image: np.ndarray,
    *,
    compress: bool = False,
    description: str = "",
    resolution: tuple[float, float] | None = None,
) -> None:
    """Write a 2-D image, RGB image, or 3-D volume as a (multi-page) TIFF.

    ``resolution`` is (x, y) pixels-per-centimetre, carrying voxel size into
    the file the way FIB-SEM vendor software does.
    """
    pages = _normalise_pages(image)
    with open(path, "wb") as fh:
        fh.write(b"II*\x00")  # little-endian magic + version 42
        fh.write(struct.pack("<I", 0))  # placeholder for first IFD offset
        next_ifd_ptr_pos = 4
        for page in pages:
            ifd_offset = _write_page(fh, page, compress, description, resolution)
            # Patch the previous IFD-chain pointer to this page's IFD.
            end = fh.tell()
            fh.seek(next_ifd_ptr_pos)
            fh.write(struct.pack("<I", ifd_offset))
            fh.seek(end)
            next_ifd_ptr_pos = ifd_offset + 2 + 12 * _entry_count(page, description, resolution)


def _entry_count(page: np.ndarray, description: str, resolution) -> int:
    n = 10  # width, height, bits, compression, photometric, offsets, spp, rps, counts, sampleformat
    if description:
        n += 1
    if resolution is not None:
        n += 3  # xres, yres, unit
    return n


def _write_page(fh, page: np.ndarray, compress: bool, description: str, resolution) -> int:
    rgb = page.ndim == 3
    if rgb:
        if page.dtype != np.uint8 or page.shape[2] not in (3,):
            raise ValidationError("RGB TIFF pages must be uint8 HxWx3")
        bits, sample_format, spp = 8, _SF_UINT, 3
    else:
        bits, sample_format, spp = _page_dtype_fields(page)
    h, w = page.shape[:2]
    raw = np.ascontiguousarray(page).tobytes()
    data = zlib.compress(raw) if compress else raw
    data_offset = fh.tell()
    fh.write(data)
    if fh.tell() % 2:
        fh.write(b"\x00")  # word-align the IFD

    extra: dict[int, bytes] = {}  # tag -> out-of-line payload

    entries: list[tuple[int, int, int, bytes | None]] = []

    def entry(tag: int, typ: int, count: int, value: int | bytes):
        if isinstance(value, int):
            if typ == _TYPE_SHORT:
                packed = struct.pack("<HH", value, 0)
            else:
                packed = struct.pack("<I", value)
            entries.append((tag, typ, count, packed))
        else:
            if len(value) <= 4:
                entries.append((tag, typ, count, value.ljust(4, b"\x00")))
            else:
                entries.append((tag, typ, count, None))
                extra[tag] = value

    entry(_TAG_WIDTH, _TYPE_LONG, 1, w)
    entry(_TAG_HEIGHT, _TYPE_LONG, 1, h)
    entry(_TAG_BITS, _TYPE_SHORT, 1, bits)
    entry(_TAG_COMPRESSION, _TYPE_SHORT, 1, 8 if compress else 1)
    entry(_TAG_PHOTOMETRIC, _TYPE_SHORT, 1, 2 if rgb else 1)  # RGB or BlackIsZero
    if description:
        entry(_TAG_DESCRIPTION, _TYPE_ASCII, len(description) + 1, description.encode("ascii") + b"\x00")
    entry(_TAG_STRIP_OFFSETS, _TYPE_LONG, 1, data_offset)
    entry(_TAG_SAMPLES_PER_PIXEL, _TYPE_SHORT, 1, spp)
    entry(_TAG_ROWS_PER_STRIP, _TYPE_LONG, 1, h)
    entry(_TAG_STRIP_BYTE_COUNTS, _TYPE_LONG, 1, len(data))
    if resolution is not None:
        def _rational(value: float) -> bytes:
            # Largest power-of-ten denominator keeping the numerator in uint32.
            denom = 10000
            while denom > 1 and value * denom > 0xFFFFFFFF:
                denom //= 10
            return struct.pack("<II", int(round(value * denom)), denom)

        xres, yres = resolution
        entry(_TAG_XRES, _TYPE_RATIONAL, 1, _rational(xres))
        entry(_TAG_YRES, _TYPE_RATIONAL, 1, _rational(yres))
        entry(_TAG_RES_UNIT, _TYPE_SHORT, 1, 3)  # centimetre
    entry(_TAG_SAMPLE_FORMAT, _TYPE_SHORT, 1, sample_format)

    entries.sort(key=lambda e: e[0])
    ifd_offset = fh.tell()
    ifd_size = 2 + 12 * len(entries) + 4
    # Out-of-line payloads go right after the IFD.
    payload_offset = ifd_offset + ifd_size
    payload_blob = bytearray()
    resolved: list[bytes] = []
    for tag, typ, count, packed in entries:
        if packed is None:
            payload = extra[tag]
            addr = payload_offset + len(payload_blob)
            payload_blob += payload
            if len(payload_blob) % 2:
                payload_blob += b"\x00"
            resolved.append(struct.pack("<HHI", tag, typ, count) + struct.pack("<I", addr))
        else:
            resolved.append(struct.pack("<HHI", tag, typ, count) + packed)
    fh.write(struct.pack("<H", len(entries)))
    for r in resolved:
        fh.write(r)
    fh.write(struct.pack("<I", 0))  # next-IFD pointer; patched by caller for stacks
    fh.write(bytes(payload_blob))
    return ifd_offset


# ---------------------------------------------------------------------------
# Reader: one bounds-checked IFD walk and one strip decoder.  The strict
# read_tiff_pages below and the lenient repro.io.lazy.TiffLazyVolume are both
# built on these two functions.
# ---------------------------------------------------------------------------


@dataclass
class TiffPageLayout:
    """A validated page: its metadata and where its strips lie."""

    index: int
    info: TiffPageInfo
    strip_offsets: tuple[int, ...]
    strip_counts: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        info = self.info
        if info.samples_per_pixel == 1:
            return (info.height, info.width)
        return (info.height, info.width, info.samples_per_pixel)


def _require(buf, offset: int, length: int, what: str) -> None:
    if offset + length > len(buf):
        raise CorruptTileError(
            f"TIFF {what} at offset {offset} (+{length} bytes) runs past the end "
            f"of the {len(buf)}-byte file (truncated?)",
            kind="torn",
        )


def _tag_values(buf, endian: str, typ: int, count: int, entry: int) -> tuple:
    """Decode the values of the IFD entry at ``entry``; bounds-checked."""
    size = _TYPE_SIZE.get(typ)
    if size is None:
        return ()  # a type this codec does not read counts as absent
    total = size * count
    offset = entry + 8
    if total > 4:
        (offset,) = struct.unpack_from(endian + "I", buf, offset)
        _require(buf, offset, total, "tag payload")
    payload = bytes(buf[offset : offset + total])
    if typ == _TYPE_ASCII:
        return (payload.rstrip(b"\x00").decode("ascii", "replace"),)
    if typ == _TYPE_BYTE:
        return tuple(payload)
    if typ == _TYPE_RATIONAL:
        vals = struct.unpack(f"{endian}{2 * count}I", payload)
        return tuple(num / den if den else 0.0 for num, den in zip(vals[::2], vals[1::2]))
    return struct.unpack(f"{endian}{count}{'H' if typ == _TYPE_SHORT else 'I'}", payload)


def _parse_page(buf, endian: str, ifd_offset: int, index: int) -> tuple[TiffPageLayout, int]:
    """Parse and validate one IFD; returns (layout, next IFD offset)."""
    _require(buf, ifd_offset, 2, "IFD entry count")
    (n,) = struct.unpack_from(endian + "H", buf, ifd_offset)
    table_end = ifd_offset + 2 + 12 * n
    _require(buf, ifd_offset + 2, 12 * n + 4, f"IFD table of {n} entries")
    tags: dict[int, tuple] = {}
    for entry in range(ifd_offset + 2, table_end, 12):
        tag, typ, count = struct.unpack_from(endian + "HHI", buf, entry)
        tags[tag] = _tag_values(buf, endian, typ, count, entry)
    (next_ifd,) = struct.unpack_from(endian + "I", buf, table_end)

    def layout(tag: int, *default: int) -> tuple[int, ...]:
        # A layout tag fixes where pixels lie and how to decode them; one
        # whose type was damaged into text or a fraction must not be guessed.
        values = tags.get(tag) or default
        if not all(isinstance(v, int) for v in values):
            raise CorruptTileError(
                f"TIFF tag {tag} holds {values[0]!r}, not an integer", kind="unreadable"
            )
        return values

    width, height = layout(_TAG_WIDTH), layout(_TAG_HEIGHT)
    if not width or not height:
        raise CorruptTileError("TIFF page missing width/height", kind="unreadable")
    info = TiffPageInfo(
        width=width[0],
        height=height[0],
        bits_per_sample=layout(_TAG_BITS, 8)[0],
        samples_per_pixel=layout(_TAG_SAMPLES_PER_PIXEL, 1)[0],
        sample_format=layout(_TAG_SAMPLE_FORMAT, _SF_UINT)[0],
        compression=layout(_TAG_COMPRESSION, 1)[0],
        description=str((tags.get(_TAG_DESCRIPTION) or ("",))[0]),
        tags=tags,
    )
    xres, yres = tags.get(_TAG_XRES), tags.get(_TAG_YRES)
    if xres and yres and all(isinstance(v, (int, float)) for v in (xres[0], yres[0])):
        info.resolution = (float(xres[0]), float(yres[0]))
    if layout(_TAG_PLANAR, 1)[0] != 1:
        raise CodecError("planar TIFF not supported")
    if info.compression not in (1, 8):
        raise CodecError(f"unsupported TIFF compression {info.compression}")
    info.dtype  # raises CodecError for a bit depth this codec cannot decode
    offsets, counts = layout(_TAG_STRIP_OFFSETS), layout(_TAG_STRIP_BYTE_COUNTS)
    if not offsets or len(offsets) != len(counts):
        raise CorruptTileError("TIFF page missing strip layout", kind="unreadable")
    return TiffPageLayout(index, info, offsets, counts), next_ifd


def walk_ifds(buf) -> tuple[str, list[TiffPageLayout], FormatError | None]:
    """Walk the IFD chain of a TIFF held in ``buf`` (``bytes`` or ``mmap``).

    Every offset and length is checked against ``len(buf)`` before it is
    read.  Returns ``(endian, pages, error)``: the pages that parsed, in
    chain order, and the error that stopped the walk early (``None`` when
    the chain ended cleanly).  The error is a
    :class:`~repro.errors.CorruptTileError` — ``kind="torn"`` when the IFD
    lies past the end of the buffer, ``"unreadable"`` when a layout tag is
    missing or not an integer — or a :class:`~repro.errors.CodecError` for
    a feature this codec does not decode.  A bad header or a looping chain
    raises :class:`~repro.errors.FormatError`.
    """
    if len(buf) < 8:
        raise FormatError("file too short to be a TIFF")
    bom = bytes(buf[:2])
    if bom not in (b"II", b"MM"):
        raise FormatError("not a TIFF: bad byte-order mark")
    endian = "<" if bom == b"II" else ">"
    magic, ifd_offset = struct.unpack_from(endian + "HI", buf, 2)
    if magic != 42:
        raise FormatError(f"not a TIFF: magic {magic} != 42")
    pages: list[TiffPageLayout] = []
    seen: set[int] = set()
    while ifd_offset:
        if ifd_offset in seen:
            raise FormatError("TIFF IFD chain loops")
        seen.add(ifd_offset)
        try:
            page, ifd_offset = _parse_page(buf, endian, ifd_offset, len(pages))
        except FormatError as exc:
            return endian, pages, exc
        pages.append(page)
    return endian, pages, None


def _inflate_prefix(data: bytes) -> bytes:
    """What a torn deflate stream inflates to before it breaks off."""
    try:
        return zlib.decompressobj().decompress(data)
    except zlib.error:
        return b""


def decode_strips(buf, endian: str, page: TiffPageLayout) -> np.ndarray:
    """Decode one page's strips into a native-byte-order array.

    Raises :class:`~repro.errors.CorruptTileError` with ``kind="unreadable"``
    for a corrupt zlib stream or strips too short to ever fill the page,
    and with ``kind="torn"`` when the strips run past the end of ``buf`` or
    inflate to fewer bytes than the page needs; a torn page carries the
    pixels that survive, zero-filled to full shape, as ``salvage``.
    """
    info = page.info
    file_dtype = info.dtype.newbyteorder(endian)
    n_expected = info.width * info.height * info.samples_per_pixel
    expected_bytes = n_expected * file_dtype.itemsize
    declared = sum(page.strip_counts)
    if expected_bytes > declared * (_MAX_DEFLATE_RATIO if info.compression == 8 else 1):
        # No decode of these strips fills the page: its size tags are
        # damaged, and a salvage buffer of that size must not be allocated.
        raise CorruptTileError(
            f"TIFF page {page.index} needs {expected_bytes} bytes of pixels but "
            f"its strips declare {declared}",
            kind="unreadable",
            tile=page.index,
        )
    chunks: list[bytes] = []
    short = False
    for off, cnt in zip(page.strip_offsets, page.strip_counts):
        chunk = buf[off : off + cnt]
        if len(chunk) < cnt:
            # The strip runs past the end of the file: keep what decodes.
            short = True
            if info.compression == 8:
                chunk = _inflate_prefix(chunk)
        elif info.compression == 8:
            try:
                chunk = zlib.decompress(chunk)
            except zlib.error as exc:
                raise CorruptTileError(
                    f"TIFF page {page.index} has a corrupt zlib stream: {exc}",
                    kind="unreadable",
                    tile=page.index,
                ) from exc
        chunks.append(chunk)
    blob = b"".join(chunks)
    if short or len(blob) < expected_bytes:
        got = min(len(blob), expected_bytes) // file_dtype.itemsize
        salvage = np.zeros(n_expected, dtype=info.dtype)
        salvage[:got] = np.frombuffer(blob, dtype=file_dtype, count=got)
        raise CorruptTileError(
            f"TIFF page {page.index} truncated: {len(blob)} of {expected_bytes} bytes",
            kind="torn",
            tile=page.index,
            salvage=salvage.reshape(page.shape),
        )
    arr = np.frombuffer(blob, dtype=file_dtype, count=n_expected)
    return arr.astype(info.dtype).reshape(page.shape)  # native byte order


def read_tiff_pages(path) -> list[tuple[np.ndarray, TiffPageInfo]]:
    """Read every page of a TIFF file as (array, info) pairs.

    The strict reader: any damage, even past an intact first page, raises
    :class:`~repro.errors.FormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    endian, layouts, error = walk_ifds(data)
    try:
        if error is not None:
            raise error
        if not layouts:
            raise FormatError("TIFF contains no pages")
        return [(decode_strips(data, endian, page), page.info) for page in layouts]
    except CorruptTileError as exc:
        # Tile damage is the lenient reader's notion; here it is a bad file.
        raise FormatError(str(exc)) from exc


def read_tiff(path) -> np.ndarray:
    """Read a TIFF as a single array: 2-D for one page, 3-D stack otherwise."""
    pages = read_tiff_pages(path)
    arrays = [a for a, _ in pages]
    if len(arrays) == 1:
        return arrays[0]
    shapes = {a.shape for a in arrays}
    dtypes = {a.dtype for a in arrays}
    if len(shapes) != 1 or len(dtypes) != 1:
        raise FormatError("TIFF pages have heterogeneous shapes/dtypes; use read_tiff_pages")
    return np.stack(arrays, axis=0)
