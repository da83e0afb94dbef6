"""From-scratch image/volume codecs, format sniffing, and lazy ingestion.

Eager codecs (TIFF, PNG, npz) materialize arrays; :mod:`~repro.io.lazy`
streams arbitrarily large volumes tile-by-tile, and
:mod:`~repro.io.integrity` wraps the tile fetch in the ingestion failure
model (checksums, retries, quarantine, degrade policies).
"""

from .formats import KNOWN_FORMATS, load_image_file, sniff_format
from .integrity import (
    IngestPolicy,
    Prefetcher,
    TileStream,
    load_sidecar,
    sidecar_path,
    verify_volume,
    write_sidecar,
)
from .lazy import (
    ArrayLazyVolume,
    LazyVolume,
    NpyLazyVolume,
    SliceDirectoryVolume,
    TiffLazyVolume,
    open_lazy_volume,
)
from .png import decode_png, encode_png, read_png, write_png
from .tiff import TiffPageInfo, read_tiff, read_tiff_pages, write_tiff
from .volume_io import (
    export_volume_tiff,
    load_volume_bundle,
    save_volume_bundle,
)

__all__ = [
    "ArrayLazyVolume",
    "IngestPolicy",
    "KNOWN_FORMATS",
    "LazyVolume",
    "NpyLazyVolume",
    "Prefetcher",
    "SliceDirectoryVolume",
    "TiffLazyVolume",
    "TiffPageInfo",
    "TileStream",
    "decode_png",
    "encode_png",
    "export_volume_tiff",
    "load_image_file",
    "load_sidecar",
    "load_volume_bundle",
    "open_lazy_volume",
    "read_png",
    "read_tiff",
    "read_tiff_pages",
    "save_volume_bundle",
    "sidecar_path",
    "sniff_format",
    "verify_volume",
    "write_png",
    "write_sidecar",
    "write_tiff",
]
