"""Persistence for annotated volumes: raw data + masks + provenance.

Experiments snapshot their inputs and outputs as ``.npz`` bundles so that a
bench re-run can verify it reproduces the exact masks; the TIFF path is used
when interoperating with instrument software.  Malformed bundles surface as
structured :class:`~repro.errors.FormatError` (never a raw ``KeyError`` /
``zipfile.BadZipFile`` / ``struct.error``), and the damaged file is
quarantined to a sibling ``.bad/`` directory so the evidence survives triage
— the same convention the disk cache uses.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..errors import FormatError
from ..resilience.events import record_event
from .tiff import write_tiff

__all__ = ["save_volume_bundle", "load_volume_bundle", "export_volume_tiff"]

_BUNDLE_VERSION = 1


def quarantine_file(path, reason: str = "corrupt") -> Path | None:
    """Move a damaged file into ``.bad/`` beside it; returns the new path.

    Best-effort: any filesystem error is swallowed (quarantine preserves
    evidence, it must never mask the original failure) and None is returned.
    """
    src = Path(path)
    try:
        if not src.is_file():
            return None
        bad = src.parent / ".bad"
        bad.mkdir(exist_ok=True)
        dst = bad / src.name
        shutil.move(os.fspath(src), os.fspath(dst))
        (bad / (src.name + ".reason")).write_text(reason + "\n")
        record_event("io.bundle_quarantined")
        return dst
    except OSError:
        return None


def save_volume_bundle(path, volume: np.ndarray, masks: np.ndarray | None = None, metadata: dict | None = None) -> None:
    """Save a volume (+ optional per-voxel masks and JSON metadata) to ``.npz``."""
    payload = {"volume": np.asarray(volume)}
    if masks is not None:
        masks = np.asarray(masks)
        if masks.shape != payload["volume"].shape:
            raise FormatError(f"masks shape {masks.shape} != volume shape {payload['volume'].shape}")
        payload["masks"] = masks.astype(np.uint8)
    meta = dict(metadata or {})
    meta["bundle_version"] = _BUNDLE_VERSION
    payload["metadata_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **payload)


def load_volume_bundle(path) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """Load a bundle saved by :func:`save_volume_bundle`.

    A bundle that cannot be parsed (truncated zip, corrupt member, invalid
    metadata JSON) raises :class:`FormatError` and is moved to ``.bad/``.
    """
    try:
        with np.load(path, allow_pickle=False) as bundle:
            if "volume" not in bundle:
                raise FormatError(f"{os.fspath(path)!r} is not a volume bundle (missing 'volume')")
            try:
                volume = bundle["volume"]
                masks = bundle["masks"].astype(bool) if "masks" in bundle else None
                metadata: dict = {}
                if "metadata_json" in bundle:
                    metadata = json.loads(bundle["metadata_json"].tobytes().decode("utf-8"))
            except (zipfile.BadZipFile, zlib.error, struct.error, KeyError, ValueError, OSError) as exc:
                quarantine_file(path, f"corrupt bundle member: {exc}")
                raise FormatError(
                    f"volume bundle {os.fspath(path)!r} is corrupt "
                    f"(quarantined to .bad/): {exc}"
                ) from exc
    except FormatError:
        raise
    except (zipfile.BadZipFile, zlib.error, struct.error, ValueError, EOFError, OSError) as exc:
        quarantine_file(path, f"unreadable bundle: {exc}")
        raise FormatError(
            f"{os.fspath(path)!r} is not a readable volume bundle "
            f"(quarantined to .bad/): {exc}"
        ) from exc
    return volume, masks, metadata


def export_volume_tiff(path, volume: np.ndarray, *, voxel_size_nm: tuple[float, float] | None = None, compress: bool = True, description: str = "") -> None:
    """Export a volume as a multi-page TIFF, embedding voxel size as resolution."""
    resolution = None
    if voxel_size_nm is not None:
        # pixels per centimetre = 1e7 nm/cm divided by nm per pixel
        resolution = (1e7 / voxel_size_nm[0], 1e7 / voxel_size_nm[1])
    write_tiff(path, np.asarray(volume), compress=compress, description=description, resolution=resolution)
