"""Ingestion failure model: validation, retries, quarantine, degrade policies.

A :class:`LazyVolume` knows how to *read* a tile; this module decides what
happens when that read goes wrong on real instrument data.  The pieces:

* **Checksum sidecar** — ``write_sidecar`` records a per-tile sha256
  manifest next to the source (``<file>.sha256.json``, or
  ``.sha256.json`` inside a slice directory).  With a sidecar present,
  :class:`TileStream` verifies every tile it hands out, which is the only
  way to *detect* silent bit rot (a flipped bit usually still decodes).
* **Classification** — failures surface as
  :class:`~repro.errors.CorruptTileError` with ``kind``:
  ``torn`` (file ends early), ``flip`` (decodes but checksum disagrees),
  ``unreadable`` (malformed metadata/encoding).
* **Policy** — :class:`IngestPolicy` decides the response per tile:
  ``fail`` aborts the run, ``skip`` substitutes a zero tile, ``degrade``
  uses the best salvage available (zero-filled torn tail, the mismatching
  decode for a flip).  Skip and degrade both record the slice as degraded
  so the run manifest tells the truth about what was segmented.
* **Retry** — transient ``OSError`` (NFS hiccup, USB re-enumeration) is
  retried with bounded exponential backoff before being treated as corrupt.
* **Quarantine** — corrupt tile bytes are copied into a ``.bad/`` directory
  beside the source (the disk cache's convention) with a small report, so
  the original evidence survives triage.
* **Prefetch** — :class:`Prefetcher` reads ahead on a worker thread into a
  queue bounded by ``memory_budget_bytes``, and tracks the maximum bytes
  simultaneously resident so streaming tests can assert the ceiling
  structurally rather than trusting RSS.

Fault kinds ``io_transient`` / ``io_torn`` / ``io_flip`` (see
:mod:`repro.resilience.faults`) inject each failure class at the fetch
boundary without touching bytes on disk.
"""

from __future__ import annotations

import json
import math
import os
import queue
import shutil
import threading
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ..errors import CorruptTileError, RetryExhaustedError, ValidationError
from ..observability.metrics import get_registry
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from ..resilience.policy import RetryPolicy
from .lazy import LazyVolume, SliceDirectoryVolume

__all__ = [
    "ON_CORRUPT",
    "IngestPolicy",
    "budget_bytes",
    "TileStream",
    "Prefetcher",
    "sidecar_path",
    "write_sidecar",
    "load_sidecar",
    "verify_volume",
]

_SIDECAR_NAME = ".sha256.json"
#: The values :attr:`IngestPolicy.on_corrupt` accepts.
ON_CORRUPT = ("fail", "skip", "degrade")

#: Transient-read retry for one tile: 3 attempts, 0.05 s base delay.
_TILE_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.05, max_delay_s=0.4, retry_on=(OSError,))


@dataclass(frozen=True)
class IngestPolicy:
    """How a streaming run responds to bad tiles and slow disks.

    ``memory_budget_bytes`` bounds the decoded tiles simultaneously resident
    in the prefetch window — the knob that makes "volume ≫ RAM" safe.
    Checksums are verified whenever a sidecar exists, and corrupt tiles are
    always quarantined to ``.bad/`` beside the source.
    """

    on_corrupt: str = "fail"
    memory_budget_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.on_corrupt not in ON_CORRUPT:
            raise ValidationError(
                f"on_corrupt must be one of {ON_CORRUPT}, got {self.on_corrupt!r}"
            )
        if self.memory_budget_bytes < 1:
            raise ValidationError("memory_budget_bytes must be positive")


def budget_bytes(memory_budget_mb: float) -> int:
    """A prefetch budget given in MiB, as whole bytes.

    Rejects NaN, infinities and budgets under one byte, so a bad value
    fails where it enters rather than as a one-tile window or a failed job.
    """
    n = float(memory_budget_mb) * 1024 * 1024
    if not (math.isfinite(n) and n >= 1):
        raise ValidationError(
            f"memory_budget_mb must be finite and at least one byte, got {memory_budget_mb!r}"
        )
    return int(n)


# ---------------------------------------------------------------------------
# Checksum sidecar manifest
# ---------------------------------------------------------------------------


def sidecar_path(source: Path | str) -> Path:
    """Where the checksum manifest for ``source`` lives."""
    p = Path(source)
    if p.is_dir():
        return p / _SIDECAR_NAME
    return p.with_name(p.name + _SIDECAR_NAME)


def tile_checksum(tile_bytes: bytes) -> str:
    return sha256(tile_bytes).hexdigest()


def write_sidecar(volume: LazyVolume) -> Path:
    """Checksum every tile of ``volume`` and write its sidecar manifest.

    One streaming pass; O(tile) memory.  Checksums are taken over the
    *decoded* native-order tile bytes, so they survive a lossless re-export
    between front ends (TIFF stack → slice directory → ``.npy``).
    """
    if volume.source_path is None:
        raise ValidationError("write_sidecar needs a volume read from a file or directory")
    manifest = {
        "algo": "sha256",
        "shape": [int(s) for s in volume.shape],
        "dtype": str(volume.dtype),
        "tiles": [tile_checksum(volume.tile_bytes(z)) for z in range(volume.n_tiles)],
    }
    out = sidecar_path(volume.source_path)
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=1))
    os.replace(tmp, out)
    return out


def load_sidecar(source: Path | str) -> dict[str, Any] | None:
    """The parsed sidecar manifest for ``source``, or None if absent/unusable."""
    path = sidecar_path(source)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tiles"), list):
        return None
    return manifest


def _volume_sidecar(volume: LazyVolume) -> dict[str, Any] | None:
    return None if volume.source_path is None else load_sidecar(volume.source_path)


def verify_volume(volume: LazyVolume) -> dict[str, Any]:
    """Verify every tile of ``volume``; the ``repro io verify`` engine.

    Returns a report: per-tile status plus counts.  Never raises on corrupt
    tiles — verification's whole job is to enumerate them.
    """
    manifest = _volume_sidecar(volume)
    expected = manifest.get("tiles") if manifest else None
    tiles: list[dict[str, Any]] = []
    counts = {"ok": 0, "torn": 0, "flip": 0, "unreadable": 0}
    for z in range(volume.n_tiles):
        try:
            blob = volume.tile_bytes(z)
        except CorruptTileError as exc:
            kind = exc.kind if exc.kind in counts else "unreadable"
            counts[kind] += 1
            tiles.append({"tile": z, "status": kind, "error": str(exc)})
            continue
        if expected is not None and z < len(expected) and tile_checksum(blob) != expected[z]:
            counts["flip"] += 1
            tiles.append({"tile": z, "status": "flip", "error": "checksum mismatch"})
            continue
        counts["ok"] += 1
        tiles.append({"tile": z, "status": "ok"})
    # A torn tail can drop whole trailing pages from the container's index
    # (e.g. a truncated TIFF whose last IFD fell past EOF): every surviving
    # tile then verifies clean while the volume has silently shrunk.  The
    # sidecar pins the expected tile count, so report the missing tail as
    # torn rather than calling the shrunken volume ok.
    if expected is not None:
        for z in range(volume.n_tiles, len(expected)):
            counts["torn"] += 1
            tiles.append(
                {
                    "tile": z,
                    "status": "torn",
                    "error": f"sidecar lists {len(expected)} tiles but volume has {volume.n_tiles}",
                }
            )
    n_expected = max(volume.n_tiles, len(expected)) if expected is not None else volume.n_tiles
    return {
        "source": volume.source_path,
        "n_tiles": volume.n_tiles,
        "checksums": expected is not None,
        "counts": counts,
        "ok": counts["ok"] == n_expected,
        "tiles": [t for t in tiles if t["status"] != "ok"],
    }


# ---------------------------------------------------------------------------
# TileStream: the policy-applying fetch path
# ---------------------------------------------------------------------------


class TileStream:
    """Fetch tiles through validation, retry, faults, and the corrupt policy.

    ``fetch(z)`` returns ``(tile, degraded_reason)`` where the reason is
    ``None`` for a clean read or ``"<policy>:<kind>"`` (e.g. ``"degrade:torn"``)
    when the policy substituted data.  With ``on_corrupt="fail"`` the
    structured :class:`CorruptTileError` propagates instead.
    """

    def __init__(self, volume: LazyVolume, policy: IngestPolicy | None = None) -> None:
        self.volume = volume
        self.policy = policy or IngestPolicy()
        manifest = _volume_sidecar(volume)
        self._expected = manifest.get("tiles") if manifest else None
        self.degraded: dict[int, str] = {}
        # A torn tail can drop whole trailing pages from the container's
        # index, so the volume opens "clean" but shorter than the sidecar
        # says it should be.  fail refuses up front; lenient policies stream
        # what exists and record the missing tail as degraded slices.
        if self._expected is not None and len(self._expected) > volume.n_tiles:
            if self.policy.on_corrupt == "fail":
                raise CorruptTileError(
                    f"sidecar lists {len(self._expected)} tiles but the volume "
                    f"opened with only {volume.n_tiles} — trailing pages are missing",
                    kind="torn",
                    tile=volume.n_tiles,
                    path=str(volume.source_path) if volume.source_path else None,
                )
            for z in range(volume.n_tiles, len(self._expected)):
                self.degraded[z] = f"{self.policy.on_corrupt}:torn"
        self.quarantined: list[str] = []
        # Substituted tiles are pinned so a later fetch of the same tile
        # sees identical bytes even when the failure that produced them was
        # transient or injected-once.
        # Bounded by the number of corrupt tiles, not the volume.
        self._substituted: dict[int, np.ndarray] = {}
        self._registry = get_registry()

    # -- fault injection ------------------------------------------------------

    def _injected_read(self, z: int) -> np.ndarray:
        plan = get_fault_plan()
        if plan.should_fire("io_transient", slice=z):
            raise OSError(f"injected transient I/O error on tile {z}")
        tile = self.volume.read_tile(z)
        if plan.should_fire("io_torn", slice=z):
            salvage = np.array(tile, copy=True)
            salvage.reshape(-1)[salvage.size // 2 :] = 0
            raise CorruptTileError(
                f"injected torn tail on tile {z}",
                kind="torn",
                tile=z,
                path=self.volume.source_path,
                salvage=salvage,
            )
        if plan.should_fire("io_flip", slice=z):
            tile = np.array(tile, copy=True)
            flat = tile.view(np.uint8).reshape(-1)
            flat[flat.size // 2] ^= 0x10
        return tile

    # -- core fetch -----------------------------------------------------------

    def _read_verified(self, z: int) -> np.ndarray:
        tile = self._injected_read(z)
        if self._expected is not None:
            if z >= len(self._expected):
                raise CorruptTileError(
                    f"tile {z} missing from checksum manifest "
                    f"({len(self._expected)} entries)",
                    kind="unreadable",
                    tile=z,
                    path=self.volume.source_path,
                )
            digest = tile_checksum(np.ascontiguousarray(tile).tobytes())
            if digest != self._expected[z]:
                raise CorruptTileError(
                    f"tile {z} checksum mismatch (bit flip): "
                    f"{digest[:12]} != {self._expected[z][:12]}",
                    kind="flip",
                    tile=z,
                    path=self.volume.source_path,
                    salvage=tile,
                )
        return tile

    def fetch(self, z: int) -> tuple[np.ndarray, str | None]:
        if z in self._substituted:
            return self._substituted[z], self.degraded.get(z)
        start = time.perf_counter()
        try:
            tile = _TILE_RETRY.call(
                lambda attempt: self._read_verified(z),
                key=f"io-tile-{z}",
                on_retry=lambda attempt, exc: self._on_retry(z, attempt, exc),
            )
        except (CorruptTileError, RetryExhaustedError) as exc:
            tile, reason = self._apply_policy(z, exc)
        else:
            reason = None
        self._registry.counter("repro_io_tiles_read_total").inc()
        self._registry.counter("repro_io_bytes_read_total").inc(int(tile.nbytes))
        self._registry.histogram("repro_io_tile_read_seconds").observe(
            time.perf_counter() - start
        )
        if reason is not None:
            self.degraded[z] = reason
            self._substituted[z] = tile
            self._registry.counter("repro_io_degraded_slices_total").inc()
            record_event("io.tile_degraded")
        return tile, reason

    def _on_retry(self, z: int, attempt: int, exc: BaseException) -> None:
        self._registry.counter("repro_io_retries_total").inc()
        record_event("io.tile_retry")

    def _apply_policy(self, z: int, exc: BaseException) -> tuple[np.ndarray, str]:
        if isinstance(exc, RetryExhaustedError):
            cause = exc.__cause__
            err = CorruptTileError(
                f"tile {z} unreadable after {_TILE_RETRY.max_attempts} attempts: {cause}",
                kind="unreadable",
                tile=z,
                path=self.volume.source_path,
            )
            err.__cause__ = exc
        else:
            err = exc  # type: ignore[assignment]
        kind = err.kind if err.kind in ("torn", "flip", "unreadable") else "unreadable"
        self._registry.counter("repro_io_corrupt_tiles_total", kind=kind).inc()
        record_event("io.tile_corrupt")
        self._quarantine(z, err)
        if self.policy.on_corrupt == "fail":
            raise err
        shape = self.volume.tile_shape
        if self.policy.on_corrupt == "degrade" and err.salvage is not None:
            tile = np.asarray(err.salvage, dtype=self.volume.dtype).reshape(shape)
            return tile, f"degrade:{kind}"
        return np.zeros(shape, dtype=self.volume.dtype), f"{self.policy.on_corrupt}:{kind}"

    # -- quarantine -----------------------------------------------------------

    def _quarantine_root(self) -> Path | None:
        if self.volume.source_path is None:
            return None
        src = Path(self.volume.source_path)
        return (src if src.is_dir() else src.parent) / ".bad"

    def _quarantine(self, z: int, err: CorruptTileError) -> None:
        root = self._quarantine_root()
        if root is None:
            return
        try:
            root.mkdir(parents=True, exist_ok=True)
            stem = Path(self.volume.source_path or "volume").name
            report = root / f"{stem}.tile{z:05d}.{err.kind}.json"
            payload = {
                "tile": z,
                "kind": err.kind,
                "error": str(err),
                "source": self.volume.source_path,
            }
            if isinstance(self.volume, SliceDirectoryVolume):
                # Per-file layout: preserve the damaged file itself.
                src = self.volume.tile_path(z)
                dst = root / src.name
                if src.exists() and not dst.exists():
                    shutil.copyfile(src, dst)
                payload["quarantined_file"] = str(dst)
            report.write_text(json.dumps(payload, indent=1))
            self.quarantined.append(str(report))
            self._registry.counter("repro_io_quarantined_total").inc()
            record_event("io.tile_quarantined")
        except OSError:
            # Quarantine is evidence preservation, never a reason to abort.
            pass


# ---------------------------------------------------------------------------
# Bounded prefetch
# ---------------------------------------------------------------------------


class Prefetcher:
    """Read tiles ahead on a worker thread, bounded by the memory budget.

    Iterating yields ``(z, tile, degraded_reason)`` in order from ``start``
    to the last tile.  The window (concurrent decoded tiles) is
    ``memory_budget_bytes // tile_nbytes`` clamped to [1, 32];
    ``max_resident_bytes`` reports the high-water mark of decoded tile bytes
    alive inside the prefetcher — the structural number the larger-than-RAM
    test asserts against the budget.
    """

    _DONE = object()

    def __init__(self, stream: TileStream, *, start: int = 0) -> None:
        self.stream = stream
        volume = stream.volume
        self.start = int(start)
        budget = stream.policy.memory_budget_bytes
        tile_nbytes = max(1, volume.tile_nbytes)
        self.window = max(1, min(32, budget // tile_nbytes))
        # Flow control is permit-based: the worker acquires a permit BEFORE
        # fetching and the consumer returns it when it takes the tile, so at
        # most ``window`` decoded tiles are ever alive inside the prefetcher
        # — a one-tile budget really means one resident tile.  The queue
        # itself is unbounded (the semaphore is the bound), which also keeps
        # ``close()`` from deadlocking a blocked producer.
        self._permits = threading.Semaphore(self.window)
        self._queue: queue.Queue = queue.Queue()
        self._resident = 0
        self._lock = threading.Lock()
        self.max_resident_bytes = 0
        self._cancel = threading.Event()
        self._thread: threading.Thread | None = None

    def _note_resident(self, delta: int) -> None:
        with self._lock:
            self._resident += delta
            if self._resident > self.max_resident_bytes:
                self.max_resident_bytes = self._resident

    def _worker(self) -> None:
        try:
            for z in range(self.start, self.stream.volume.n_tiles):
                if self._cancel.is_set():
                    return
                while not self._permits.acquire(timeout=0.2):
                    if self._cancel.is_set():
                        return
                tile, reason = self.stream.fetch(z)
                self._note_resident(int(tile.nbytes))
                self._queue.put((z, tile, reason))
            self._queue.put(self._DONE)
        except BaseException as exc:  # propagate to the consumer
            self._queue.put(exc)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, str | None]]:
        self._thread = threading.Thread(
            target=self._worker, name="repro-io-prefetch", daemon=True
        )
        self._thread.start()
        try:
            while True:
                item = self._queue.get()
                if item is self._DONE:
                    return
                if isinstance(item, BaseException):
                    raise item
                z, tile, reason = item
                self._note_resident(-int(tile.nbytes))
                self._permits.release()
                yield z, tile, reason
        finally:
            self.close()

    def close(self) -> None:
        self._cancel.set()
        # Unblock a producer stuck on a full queue.
        try:
            while True:
                self._queue.get_nowait()
        except queue.Empty:
            pass
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=5.0)
