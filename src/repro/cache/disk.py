"""Optional on-disk tier under ``~/.cache/repro``.

Persists cache entries across processes and sessions: repeated CLI
invocations on the same acquisition and server restarts reuse each
other's encodings.  Entries are pickled blobs in a
two-level fan-out directory keyed by the content address; writes are atomic
(tmp file + rename) so concurrent readers never observe torn entries.
Disabled by default — enable via ``CacheConfig(disk_enabled=True)`` or
``REPRO_CACHE_DISK=1``.

A corrupt entry (torn by a power cut, truncated by a full disk, damaged by
bit rot) is **quarantined** on first read: moved into a ``.bad/`` subdir —
excluded from scanning and eviction — counted in
``TierStats.quarantined``, and never re-read.  The ``disk_corrupt`` fault
(:mod:`repro.resilience.faults`) deliberately mangles just-written entries
to exercise this path.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from .stats import TierStats

__all__ = ["DiskTier", "default_cache_dir"]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path(os.environ.get("XDG_CACHE_HOME", "~/.cache")).expanduser() / "repro"


class DiskTier:
    """Content-addressed pickle store with an LRU-by-mtime byte budget."""

    name = "disk"

    def __init__(self, root: Path | None = None, byte_budget: int = 1024 * 1024 * 1024) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.byte_budget = int(byte_budget)
        self.stats = TierStats(tier=self.name, byte_budget=self.byte_budget)
        self._scanned = False

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _entries(self):
        """Live ``.pkl`` entries, excluding the ``.bad/`` quarantine dir."""
        if not self.root.is_dir():
            return
        for p in self.root.glob("*/*.pkl"):
            if p.parent.name != ".bad":
                yield p

    def _scan(self) -> None:
        """Lazily compute occupancy from the directory tree."""
        if self._scanned:
            return
        total = 0
        count = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
                count += 1
            except OSError:
                continue
        self.stats.bytes_used = total
        self.stats.entries = count
        self._scanned = True

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``.bad/`` so it is never re-read."""
        bad_dir = self.root / ".bad"
        try:
            size = path.stat().st_size
            bad_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, bad_dir / path.name)
        except OSError:
            # Could not move it aside; unlink so it cannot be re-read.
            size = 0
            path.unlink(missing_ok=True)
        self.stats.quarantined += 1
        self.stats.bytes_used = max(0, self.stats.bytes_used - size)
        self.stats.entries = max(0, self.stats.entries - 1)
        record_event("cache.quarantined")

    def get(self, key: str, default=None):
        self._scan()
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return default
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            # The entry exists but cannot be decoded: corrupt.  Quarantine
            # it and report a miss — the caller recomputes and re-puts.
            self._quarantine(path)
            self.stats.misses += 1
            return default
        try:
            os.utime(path)  # refresh for LRU-by-mtime eviction
        except OSError:
            pass
        self.stats.hits += 1
        return value

    def put(self, key: str, value, nbytes: int | None = None) -> bool:
        self._scan()
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            size = tmp.stat().st_size
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            tmp.unlink(missing_ok=True)
            return False
        if get_fault_plan().should_fire("disk_corrupt", key=key[:12]):
            path.write_bytes(b"\x80CORRUPTED-BY-FAULT-INJECTION")
        self.stats.puts += 1
        self.stats.bytes_used += size
        self.stats.entries += 1
        self._evict()
        return True

    def _evict(self) -> None:
        if self.stats.bytes_used <= self.byte_budget:
            return
        entries = []
        for p in self._entries():
            try:
                st = p.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, p))
        entries.sort()
        used = sum(size for _, size, _ in entries)
        for _, size, p in entries:
            if used <= self.byte_budget:
                break
            p.unlink(missing_ok=True)
            used -= size
            self.stats.evictions += 1
        self.stats.bytes_used = used
        self.stats.entries = sum(1 for e in entries if e[2].exists())

    def clear(self) -> None:
        for p in self._entries():
            p.unlink(missing_ok=True)
        self.stats.bytes_used = 0
        self.stats.entries = 0
        self._scanned = True
