"""One BLAS thread per program thread.

The program finds its parallelism itself: the adapt-ahead worker beside
the main thread, two HTTP handlers, a job worker.  Its matrices are small
(a 256² blur, a few hundred ViT tokens), so a BLAS thread pool only
competes with those threads for the same cores.
:func:`pin_blas_threads` sets every OpenBLAS loaded in the process to one
thread; ``import repro`` calls it once.

The libraries are found in ``/proc/self/maps`` and driven through their C
entry point ``openblas_set_num_threads``, under the symbol prefixes and
suffixes the wheels use (numpy's copy is
``scipy_openblas_set_num_threads64_``, scipy's is
``scipy_openblas_set_num_threads``).  Without ``/proc`` or without an
OpenBLAS nothing happens.
"""

from __future__ import annotations

import ctypes

__all__ = ["openblas_libraries", "openblas_symbol", "pin_blas_threads"]

_MAPS = "/proc/self/maps"
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_", "_64")


def openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    try:
        with open(_MAPS) as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    # address perms offset dev inode [path]
    paths = {fields[5] for fields in (line.split(maxsplit=5) for line in lines) if len(fields) == 6}
    return sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1].lower())


def openblas_symbol(lib: ctypes.CDLL, name: str):
    """``lib``'s C function ``openblas_<name>`` under its build's symbol
    prefix and suffix, or None."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def pin_blas_threads() -> int:
    """Set every loaded OpenBLAS to one thread; returns how many were set."""
    pinned = 0
    for path in openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        set_threads = openblas_symbol(lib, "set_num_threads")
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)
            pinned += 1
    return pinned
