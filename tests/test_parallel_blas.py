"""The one-thread BLAS policy applied by ``import repro``."""

import ctypes

import pytest

import repro  # noqa: F401  (importing the package applies the policy)
from repro.parallel import blas


def _loaded():
    return [ctypes.CDLL(path) for path in blas.openblas_libraries()]


def test_import_pins_every_loaded_openblas_to_one_thread():
    libs = _loaded()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    for lib in libs:
        get_threads = blas.openblas_symbol(lib, "get_num_threads")
        assert get_threads is not None
        get_threads.restype = ctypes.c_int
        assert get_threads() == 1


def test_pin_is_idempotent():
    assert blas.pin_blas_threads() == len(_loaded())


def test_no_openblas_in_maps_is_a_noop(tmp_path, monkeypatch):
    maps = tmp_path / "maps"
    maps.write_text(
        "55d0c0000000-55d0c0001000 r--p 00000000 08:01 42  /usr/bin/python3.11\n"
        "7f0000000000-7f0000021000 rw-p 00000000 00:00 0 \n"
        "7f0000100000-7f0000200000 r-xp 00000000 08:01 43  /usr/lib/libm.so.6\n"
    )
    monkeypatch.setattr(blas, "_MAPS", str(maps))
    assert blas.openblas_libraries() == []
    assert blas.pin_blas_threads() == 0


def test_missing_maps_is_a_noop(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "_MAPS", str(tmp_path / "absent"))
    assert blas.pin_blas_threads() == 0
