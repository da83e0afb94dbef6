"""The bench's layer wrappers still fit the program.

``bench/layers.py`` wraps named class attributes of the library for a
traced run (``python3 -m bench run --trace 1``).  Renaming or deleting one
of them must fail here, not in a later traced bench run.
"""

from __future__ import annotations

from bench.layers import instrument
from bench.tracing import Recorder, _wrappable


def test_instrument_wraps_and_close_restores_every_attribute():
    rec = Recorder()
    try:
        instrument(rec)
        patched = list(rec._patches)
        assert patched
        for owner, attr, original in patched:
            assert _wrappable(owner, attr) is not original, (owner, attr)
    finally:
        rec.close()
    for owner, attr, original in patched:
        assert _wrappable(owner, attr) is original, (owner, attr)
