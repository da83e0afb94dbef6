"""Layer spans recorded from outside the program.

:class:`Recorder` replaces public methods of the library's classes with
timing wrappers for the length of a traced run and puts the originals back
on :meth:`Recorder.close`.  A span is ``(id, parent, name, t0, t1, thread,
units)``; the parent is the innermost open span of the same thread, so a
layer's self time is its duration minus its children's.  Spans stay in
memory and are exported as Chrome trace-event JSON at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from time import perf_counter

_UNSET = object()


def _wrappable(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, sid: int, parent: int, name: str, t0: float, units) -> None:
        t1 = perf_counter()
        self._stack().pop()
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), units))

    def wrap(self, owner, attr: str, name: str, units=None) -> None:
        """Record one ``name`` span per call of ``owner.attr``.

        ``units(args, result)`` gives the work the call did (boxes, bytes,
        images); without it every call counts as one unit.
        """
        original = _wrappable(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid, parent, t0 = self._open()
            result = _UNSET
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                n = 0 if result is _UNSET else (units(args, result) if units else 1)
                self._close(sid, parent, name, t0, n)

        self._patch(owner, attr, original, wrapper)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Record one ``name`` span per item an iterator method yields.

        The span covers the consumer's wait for the next item.
        """
        original = _wrappable(owner, attr)

        @functools.wraps(original)
        def wrapper(obj):
            inner = original(obj)
            try:
                while True:
                    sid, parent, t0 = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, parent, name, t0, 1)
                    yield item
            finally:
                inner.close()

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped method."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Position in the span list; spans closed after it belong to what follows."""
        return len(self.spans)


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


def export_chrome(path: str, spans, summary: dict) -> None:
    """Write spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    if not spans:
        origin = 0.0
    else:
        origin = min(s[3] for s in spans)
    own = self_times(spans)
    events = [
        {
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": round((t0 - origin) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3),
            "pid": os.getpid(),
            "tid": tid,
            "args": {"id": sid, "parent": parent, "self_us": round(own[sid] * 1e6, 3), "units": units},
        }
        for sid, parent, name, t0, t1, tid, units in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": summary}, fh)
