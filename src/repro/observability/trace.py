"""Span-based tracing: hierarchical wall-clock traces of pipeline runs.

The paper sells a *real-time* platform (Fig. 2 workflow latencies, Fig. 8
dashboard); a flat stage table cannot answer "where inside slice 7 did the
time go?".  A :class:`Tracer` records a tree of :class:`Span` objects —
each with a name, wall time, and JSON-safe attributes (slice index, prompt,
cache hit/miss, retry count) — and exports it as either a hierarchical JSON
tree or the Chrome-trace event format (load the file at ``chrome://tracing``
or https://ui.perfetto.dev).

Design constraints:

* **Zero deps.**  The only repro import is the sibling metrics registry,
  which imports nothing, so every layer may import this module without
  cycles.
* **One call-site pattern.**  Closing a :func:`trace` span observes its
  wall time into ``repro_stage_seconds{stage=<name>}`` whether or not a
  tracer is active; the span tree itself is only built while one is.
  Library code is instrumented unconditionally.
* **Survives process boundaries.**  Workers export their spans as plain
  dicts (:func:`export_spans`); the supervisor re-parents them under its
  own trace with :meth:`Tracer.adopt` — worker wall clocks are not
  comparable across processes, so adopted subtrees keep their *relative*
  offsets and durations only.
* **Thread-aware.**  The active-span stack is thread-local, so concurrent
  server requests each build their own subtree under the shared root.
  Work a helper thread does *for* a span that opens later (adapt-ahead)
  records under a :meth:`Tracer.detached` span the helper makes its
  parent; the consumer then moves those spans into its own span with
  :meth:`Tracer.graft`, so the tree reads as if it had done the work.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Mapping

from .metrics import STAGE_SECONDS, get_registry

__all__ = [
    "Span",
    "Tracer",
    "trace",
    "start_trace",
    "end_trace",
    "get_tracer",
    "reset_tracing",
    "export_spans",
    "span_topology",
]


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "t0", "t1", "attrs", "children", "tid")

    def __init__(self, name: str, t0: float, attrs: dict | None = None, tid: int = 0) -> None:
        self.name = name
        self.t0 = t0
        self.t1: float | None = None
        self.attrs: dict = dict(attrs or {})
        self.children: list[Span] = []
        self.tid = tid

    @property
    def duration_s(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def set(self, **attrs: Any) -> "Span":
        """Attach JSON-safe attributes to this span."""
        self.attrs.update(attrs)
        return self

    def as_dict(self, origin: float | None = None) -> dict:
        """Hierarchical dict with times relative to ``origin`` (default self)."""
        base = self.t0 if origin is None else origin
        return {
            "name": self.name,
            "start_s": round(self.t0 - base, 9),
            "duration_s": round(self.duration_s, 9),
            "attrs": dict(self.attrs),
            "children": [c.as_dict(base) for c in self.children],
        }

    @staticmethod
    def from_dict(d: Mapping, origin: float = 0.0, tid: int = 0) -> "Span":
        """Rebuild a span subtree exported by :meth:`as_dict`."""
        sp = Span(str(d["name"]), origin + float(d.get("start_s", 0.0)), d.get("attrs"), tid=tid)
        sp.t1 = sp.t0 + float(d.get("duration_s", 0.0))
        sp.children = [Span.from_dict(c, origin, tid=tid) for c in d.get("children", ())]
        return sp


class _NullSpan:
    """Inert span handed out when no tracer is active."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Owns one trace tree and the (thread-local) active-span stack."""

    def __init__(self, name: str = "run", clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.root = Span(name, clock())
        self._local = threading.local()
        self._lock = threading.Lock()  # guards child-list appends across threads

    # -- span lifecycle -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Span:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span under the current one; pair with :meth:`finish`."""
        span = Span(name, self._clock(), attrs)
        parent = self.current
        with self._lock:
            parent.children.append(span)
        self._stack().append(span)
        return span

    def finish(self, span: Span, error: BaseException | None = None) -> Span:
        span.t1 = self._clock()
        if error is not None:
            span.attrs.setdefault("error", type(error).__name__)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        return span

    def close(self) -> "Tracer":
        if self.root.t1 is None:
            self.root.t1 = self._clock()
        return self

    # -- cross-thread parenting -----------------------------------------------

    def detached(self, name: str) -> Span:
        """A span outside the tree, to parent another thread's spans."""
        return Span(name, self._clock())

    @contextmanager
    def parented(self, span: Span):
        """Open this thread's spans under ``span`` for the block."""
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            span.t1 = self._clock()
            stack.remove(span)

    def graft(self, span: Span) -> None:
        """Move the children of a finished detached ``span`` under the current span."""
        parent = self.current
        with self._lock:
            parent.children.extend(span.children)

    # -- cross-process adoption ----------------------------------------------

    def adopt(self, span_dicts: Iterable[Mapping], *, tid: int = 0, **attrs: Any) -> list[Span]:
        """Re-parent exported worker spans under the current span.

        Worker clocks are not comparable with ours; the subtree is re-based
        at the adopting span's start so relative offsets/durations survive.
        ``attrs`` (e.g. ``worker=2``) are merged into each adopted root.
        """
        parent = self.current
        adopted = []
        for d in span_dicts:
            span = Span.from_dict(d, origin=parent.t0, tid=tid)
            span.attrs.update(attrs)
            adopted.append(span)
        with self._lock:
            parent.children.extend(adopted)
        return adopted

    # -- exports --------------------------------------------------------------

    def as_dict(self) -> dict:
        """The whole trace as a hierarchical JSON-safe tree."""
        self.close()
        return self.root.as_dict()

    def to_chrome_trace(self) -> dict:
        """Chrome-trace (``chrome://tracing`` / Perfetto) event document."""
        self.close()
        events: list[dict] = []
        origin = self.root.t0

        def walk(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.t0 - origin) * 1e6, 3),
                    "dur": round(span.duration_s * 1e6, 3),
                    "pid": 1,
                    "tid": span.tid,
                    "args": dict(span.attrs),
                }
            )
            for child in span.children:
                walk(child)

        walk(self.root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_chrome_trace(), indent=1))


# -- the global tracer stack ---------------------------------------------------
#
# A *stack* rather than a single slot: a pool worker that is failed over
# inline pushes its own tracer in the parent process and pops it when done,
# leaving the supervisor's trace untouched.

_STACK: list[Tracer] = []
_STACK_LOCK = threading.Lock()


def start_trace(name: str = "run") -> Tracer:
    """Activate a new tracer (nested calls stack; see :func:`end_trace`)."""
    tracer = Tracer(name)
    with _STACK_LOCK:
        _STACK.append(tracer)
    return tracer


def get_tracer() -> Tracer | None:
    """The active tracer, or None when tracing is off."""
    return _STACK[-1] if _STACK else None


def end_trace() -> Tracer | None:
    """Deactivate and close the innermost active tracer."""
    with _STACK_LOCK:
        tracer = _STACK.pop() if _STACK else None
    return tracer.close() if tracer is not None else None


def reset_tracing() -> None:
    """Drop every active tracer (tests)."""
    with _STACK_LOCK:
        _STACK.clear()


class trace:
    """Context manager *and* decorator timing one stage.

    Closing it observes the stage's wall time into
    ``repro_stage_seconds{stage=<name>}``.  While a tracer is active it also
    records a span; otherwise it yields :data:`NULL_SPAN`::

        with trace("sam.set_image", slice=z) as span:
            ...
            span.set(cache="hit")

        @trace("eval.method")
        def run(): ...
    """

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._open: list[tuple[float, Tracer | None, Span | None]] = []

    def __enter__(self):
        tracer = get_tracer()
        span = tracer.begin(self.name, **self.attrs) if tracer is not None else None
        self._open.append((time.perf_counter(), tracer, span))
        return NULL_SPAN if span is None else span

    def __exit__(self, exc_type, exc, tb) -> None:
        t0, tracer, span = self._open.pop()
        get_registry().histogram(STAGE_SECONDS, stage=self.name).observe(time.perf_counter() - t0)
        if tracer is not None:
            tracer.finish(span, error=exc)

    def __call__(self, fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace(self.name, **self.attrs):
                return fn(*args, **kwargs)

        return wrapper


def export_spans(tracer: Tracer | None = None) -> list[dict]:
    """The active tracer's top-level spans as picklable dicts (worker → parent)."""
    tracer = tracer if tracer is not None else get_tracer()
    if tracer is None:
        return []
    origin = tracer.root.t0
    return [c.as_dict(origin) for c in tracer.root.children]


def span_topology(node: Mapping, attr_keys: tuple[str, ...] = ("slice", "stage", "worker")) -> dict:
    """Reduce a span dict tree to its deterministic shape (golden tests).

    Keeps names, nesting, and the whitelisted attributes; drops every
    timing field so the result is stable across machines and runs.
    """
    out: dict = {"name": node["name"]}
    attrs = {k: v for k, v in dict(node.get("attrs", {})).items() if k in attr_keys}
    if attrs:
        out["attrs"] = attrs
    children = [span_topology(c, attr_keys) for c in node.get("children", ())]
    if children:
        out["children"] = children
    return out
