"""A wall-clock stopwatch.

Pipeline stages are timed by :func:`repro.observability.trace` spans, which
feed the ``repro_stage_seconds`` histograms; :class:`Timer` is for callers
that need one interval's length as a value (per-sample evaluation wall
time, benchmarks).
"""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """A minimal stopwatch based on :func:`time.perf_counter`.

    Usable either as a context manager or via explicit ``start``/``stop``.
    ``elapsed`` reports the latest completed interval in seconds.

    Re-entrant safe: ``start``/``with`` calls nest (a stack of start
    times), so the historical ``stop()``-without-``start()`` asymmetry —
    ``with`` blocks blowing up when the body already called ``stop()``, or
    nested use corrupting the outer interval — is gone.  ``stop()`` on a
    never-started timer still raises, as that is always a caller bug.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self.elapsed: float = 0.0

    @property
    def running(self) -> bool:
        return bool(self._starts)

    def start(self) -> "Timer":
        self._starts.append(time.perf_counter())
        return self

    def stop(self) -> float:
        if not self._starts:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._starts.pop()
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        # Tolerate a body that already stopped its own interval; exceptions
        # still record the partial interval instead of raising a second time.
        if self._starts:
            self.stop()
