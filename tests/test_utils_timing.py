"""Tests for repro.utils.timing.Timer and stage timing by trace() spans."""

import sys
import threading
import time

import pytest

from repro.observability import STAGE_SECONDS, format_profile, get_registry, stage_rows, trace
from repro.resilience.events import event_count, record_event
from repro.utils.timing import Timer


def _hist(stage: str):
    return get_registry().histogram(STAGE_SECONDS, stage=stage)


def _row(stage: str) -> dict:
    return next(r for r in stage_rows() if r["stage"] == stage)


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_restartable(self):
        t = Timer()
        t.start()
        first = t.stop()
        t.start()
        second = t.stop()
        assert first >= 0 and second >= 0

    def test_body_may_stop_its_own_interval(self):
        # Historical asymmetry: Timer.__exit__ unconditionally called stop(),
        # so a body that already stopped blew up with RuntimeError.
        t = Timer()
        with t:
            t.stop()
        assert not t.running

    def test_nested_context_managers(self):
        t = Timer()
        with t:
            time.sleep(0.01)
            with t:
                pass  # inner interval: ~0s
            inner = t.elapsed
            assert inner < 0.009
        assert t.elapsed >= 0.009  # outer interval survives the nested one
        assert not t.running

    def test_exception_path_records_partial_interval(self):
        t = Timer()
        with pytest.raises(ValueError):
            with t:
                time.sleep(0.01)
                raise ValueError("boom")
        assert t.elapsed >= 0.009
        assert not t.running

    def test_nested_exception_path_unwinds_cleanly(self):
        t = Timer()
        with pytest.raises(ValueError):
            with t:
                with t:
                    raise ValueError("inner")
        assert not t.running  # both levels popped

    def test_running_property(self):
        t = Timer()
        assert not t.running
        t.start()
        assert t.running
        t.stop()
        assert not t.running


class TestStageTiming:
    def test_records_calls(self):
        for _ in range(3):
            with trace("work"):
                pass
        row = _row("work")
        assert row["calls"] == 3
        assert row["total_s"] >= 0
        assert 0 <= row["p50_s"] <= row["p95_s"] <= row["p99_s"]

    def test_records_even_on_exception(self):
        with pytest.raises(ValueError):
            with trace("boom"):
                raise ValueError("x")
        assert _hist("boom").count == 1

    def test_stage_rows_sorted_by_total(self):
        with trace("fast"):
            pass
        with trace("slow"):
            time.sleep(0.01)
        rows = stage_rows()
        assert rows[0]["stage"] == "slow"

    def test_format_profile(self):
        assert "no stages" in format_profile()
        with trace("x"):
            pass
        record_event("cache.quarantined")
        table = format_profile()
        assert "x" in table and "calls" in table and "p95[s]" in table
        assert "repro_resilience_cache_quarantined_total" in table

    def test_total_is_histogram_sum(self):
        with trace("a"):
            pass
        with trace("b"):
            pass
        assert sum(r["total_s"] for r in stage_rows()) == pytest.approx(
            _hist("a").sum + _hist("b").sum
        )

    def test_concurrent_stages_lose_no_calls(self):
        # The adapt-ahead worker, its consumer and server request threads
        # close spans and record events at once; a tiny switch interval
        # makes an unlocked ``count += 1`` lose updates reliably.
        def work():
            for _ in range(10_000):
                with trace("x"):
                    pass
                record_event("n")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        hist = _hist("x")
        assert hist.count == 40_000
        assert sum(hist.bucket_counts) == hist.count
        assert event_count("n") == 40_000


class TestObservabilityHooks:
    """Every trace() span feeds the latency histogram; the span tree only
    exists while a tracer is active."""

    def test_stage_observes_latency_histogram(self):
        t0 = time.perf_counter()
        for _ in range(3):
            with trace("hooked"):
                pass
        elapsed = time.perf_counter() - t0
        hist = _hist("hooked")
        assert hist.count == 3
        assert 0 <= hist.sum <= elapsed

    def test_stage_emits_spans_when_tracing(self):
        from repro.observability import end_trace, start_trace

        start_trace("t")
        with trace("outer"):
            with trace("inner"):
                pass
        tree = end_trace().as_dict()
        (outer,) = tree["children"]
        assert outer["name"] == "outer"
        assert [c["name"] for c in outer["children"]] == ["inner"]

    def test_stage_without_tracer_is_spanless(self):
        from repro.observability import get_tracer

        with trace("quiet"):
            assert get_tracer() is None  # no tracer appears implicitly
        assert _hist("quiet").count == 1
