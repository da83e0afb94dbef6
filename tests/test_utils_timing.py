"""Tests for repro.utils.timing."""

import sys
import threading
import time

import pytest

from repro.utils.timing import StageProfiler, Timer


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


class TestStageProfiler:
    def test_records_calls(self):
        prof = StageProfiler()
        for _ in range(3):
            with prof.stage("work"):
                pass
        rec = prof.records["work"]
        assert rec.calls == 3
        assert rec.total_s >= 0
        assert rec.min_s <= rec.mean_s <= rec.max_s + 1e-12

    def test_records_even_on_exception(self):
        prof = StageProfiler()
        with pytest.raises(ValueError):
            with prof.stage("boom"):
                raise ValueError("x")
        assert prof.records["boom"].calls == 1

    def test_merge(self):
        a, b = StageProfiler(), StageProfiler()
        with a.stage("s"):
            pass
        with b.stage("s"):
            pass
        with b.stage("t"):
            pass
        a.merge(b)
        assert a.records["s"].calls == 2
        assert a.records["t"].calls == 1

    def test_as_rows_sorted_by_total(self):
        prof = StageProfiler()
        with prof.stage("fast"):
            pass
        with prof.stage("slow"):
            time.sleep(0.01)
        rows = prof.as_rows()
        assert rows[0]["stage"] == "slow"

    def test_format_table(self):
        prof = StageProfiler()
        assert "no stages" in prof.format_table()
        with prof.stage("x"):
            pass
        table = prof.format_table()
        assert "x" in table and "calls" in table

    def test_total(self):
        prof = StageProfiler()
        with prof.stage("a"):
            pass
        with prof.stage("b"):
            pass
        assert prof.total() == pytest.approx(
            prof.records["a"].total_s + prof.records["b"].total_s
        )

    def test_concurrent_stages_lose_no_calls(self):
        # The adapt-ahead worker and its consumer record into one profiler
        # at once; a tiny switch interval makes an unlocked ``calls += 1``
        # lose updates reliably.
        prof = StageProfiler()

        def work():
            for _ in range(10_000):
                with prof.stage("x"):
                    pass
                prof.count("n")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert prof.records["x"].calls == 20_000
        assert prof.counters["n"] == 20_000


class TestObservabilityHooks:
    """StageProfiler feeds the unified observability layer on every stage."""

    def test_stage_observes_latency_histogram(self):
        from repro.observability import get_registry

        prof = StageProfiler()
        for _ in range(3):
            with prof.stage("hooked"):
                pass
        hist = get_registry().histogram("repro_stage_seconds", stage="hooked")
        assert hist.count == 3
        assert hist.sum == pytest.approx(prof.records["hooked"].total_s, abs=0.01)

    def test_stage_emits_spans_when_tracing(self):
        from repro.observability import end_trace, start_trace

        prof = StageProfiler()
        start_trace("t")
        with prof.stage("outer"):
            with prof.stage("inner"):
                pass
        tree = end_trace().as_dict()
        (outer,) = tree["children"]
        assert outer["name"] == "outer"
        assert [c["name"] for c in outer["children"]] == ["inner"]

    def test_stage_without_tracer_is_spanless(self):
        from repro.observability import get_tracer

        prof = StageProfiler()
        with prof.stage("quiet"):
            assert get_tracer() is None  # no tracer appears implicitly
