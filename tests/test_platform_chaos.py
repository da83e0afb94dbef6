"""Chaos tests for the overload-safe serving layer.

Covers the serving failure model end to end: admission control (shed with
429), per-request deadlines (structured 504, atomic sessions), circuit
breakers with degraded fallbacks, TTL/LRU session eviction, graceful
drain, client disconnects, upload hardening, and a short mixed-traffic
soak against the live HTTP server.  The long-running version of the soak
lives in ``benchmarks/test_serving_soak.py``.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, UnknownSessionError
from repro.io.tiff import write_tiff
from repro.platform.api import ApiHandler
from repro.platform.server import PlatformServer
from repro.platform.session import SessionStore
from repro.resilience.events import event_count
from repro.resilience.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionGate,
    CircuitBreaker,
    ServerLifecycle,
    check_deadline,
    current_deadline,
    default_breakers,
    request_scope,
    serving_snapshot,
)
from repro.resilience.policy import Deadline


class FakeClock:
    """Deterministic monotonic clock for TTL / breaker-recovery tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _post(url: str, payload: dict, timeout: float = 30.0) -> tuple[int, dict]:
    """POST to /api; returns (status, body) for both 2xx and error codes."""
    req = urllib.request.Request(
        url + "/api",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        resp = urllib.request.urlopen(req, timeout=timeout)
        return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class TestAdmissionGate:
    def test_admits_until_capacity_then_sheds(self):
        gate = AdmissionGate(2, max_queue=0, queue_timeout_s=0.0)
        assert gate.try_acquire() and gate.try_acquire()
        assert gate.inflight == 2
        assert not gate.try_acquire()
        assert gate.shed_total == 1
        gate.release()
        assert gate.try_acquire()
        gate.release()
        gate.release()
        assert gate.inflight == 0

    def test_queue_admits_after_release(self):
        gate = AdmissionGate(1, max_queue=2, queue_timeout_s=5.0)
        assert gate.try_acquire()
        got = []

        def waiter():
            got.append(gate.try_acquire(timeout_s=5.0))
            gate.release()

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)  # let the waiter queue up
        gate.release()
        t.join(timeout=5)
        assert not t.is_alive() and got == [True]

    def test_queue_timeout_sheds(self):
        gate = AdmissionGate(1, max_queue=2, queue_timeout_s=0.05)
        assert gate.try_acquire()
        assert not gate.try_acquire()  # waits 0.05s, then shed
        assert gate.shed_total == 1
        gate.release()

    def test_release_without_acquire_is_an_error(self):
        with pytest.raises(RuntimeError):
            AdmissionGate(1).release()

    def test_snapshot_shape(self):
        gate = AdmissionGate(3, max_queue=5)
        snap = gate.snapshot()
        assert snap["max_inflight"] == 3 and snap["max_queue"] == 5
        assert snap["inflight"] == 0 and snap["shed_total"] == 0


class TestCircuitBreaker:
    def test_full_cycle_closed_open_half_open_closed(self):
        clk = FakeClock()
        b = CircuitBreaker("g", failure_threshold=2, recovery_timeout_s=10.0, clock=clk)
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()
        clk.advance(10.1)
        assert b.state == HALF_OPEN
        assert b.allow()  # the single half-open probe
        assert not b.allow()  # probe budget spent
        b.record_success()
        assert b.state == CLOSED
        assert b.snapshot()["transitions"] == [OPEN, HALF_OPEN, CLOSED]
        assert b.snapshot()["rejected_total"] == 2  # one while open, one past the probe

    def test_half_open_failure_reopens(self):
        clk = FakeClock()
        b = CircuitBreaker("g", failure_threshold=1, recovery_timeout_s=5.0, clock=clk)
        b.record_failure()
        clk.advance(5.0)
        assert b.allow()
        b.record_failure()
        assert b.state == OPEN
        clk.advance(4.9)
        assert not b.allow()  # timer restarted on re-open
        clk.advance(0.2)
        assert b.allow()

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker("g", failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED

    def test_release_hands_back_the_half_open_probe(self):
        clk = FakeClock()
        b = CircuitBreaker("g", failure_threshold=2, recovery_timeout_s=5.0, clock=clk)
        b.record_failure()
        b.release()  # closed: nothing to hand back, the streak stays
        b.record_failure()
        assert b.state == OPEN
        clk.advance(5.0)
        assert b.allow() and not b.allow()
        b.release()
        assert b.state == HALF_OPEN
        assert b.allow()  # the probe is back
        b.record_failure()
        b.release()  # a late release after the probe re-opened changes nothing
        clk.advance(5.0)
        assert b.allow() and not b.allow()

    def test_default_breakers_pair(self):
        pair = default_breakers(failure_threshold=5)
        assert set(pair) == {"grounding", "sam"}
        assert all(b.failure_threshold == 5 for b in pair.values())


class TestServerLifecycle:
    def test_track_counts_and_wait_idle(self):
        life = ServerLifecycle()
        with life.track():
            assert life.inflight == 1
        assert life.inflight == 0
        assert life.wait_idle(0.1)
        assert event_count("server.drained") == 1

    def test_drain_abort_counts_stragglers(self):
        life = ServerLifecycle()
        release = threading.Event()

        def slow():
            with life.track():
                release.wait(5)

        t = threading.Thread(target=slow, daemon=True)
        t.start()
        time.sleep(0.05)
        life.begin_drain()
        assert life.draining
        assert not life.wait_idle(0.05)
        assert event_count("server.drain_aborted") == 1
        release.set()
        t.join(timeout=5)
        life.reset()
        assert not life.draining

    def test_deadline_scope(self):
        assert current_deadline() is None
        check_deadline("outside any request")  # no-op without a scope
        with request_scope(Deadline(60.0)) as d:
            assert current_deadline() is d
            check_deadline("plenty of budget")
        assert current_deadline() is None
        with request_scope(Deadline(1e-9)):
            time.sleep(0.001)
            with pytest.raises(DeadlineExceededError):
                check_deadline("already overdue")


class TestSessionStoreEviction:
    def test_ttl_eviction_with_hint(self):
        clk = FakeClock()
        store = SessionStore(ttl_s=10.0, clock=clk)
        sid = store.create().session_id
        clk.advance(11.0)
        with pytest.raises(UnknownSessionError) as exc_info:
            store.get(sid)
        assert exc_info.value.evicted_reason == "ttl"
        assert len(store) == 0
        assert event_count("server.session_evicted_ttl") == 1

    def test_touch_refreshes_ttl(self):
        clk = FakeClock()
        store = SessionStore(ttl_s=10.0, clock=clk)
        sid = store.create().session_id
        clk.advance(6.0)
        store.get(sid)  # touch
        clk.advance(6.0)
        store.get(sid)  # 12s wall, but never idle > 10s
        assert len(store) == 1

    def test_capacity_evicts_lru(self):
        store = SessionStore(max_sessions=2)
        a = store.create().session_id
        b = store.create().session_id
        store.get(a)  # a is now most-recently used; b is the LRU
        c = store.create().session_id
        assert len(store) == 2
        store.get(a), store.get(c)
        with pytest.raises(UnknownSessionError) as exc_info:
            store.get(b)
        assert exc_info.value.evicted_reason == "capacity"

    def test_session_count_never_exceeds_cap(self):
        store = SessionStore(max_sessions=3)
        for _ in range(10):
            store.create()
            assert len(store) <= 3

    def test_drop_is_idempotent(self):
        store = SessionStore()
        sid = store.create().session_id
        store.drop(sid)
        store.drop(sid)  # no error
        assert len(store) == 0

    def test_concurrent_create_get_drop(self):
        store = SessionStore(max_sessions=8)
        errors: list[BaseException] = []

        def churn(seed: int):
            rng = np.random.default_rng(seed)
            ids = []
            try:
                for _ in range(30):
                    op = rng.integers(0, 3)
                    if op == 0 or not ids:
                        ids.append(store.create().session_id)
                    elif op == 1:
                        with contextlib.suppress(UnknownSessionError):
                            store.get(ids[int(rng.integers(0, len(ids)))])
                    else:
                        store.drop(ids.pop())
            except BaseException as exc:  # noqa: BLE001 - assert below
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "deadlocked store"
        assert errors == []
        assert len(store) <= 8


class TestApiContracts:
    def test_unknown_session_contract(self):
        r = ApiHandler().handle({"action": "preview", "session_id": "sNOPE"})
        assert r == {
            "ok": False,
            "type": "SessionError",
            "error": "unknown_session",
            "detail": "unknown session 'sNOPE'",
        }

    def test_evicted_session_gets_hint(self):
        api = ApiHandler(SessionStore(max_sessions=1))
        old = api.handle({"action": "create_session"})["session_id"]
        api.handle({"action": "create_session"})  # evicts `old` (capacity)
        r = api.handle({"action": "preview", "session_id": old})
        assert not r["ok"] and r["error"] == "unknown_session"
        assert r["evicted"] == "capacity"

    def test_drop_session_idempotent(self):
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        assert api.handle({"action": "drop_session", "session_id": sid})["ok"]
        r = api.handle({"action": "drop_session", "session_id": sid})
        assert r["ok"] and r["dropped"]

    def test_deadline_504_leaves_session_consistent(self, amorphous_sample):
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        api.store.get(sid).load_array(amorphous_sample.volume.voxels[0])
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        r = api.handle(dict(req, deadline_s=1e-9))
        assert not r["ok"] and r["type"] == "DeadlineExceededError"
        # The overdue request committed nothing: no result, no history entry.
        session = api.store.get(sid)
        assert session.last_result is None
        assert [h["action"] for h in session.history] == ["load"]
        # The identical follow-up without a deadline succeeds normally.
        r2 = api.handle(req)
        assert r2["ok"] and r2["result"]["coverage"] > 0
        assert "degraded" not in r2

    def test_handler_default_deadline_applies(self, amorphous_sample):
        api = ApiHandler(request_deadline_s=1e-9)
        sid = api.handle({"action": "create_session"})["session_id"]
        with request_scope(None):  # direct session access stays unbounded
            api.store.get(sid).load_array(amorphous_sample.volume.voxels[0])
        r = api.handle({"action": "segment", "session_id": sid, "prompt": "x"})
        assert not r["ok"] and r["type"] == "DeadlineExceededError"
        # Per-request deadline_s overrides the handler default.
        r2 = api.handle(
            {"action": "segment", "session_id": sid, "prompt": "catalyst particles", "deadline_s": 60}
        )
        assert r2["ok"]


class TestBreakerDegradation:
    def _loaded_api(self, breakers, shape=(48, 48)):
        api = ApiHandler(SessionStore(breakers=breakers))
        sid = api.handle({"action": "create_session"})["session_id"]
        rng = np.random.default_rng(0)
        img = rng.random(shape)
        api.handle({"action": "load_array", "session_id": sid, "array": img.tolist()})
        return api, sid

    def test_grounding_breaker_cycle_via_api(self, monkeypatch):
        clk = FakeClock()
        breakers = default_breakers(failure_threshold=2, recovery_timeout_s=5.0, clock=clk)
        api, sid = self._loaded_api(breakers)
        gb = breakers["grounding"]
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}

        monkeypatch.setenv("REPRO_FAULTS", "grounding_error@times=3")
        r = api.handle(req)
        assert r["ok"] and r["degraded"]
        assert "grounding:GroundingError" in r["degraded_stages"]
        assert gb.state == CLOSED
        r = api.handle(req)  # second consecutive failure trips the breaker
        assert r["ok"] and gb.state == OPEN
        r = api.handle(req)  # open: skipped without consuming the fault budget
        assert r["ok"] and "grounding:open" in r["degraded_stages"]

        monkeypatch.setenv("REPRO_FAULTS", "")  # backend "recovers"
        clk.advance(5.1)  # past the recovery window: half-open probe admitted
        r = api.handle(req)
        assert r["ok"] and "degraded" not in r
        assert gb.state == CLOSED
        assert gb.snapshot()["transitions"] == [OPEN, HALF_OPEN, CLOSED]
        assert event_count("server.degraded") >= 3

    def test_grounding_fallback_prefers_last_good_boxes(self, monkeypatch):
        breakers = default_breakers(failure_threshold=1)
        api, sid = self._loaded_api(breakers)
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        assert api.handle(req)["ok"]  # primes last_good_detection
        monkeypatch.setenv("REPRO_FAULTS", "grounding_error")
        r = api.handle(req)
        assert r["ok"] and "grounding:last_good_boxes" in r["degraded_stages"]

    def test_sam_breaker_degrades_to_relevance_mask(self, monkeypatch):
        breakers = default_breakers(failure_threshold=2)
        api, sid = self._loaded_api(breakers)
        monkeypatch.setenv("REPRO_FAULTS", "sam_error")
        r = api.handle({"action": "segment", "session_id": sid, "prompt": "catalyst particles"})
        assert r["ok"] and r["degraded"]
        assert "sam:PipelineError" in r["degraded_stages"]

    @pytest.fixture()
    def points_fail(self, monkeypatch):
        """SAM's point prompts raise, as a broken SAM backend would."""
        from repro.errors import PipelineError
        from repro.models.sam.model import SamPredictor

        def broken(self, *args, **kwargs):
            raise PipelineError("SAM is down")

        monkeypatch.setattr(SamPredictor, "masks_from_points", broken)

    @pytest.mark.parametrize("points", [None, [[24.0, 24.0]]], ids=["no_points", "points"])
    def test_open_sam_breaker_skips_point_prompts(self, points_fail, points):
        breakers = default_breakers(failure_threshold=1, recovery_timeout_s=60.0)
        breakers["sam"].record_failure()
        api, sid = self._loaded_api(breakers)
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        if points is not None:
            req["positive_points"] = points
        r = api.handle(req)
        assert r["ok"] and r["degraded_stages"] == ["sam:open"]

    def test_point_prompt_failure_trips_sam_breaker(self, points_fail):
        breakers = default_breakers(failure_threshold=1, recovery_timeout_s=60.0)
        api, sid = self._loaded_api(breakers)
        r = api.handle(
            {
                "action": "segment",
                "session_id": sid,
                "prompt": "catalyst particles",
                "positive_points": [[24.0, 24.0]],
            }
        )
        assert r["ok"] and r["degraded_stages"] == ["sam:PipelineError"]
        assert breakers["sam"].state == OPEN

    def test_malformed_box_spends_no_half_open_probe(self):
        clk = FakeClock()
        breakers = default_breakers(failure_threshold=1, recovery_timeout_s=5.0, clock=clk)
        api, sid = self._loaded_api(breakers)
        sb = breakers["sam"]
        sb.record_failure()
        clk.advance(5.1)
        assert sb.state == HALF_OPEN
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        bad = api.handle({**req, "boxes": [[30.0, 10.0, 20.0, 40.0]]})  # x1 <= x0
        assert not bad["ok"] and bad["type"] == "ValidationError"
        r = api.handle(req)  # the probe is still there: SAM runs and closes
        assert r["ok"] and "degraded" not in r
        assert sb.state == CLOSED

    def test_both_breakers_open_still_answers(self, monkeypatch):
        breakers = default_breakers(failure_threshold=1, recovery_timeout_s=60.0)
        api, sid = self._loaded_api(breakers)
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        monkeypatch.setenv("REPRO_FAULTS", "grounding_error,sam_error")
        assert api.handle(req)["ok"]  # trips both breakers
        r = api.handle(req)  # everything down: classical fallback, not a failure
        assert r["ok"] and r["degraded"]
        assert "grounding:open" in r["degraded_stages"]

    # -- one failure rule: what a breaker counts --------------------------

    @pytest.fixture()
    def break_stage(self, monkeypatch):
        """``break_stage(stage, exc)`` makes a stage raise ``exc``; ``None`` heals it."""
        from repro.core.pipeline import ZenesisPipeline
        from repro.models.sam.automatic import SamAutomaticMaskGenerator
        from repro.models.sam.model import SamPredictor

        targets = {
            "grounding": (ZenesisPipeline, "ground"),
            "box_decode": (ZenesisPipeline, "segment_with_boxes"),
            "points": (SamPredictor, "masks_from_points"),
            "sam_only": (SamAutomaticMaskGenerator, "generate"),
        }

        healthy = {stage: vars(owner)[name] for stage, (owner, name) in targets.items()}

        def apply(stage, exc):
            def broken(*args, **kwargs):
                raise exc

            monkeypatch.setattr(*targets[stage], healthy[stage] if exc is None else broken)

        return apply

    @staticmethod
    def _half_open(breaker, clk):
        breaker.record_failure()
        clk.advance(5.1)
        assert breaker.state == HALF_OPEN

    @pytest.mark.parametrize("stage", ["box_decode", "points"])
    def test_plain_runtime_error_degrades_and_counts(self, break_stage, stage):
        breakers = default_breakers(failure_threshold=3)
        api, sid = self._loaded_api(breakers)
        break_stage(stage, RuntimeError("SAM backend crashed"))
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        if stage == "points":
            req["positive_points"] = [[24.0, 24.0]]
        r = api.handle(req)
        assert r["ok"] and r["degraded_stages"] == ["sam:RuntimeError"]
        assert breakers["sam"].snapshot()["consecutive_failures"] == 1

    @pytest.mark.parametrize("stage,name", [("grounding", "grounding"), ("box_decode", "sam")])
    def test_runtime_error_in_half_open_probe_reopens_then_recovers(self, break_stage, stage, name):
        clk = FakeClock()
        breakers = default_breakers(failure_threshold=1, recovery_timeout_s=5.0, clock=clk)
        api, sid = self._loaded_api(breakers)
        breaker = breakers[name]
        self._half_open(breaker, clk)
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        break_stage(stage, RuntimeError("still down"))
        r = api.handle(req)
        assert r["ok"] and f"{name}:RuntimeError" in r["degraded_stages"]
        assert breaker.state == OPEN
        break_stage(stage, None)
        clk.advance(4.9)
        assert f"{name}:open" in api.handle(req)["degraded_stages"]  # timer restarted
        clk.advance(0.2)
        r = api.handle(req)
        assert r["ok"] and "degraded" not in r
        assert breaker.snapshot()["transitions"] == [OPEN, HALF_OPEN, OPEN, HALF_OPEN, CLOSED]

    @pytest.mark.parametrize(
        "hint,error",
        [
            ({"positive_points": [["a", 1]]}, "ValidationError"),
            ({"positive_points": [[1.0, 2.0, 3.0]]}, "ValidationError"),
            ({"negative_points": [[24.0, 24.0]]}, "PromptError"),
        ],
        ids=["not_a_number", "three_coordinates", "no_positive_point"],
    )
    @pytest.mark.parametrize("name", ["grounding", "sam"])
    def test_malformed_point_spends_no_half_open_probe(self, hint, error, name):
        clk = FakeClock()
        breakers = default_breakers(failure_threshold=1, recovery_timeout_s=5.0, clock=clk)
        api, sid = self._loaded_api(breakers)
        breaker = breakers[name]
        self._half_open(breaker, clk)
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        bad = api.handle({**req, **hint})
        assert not bad["ok"] and bad["type"] == error
        assert breaker.state == HALF_OPEN
        r = api.handle(req)  # the probe is still there: the stage runs and closes
        assert r["ok"] and "degraded" not in r
        assert breaker.state == CLOSED

    @pytest.mark.parametrize("stage,name", [("grounding", "grounding"), ("box_decode", "sam")])
    def test_request_deadline_inside_probe_counts_nothing(self, break_stage, stage, name):
        clk = FakeClock()
        breakers = default_breakers(failure_threshold=1, recovery_timeout_s=5.0, clock=clk)
        api, sid = self._loaded_api(breakers)
        breaker = breakers[name]
        self._half_open(breaker, clk)
        before = breaker.snapshot()
        req = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
        break_stage(stage, DeadlineExceededError("request budget spent mid-stage"))
        r = api.handle(req)
        assert not r["ok"] and r["type"] == "DeadlineExceededError"  # the 504 type
        after = breaker.snapshot()
        assert after["state"] == HALF_OPEN
        assert after["consecutive_failures"] == before["consecutive_failures"]
        assert after["transitions"] == before["transitions"]
        break_stage(stage, None)
        r = api.handle(req)  # the probe was handed back
        assert r["ok"] and "degraded" not in r
        assert breaker.state == CLOSED

    def test_sam_only_failure_falls_back_to_otsu_and_counts(self, monkeypatch, break_stage):
        from repro.baselines.otsu import otsu_segment

        breakers = default_breakers(failure_threshold=3)
        api, sid = self._loaded_api(breakers)
        monkeypatch.setenv("REPRO_FAULTS", "grounding_error")  # no last-good boxes yet
        break_stage("sam_only", RuntimeError("automatic mask generator crashed"))
        r = api.handle({"action": "segment", "session_id": sid, "prompt": "catalyst particles"})
        assert r["ok"] and r["degraded_stages"] == [
            "grounding:GroundingError",
            "grounding:sam_only_fallback",
            "sam:RuntimeError",
        ]
        assert breakers["sam"].snapshot()["consecutive_failures"] == 1
        session = api.store.get(sid)
        _, seg_img = session.pipeline.adapt(session.current_image())
        assert np.array_equal(session.last_result.mask, otsu_segment(seg_img))

    def test_library_store_without_breakers_propagates(self, monkeypatch):
        store = SessionStore()  # no breakers: plain library semantics
        session = store.create()
        session.load_array(np.random.default_rng(0).random((48, 48)))
        monkeypatch.setenv("REPRO_FAULTS", "grounding_error")
        from repro.errors import GroundingError

        with pytest.raises(GroundingError):
            session.segment("catalyst particles")

    def test_serving_snapshot_combines_components(self):
        gate = AdmissionGate(4)
        breakers = default_breakers()
        store = SessionStore(max_sessions=7, breakers=breakers)
        store.create()
        snap = serving_snapshot(gate=gate, breakers=breakers, store=store)
        assert snap["admission"]["max_inflight"] == 4
        assert snap["breakers"]["grounding"]["state"] == CLOSED
        assert snap["sessions"] == 1 and snap["session_cap"] == 7
        json.dumps(snap)  # JSON-safe for the dashboard


class TestUploadHardening:
    @pytest.fixture()
    def api_sid(self):
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        return api, sid

    def test_corrupt_base64(self, api_sid):
        api, sid = api_sid
        r = api.handle({"action": "load_array", "session_id": sid, "data_base64": "%%not-b64%%"})
        assert not r["ok"] and r["type"] == "ValidationError"

    def test_truncated_npy_stream(self, api_sid):
        api, sid = api_sid
        buf = io.BytesIO()
        np.save(buf, np.ones((16, 16)))
        half = base64.b64encode(buf.getvalue()[: buf.tell() // 2]).decode()
        r = api.handle({"action": "load_array", "session_id": sid, "data_base64": half})
        assert not r["ok"] and r["type"] == "FormatError"

    def test_ragged_nested_list(self, api_sid):
        api, sid = api_sid
        r = api.handle({"action": "load_array", "session_id": sid, "array": [[1.0, 2.0], [3.0]]})
        assert not r["ok"] and r["type"] == "ValidationError"

    def test_nan_poisoned_upload(self, api_sid):
        api, sid = api_sid
        bad = np.ones((16, 16))
        bad[3, 4] = np.nan
        r = api.handle({"action": "load_array", "session_id": sid, "array": bad.tolist()})
        assert not r["ok"] and r["type"] == "ValidationError" and "NaN" in r["error"]

    def test_inf_poisoned_npy_upload(self, api_sid):
        api, sid = api_sid
        bad = np.ones((16, 16))
        bad[0, 0] = np.inf
        buf = io.BytesIO()
        np.save(buf, bad)
        r = api.handle(
            {
                "action": "load_array",
                "session_id": sid,
                "data_base64": base64.b64encode(buf.getvalue()).decode(),
            }
        )
        assert not r["ok"] and r["type"] == "ValidationError" and "inf" in r["error"]

    def test_empty_array_upload(self, api_sid):
        api, sid = api_sid
        r = api.handle({"action": "load_array", "session_id": sid, "array": []})
        assert not r["ok"] and r["type"] == "ValidationError"

    def test_missing_payload(self, api_sid):
        api, sid = api_sid
        r = api.handle({"action": "load_array", "session_id": sid})
        assert not r["ok"] and r["type"] == "ValidationError"

    def test_truncated_tiff_file(self, api_sid, tmp_path):
        api, sid = api_sid
        path = tmp_path / "vol.tif"
        write_tiff(path, np.random.default_rng(0).random((2, 32, 32)).astype(np.float32))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        r = api.handle({"action": "load_file", "session_id": sid, "path": str(path)})
        assert not r["ok"] and r["type"] in ("FormatError", "CodecError")

    def test_good_upload_still_works(self, api_sid):
        api, sid = api_sid
        buf = io.BytesIO()
        np.save(buf, np.random.default_rng(0).random((24, 24)))
        r = api.handle(
            {
                "action": "load_array",
                "session_id": sid,
                "data_base64": base64.b64encode(buf.getvalue()).decode(),
            }
        )
        assert r["ok"] and r["preview"]["kind"] == "image"


class _SlowApi(ApiHandler):
    """Test double: adds a `sleep` action so overload is timing-controlled."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._actions["sleep"] = self._sleep

    def _sleep(self, request: dict) -> dict:
        time.sleep(float(request.get("s", 0.3)))
        return {"slept": True}


class TestServerOverload:
    def test_shed_returns_429_with_retry_after(self):
        with PlatformServer(
            api=_SlowApi(), max_inflight=1, max_queue=0, queue_timeout_s=0.0
        ) as srv:
            results = []
            t = threading.Thread(
                target=lambda: results.append(_post(srv.url, {"action": "sleep", "s": 0.8}))
            )
            t.start()
            time.sleep(0.25)  # the slow request is now in flight
            req = urllib.request.Request(
                srv.url + "/api", data=b'{"action": "create_session"}', headers={}
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req, timeout=10)
            assert exc_info.value.code == 429
            assert int(exc_info.value.headers["Retry-After"]) >= 1
            body = json.loads(exc_info.value.read())
            assert not body["ok"] and "capacity" in body["error"]
            t.join(timeout=10)
            assert results and results[0][0] == 200
            assert srv.gate.shed_total >= 1

    def test_deadline_maps_to_http_504(self, amorphous_sample):
        with PlatformServer() as srv:
            _, r = _post(srv.url, {"action": "create_session"})
            sid = r["session_id"]
            code, _ = _post(
                srv.url,
                {
                    "action": "load_array",
                    "session_id": sid,
                    "array": amorphous_sample.volume.voxels[0][:48, :48].tolist(),
                },
            )
            assert code == 200
            code, body = _post(
                srv.url,
                {"action": "segment", "session_id": sid, "prompt": "x", "deadline_s": 1e-9},
            )
            assert code == 504 and body["type"] == "DeadlineExceededError"
            code, body = _post(
                srv.url, {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
            )
            assert code == 200 and body["ok"]

    def test_draining_rejects_with_503(self):
        srv = PlatformServer().start()
        try:
            srv.lifecycle.begin_drain()
            assert not srv.ready
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(srv.url + "/ready", timeout=10)
            assert exc_info.value.code == 503
            code, body = _post(srv.url, {"action": "create_session"})
            assert code == 503 and "drain" in body["error"]
            srv.lifecycle.reset()
            code, body = _post(srv.url, {"action": "create_session"})
            assert code == 200 and body["ok"]
        finally:
            srv.stop()

    def test_graceful_drain_waits_for_inflight(self):
        srv = PlatformServer(api=_SlowApi(), drain_timeout_s=5.0).start()
        results = []
        t = threading.Thread(
            target=lambda: results.append(_post(srv.url, {"action": "sleep", "s": 0.4}))
        )
        t.start()
        time.sleep(0.15)
        srv.stop()  # must wait for the in-flight sleep, not abort it
        t.join(timeout=10)
        assert results and results[0][0] == 200 and results[0][1]["slept"]
        assert event_count("server.drained") >= 1
        assert event_count("server.drain_aborted") == 0

    def test_drain_window_expiry_aborts_stragglers(self):
        srv = PlatformServer(api=_SlowApi(), drain_timeout_s=0.05).start()

        def straggler():
            with contextlib.suppress(Exception):
                _post(srv.url, {"action": "sleep", "s": 1.0})

        t = threading.Thread(target=straggler, daemon=True)
        t.start()
        time.sleep(0.2)
        start = time.monotonic()
        srv.stop()
        assert time.monotonic() - start < 2.0  # did not wait the full sleep
        assert event_count("server.drain_aborted") >= 1

    def test_stop_returns_promptly(self):
        # stop() waits for the accept loop's next shutdown check, so a
        # restart pays at most one poll interval.
        slowest = 0.0
        for _ in range(5):
            srv = PlatformServer().start()
            start = time.monotonic()
            srv.stop()
            slowest = max(slowest, time.monotonic() - start)
        assert slowest < 0.25

    def test_client_disconnect_is_counted_not_500(self):
        srv = PlatformServer()
        try:
            srv._state["ready"] = True
            handler_cls = srv.httpd.RequestHandlerClass
            client, server_side = socket.socketpair()
            body = b'{"action": "create_session"}'
            client.sendall(
                b"POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            client.close()  # gone before the response is written
            with contextlib.suppress(OSError):
                handler_cls(server_side, ("test-client", 0), srv.httpd)
            assert event_count("server.client_disconnect") >= 1
            assert event_count("server.handler_errors") == 0
        finally:
            srv.httpd.server_close()

    def test_metrics_expose_serving_state(self):
        with PlatformServer(max_sessions=5) as srv:
            _post(srv.url, {"action": "create_session"})
            text = urllib.request.urlopen(srv.url + "/metrics", timeout=10).read().decode()
        assert "repro_server_inflight" in text
        assert "repro_server_breaker_state" in text
        assert "repro_server_sessions 1" in text
        assert 'repro_server_requests_total{action="create_session",status="200"}' in text


class TestChaosSoakShort:
    """A compressed in-tier soak; the 30s/16-client version lives in
    benchmarks/test_serving_soak.py (same traffic mix, same assertions)."""

    def test_mixed_traffic_under_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "grounding_error@p=0.3,sam_error@p=0.2")
        srv = PlatformServer(
            max_inflight=4,
            max_queue=4,
            queue_timeout_s=0.1,
            max_sessions=4,
            request_deadline_s=20.0,
            drain_timeout_s=10.0,
        ).start()
        stop_at = time.monotonic() + 2.5
        codes: list[int] = []
        failures: list[str] = []
        lock = threading.Lock()
        img = np.random.default_rng(0).random((32, 32)).tolist()

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            sid = None
            while time.monotonic() < stop_at:
                try:
                    if sid is None:
                        code, body = _post(srv.url, {"action": "create_session"})
                        if code == 200:
                            sid = body["session_id"]
                            code, body = _post(
                                srv.url,
                                {"action": "load_array", "session_id": sid, "array": img},
                            )
                    else:
                        roll = float(rng.random())
                        if roll < 0.5:
                            code, body = _post(
                                srv.url,
                                {
                                    "action": "segment",
                                    "session_id": sid,
                                    "prompt": "catalyst particles",
                                },
                            )
                        elif roll < 0.7:
                            code, body = _post(
                                srv.url,
                                {"action": "rectify", "session_id": sid, "x": 16.0, "y": 16.0},
                            )
                        elif roll < 0.85:
                            code, body = _post(srv.url, {"action": "preview", "session_id": sid})
                        else:
                            code, body = _post(
                                srv.url, {"action": "drop_session", "session_id": sid}
                            )
                            sid = None
                    with lock:
                        codes.append(code)
                        if code == 500:
                            failures.append(json.dumps(body))
                except Exception as exc:  # noqa: BLE001 - recorded and asserted
                    with lock:
                        failures.append(repr(exc))

        threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        alive = [t for t in threads if t.is_alive()]
        srv.stop()

        assert not alive, "client threads deadlocked"
        assert failures == [], f"soak produced failures: {failures[:5]}"
        assert codes, "no requests completed"
        assert set(codes) <= {200, 429, 503, 504}
        assert codes.count(200) > 0
        assert len(srv.api.store) <= 4
        assert srv.lifecycle.inflight == 0
        # Fault injection actually exercised the degraded path.
        assert event_count("server.degraded") >= 1
