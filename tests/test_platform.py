"""Tests for the platform layer: sessions (Modes A and B), JSON API, HTTP server."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.pipeline import ZenesisPipeline
from repro.core.prompts import SpatialHints
from repro.errors import (
    EmptyBatchError,
    SessionError,
    UnknownFormatError,
    UnknownPresetError,
    UnknownSessionError,
    error_record,
)
from repro.io.tiff import write_tiff
from repro.platform.api import ApiHandler
from repro.platform.server import PlatformServer
from repro.platform.session import SessionStore
from repro.resilience.serving import default_breakers


@pytest.fixture()
def store():
    return SessionStore()


@pytest.fixture()
def loaded_session(store, amorphous_sample):
    session = store.create()
    session.load_array(amorphous_sample.volume.voxels, modality="fibsem")
    return session


class TestSession:
    def test_create_unique_ids(self, store):
        a, b = store.create(), store.create()
        assert a.session_id != b.session_id
        assert len(store) == 2

    def test_get_unknown(self, store):
        with pytest.raises(SessionError):
            store.get("nope")

    def test_drop(self, store):
        s = store.create()
        store.drop(s.session_id)
        with pytest.raises(SessionError):
            store.get(s.session_id)

    def test_load_volume_preview(self, loaded_session):
        preview = loaded_session.preview()
        assert preview["kind"] == "volume"
        assert "readiness" in preview

    def test_load_image(self, store, amorphous_sample):
        s = store.create()
        preview = s.load_array(amorphous_sample.volume.voxels[0])
        assert preview["kind"] == "image"

    def test_preview_before_load(self, store):
        with pytest.raises(SessionError):
            store.create().preview()

    def test_select_slice(self, loaded_session):
        loaded_session.select_slice(2)
        assert loaded_session.active_slice == 2
        with pytest.raises(SessionError):
            loaded_session.select_slice(99)

    def test_segment_and_rectify_flow(self, loaded_session):
        result = loaded_session.segment("catalyst particles")
        assert result.mask.any()
        info = loaded_session.rectify_click(64.0, 100.0)
        assert info["total_area"] >= result.mask.sum() - 1
        assert loaded_session.current_mask().any()

    def test_rectify_requires_segment(self, loaded_session):
        with pytest.raises(SessionError):
            loaded_session.rectify_click(10, 10)

    def test_history_records_actions(self, loaded_session):
        loaded_session.segment("catalyst particles")
        actions = [h["action"] for h in loaded_session.history]
        assert actions[0] == "load" and "segment" in actions


class TestModes:
    def test_mode_a_segments_selected_slice(self, loaded_session):
        loaded_session.select_slice(1)
        result = loaded_session.segment("catalyst particles")
        assert result.mask.shape == (128, 128)

    def test_mode_b_equals_pipeline(self, loaded_session):
        result = loaded_session.segment_volume("catalyst particles")
        assert result.masks.shape == loaded_session.volume.shape
        direct = loaded_session.pipeline.segment_volume(loaded_session.volume, "catalyst particles")
        assert np.array_equal(result.masks, direct.masks)


class TestModeAOnePath:
    """``Session.segment`` with no breaker tripped is ``segment_image``."""

    @pytest.mark.parametrize(
        "hints",
        [
            None,
            SpatialHints(boxes=((10.0, 12.0, 50.0, 44.0),)),
            SpatialHints(positive_points=((48.0, 40.0),)),
        ],
        ids=["prompt", "user_boxes", "positive_points"],
    )
    def test_session_equals_segment_image(self, mini_dataset, hints):
        pixels = mini_dataset.slices[0].image.pixels
        session = SessionStore(breakers=default_breakers()).create()
        session.load_array(pixels)
        got = session.segment("catalyst particles", hints=hints)
        want = ZenesisPipeline().segment_image(pixels, "catalyst particles", hints=hints)
        assert "degraded" not in got.metadata
        assert got.mask.tobytes() == want.mask.tobytes()
        assert np.array_equal(got.detection.boxes, want.detection.boxes)
        assert got.per_box_kinds == want.per_box_kinds
        assert got.metadata == want.metadata


class TestApi:
    def test_full_workflow(self, amorphous_sample, tmp_path):
        path = tmp_path / "vol.tif"
        write_tiff(path, amorphous_sample.volume.voxels)
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        r = api.handle({"action": "load_file", "session_id": sid, "path": str(path)})
        assert r["ok"] and r["preview"]["kind"] == "volume"
        r = api.handle({"action": "segment", "session_id": sid, "prompt": "catalyst particles"})
        assert r["ok"] and r["result"]["coverage"] > 0
        r = api.handle({"action": "segment_volume", "session_id": sid, "prompt": "catalyst particles"})
        assert r["ok"] and r["n_slices"] == amorphous_sample.n_slices
        r = api.handle({"action": "mask_png", "session_id": sid})
        assert r["ok"] and r["bytes"] > 100

    def test_unknown_action(self):
        r = ApiHandler().handle({"action": "fly_to_moon"})
        assert not r["ok"] and r["type"] == "UnknownAction"

    def test_error_shape(self):
        api = ApiHandler()
        r = api.handle({"action": "preview", "session_id": "missing"})
        assert not r["ok"] and r["type"] == "SessionError"

    def test_responses_json_safe(self, amorphous_sample):
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        session = api.store.get(sid)
        session.load_array(amorphous_sample.volume.voxels[0])
        for req in (
            {"action": "preview", "session_id": sid},
            {"action": "segment", "session_id": sid, "prompt": "catalyst particles"},
            {"action": "adapt_spec", "session_id": sid, "steps": [{"step": "stretch"}]},
        ):
            json.dumps(api.handle(req))

    def test_segment_with_hints(self, amorphous_sample):
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        api.store.get(sid).load_array(amorphous_sample.volume.voxels[0])
        r = api.handle(
            {
                "action": "segment",
                "session_id": sid,
                "prompt": "catalyst particles",
                "positive_points": [[64, 100]],
            }
        )
        assert r["ok"]

    def test_evaluate_and_dashboard(self):
        api = ApiHandler()
        r = api.handle({"action": "evaluate", "shape": [96, 96], "n_slices": 1, "methods": ["otsu"]})
        assert r["ok"] and "otsu" in r["evaluations"]
        r2 = api.handle({"action": "dashboard"})
        assert r2["ok"] and r2["html"].startswith("<!DOCTYPE html>")

    def test_dashboard_requires_evaluate(self):
        r = ApiHandler().handle({"action": "dashboard"})
        assert r == {"ok": False, "type": "SessionError", "error": "run evaluate before dashboard"}

    @pytest.mark.parametrize("action", ["propagate_volume", "calibrate_concept"])
    def test_volume_actions_require_a_volume(self, action):
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        api.handle({"action": "load_array", "session_id": sid, "array": [[0.0, 1.0], [1.0, 0.0]]})
        r = api.handle({"action": action, "session_id": sid})
        assert r == {"ok": False, "type": "SessionError", "error": f"{action} requires a loaded volume"}

    def test_evaluate_passes_only_what_the_request_sets(self, monkeypatch):
        import repro.platform.api as api_mod

        seen = []

        def fake(methods, **kwargs):
            seen.append((list(methods), kwargs))
            return {}, {}

        monkeypatch.setattr(api_mod, "evaluate_benchmark", fake)
        api = ApiHandler()
        api.handle({"action": "evaluate"})
        api.handle({"action": "evaluate", "methods": ["zenesis"], "shape": [64, 64], "n_slices": "2"})
        assert seen == [(["otsu"], {}), (["zenesis"], {"shape": (64, 64), "n_slices": 2})]


class TestErrorRecord:
    def test_plain_exception(self):
        assert error_record(RuntimeError("boom")) == {"type": "RuntimeError", "error": "boom"}

    def test_carries_the_fields_an_error_class_sets(self):
        assert error_record(UnknownPresetError("no such preset", known=("a", "b"))) == {
            "type": "UnknownPresetError",
            "error": "no such preset",
            "known": ["a", "b"],
        }
        skipped = error_record(EmptyBatchError("empty", skipped=(("x.bin", "unknown_magic"),)))
        assert skipped["skipped"] == [["x.bin", "unknown_magic"]]
        assert error_record(UnknownFormatError("empty file", reason="empty"))["reason"] == "empty"
        evicted = error_record(UnknownSessionError("gone", evicted_reason="ttl"))
        assert evicted["evicted_reason"] == "ttl"

    def test_unset_fields_are_left_out(self):
        assert error_record(UnknownSessionError("never issued")) == {
            "type": "UnknownSessionError",
            "error": "never issued",
        }
        assert "known" not in error_record(UnknownPresetError("none registered"))


class TestServer:
    def _post(self, url, payload):
        req = urllib.request.Request(
            url + "/api", data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
        )
        return json.loads(urllib.request.urlopen(req, timeout=20).read())

    def test_health_and_landing(self):
        with PlatformServer() as srv:
            health = json.loads(urllib.request.urlopen(srv.url + "/health", timeout=10).read())
            assert health == {"status": "ok"}
            landing = urllib.request.urlopen(srv.url + "/", timeout=10).read()
            assert b"Zenesis" in landing

    def test_api_roundtrip(self):
        with PlatformServer() as srv:
            r = self._post(srv.url, {"action": "create_session"})
            assert r["ok"] and r["session_id"]

    def test_bad_json_400(self):
        with PlatformServer() as srv:
            req = urllib.request.Request(srv.url + "/api", data=b"{not json", headers={})
            try:
                urllib.request.urlopen(req, timeout=10)
                raised = False
            except urllib.error.HTTPError as exc:
                raised = exc.code == 400
            assert raised

    def test_unknown_path_404(self):
        with PlatformServer() as srv:
            try:
                urllib.request.urlopen(srv.url + "/nope", timeout=10)
                code = 200
            except urllib.error.HTTPError as exc:
                code = exc.code
            assert code == 404

    def test_ready_probe(self):
        srv = PlatformServer()
        assert not srv.ready
        with srv:
            ready = json.loads(urllib.request.urlopen(srv.url + "/ready", timeout=10).read())
            # No jobs configured, so readiness detail carries drain state only.
            assert ready == {"ready": True, "draining": False}
        assert not srv.ready

    def test_handler_exception_returns_500(self):
        class BoomHandler(ApiHandler):
            def handle(self, request):
                raise RuntimeError("kaboom")

        with PlatformServer(api=BoomHandler()) as srv:
            req = urllib.request.Request(
                srv.url + "/api", data=b'{"action": "anything"}', headers={}
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req, timeout=10)
            assert exc_info.value.code == 500
            body = json.loads(exc_info.value.read())
            assert body["ok"] is False
            assert "kaboom" in body["error"]
            assert body["type"] == "RuntimeError"

    def test_oversize_body_rejected_413(self):
        with PlatformServer(max_body_bytes=1024) as srv:
            req = urllib.request.Request(srv.url + "/api", data=b"x" * 4096, headers={})
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req, timeout=10)
            assert exc_info.value.code == 413
            body = json.loads(exc_info.value.read())
            assert body["ok"] is False and "limit" in body["error"]


# -- proposed session ids (idempotent create_session retries) -----------------


class TestProposedSessionIds:
    def test_create_honors_proposed_id(self):
        store = SessionStore(max_sessions=4)
        session = store.create(session_id="cs-deadbeef0123")
        assert session.session_id == "cs-deadbeef0123"
        assert store.get("cs-deadbeef0123") is session

    def test_reproposing_is_idempotent(self):
        store = SessionStore(max_sessions=4)
        first = store.create(session_id="cs-aa")
        second = store.create(session_id="cs-aa")  # a rerouted retry
        assert second is first
        assert len(store) == 1

    def test_invalid_proposed_ids_rejected(self):
        store = SessionStore(max_sessions=4)
        with pytest.raises(SessionError):
            store.create(session_id="")
        with pytest.raises(SessionError):
            store.create(session_id="x" * 129)


def _post(url: str, payload: dict, timeout: float = 15.0):
    req = urllib.request.Request(
        url + "/api",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"{}"), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), dict(exc.headers)


def _get(url: str, path: str, timeout: float = 5.0):
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


# -- /ready liveness (zombie job runners) -------------------------------------


class TestReadyProbe:
    def test_dead_runner_thread_flips_ready_to_503(self, tmp_path):
        server = PlatformServer(jobs_dir=str(tmp_path / "jobs"), job_workers=1)
        server.start()
        try:
            code, doc = _get(server.url, "/ready")
            assert code == 200
            assert doc["job_runner_alive"] is True and doc["draining"] is False
            zombie = threading.Thread(target=lambda: None)
            zombie.start()
            zombie.join()  # a worker thread that has died
            server.jobs.runner._threads.append(zombie)
            try:
                code, doc = _get(server.url, "/ready")
                assert code == 503
                assert doc["ready"] is False and doc["job_runner_alive"] is False
            finally:
                server.jobs.runner._threads.remove(zombie)
            code, _ = _get(server.url, "/ready")
            assert code == 200  # recovered view once the zombie is gone
        finally:
            server.stop()

    def test_draining_reported_in_readiness_detail(self):
        server = PlatformServer()
        server.start()
        try:
            assert server.ready is True
            server.lifecycle.begin_drain()
            ready, detail = server._health()
            assert ready is False and detail["draining"] is True
        finally:
            server.stop()


# -- shutdown frees the port before the drain window --------------------------


class _SlowApi:
    """A handler that holds its request long enough to straddle a restart."""

    def __init__(self, hold_s: float) -> None:
        self.hold_s = hold_s

    def handle(self, request: dict) -> dict:
        time.sleep(self.hold_s)
        return {"ok": True, "held_s": self.hold_s}


class TestListenerClosesBeforeDrain:
    def test_same_port_rebinds_while_old_request_drains(self):
        old = PlatformServer(api=_SlowApi(hold_s=1.5), drain_timeout_s=5.0)
        old.start()
        port = old.address[1]
        result: dict = {}

        def client():
            result["response"] = _post(old.url, {"action": "anything"}, timeout=15)
            result["done_at"] = time.monotonic()

        t = threading.Thread(target=client)
        t.start()
        time.sleep(0.3)  # the slow request is now in flight
        stopper = threading.Thread(target=old.stop)
        stopper.start()
        # The listener must close within shutdown's poll interval — long
        # before the 1.5 s in-flight request finishes — so a restarting
        # replica can take the port back immediately.
        deadline = time.monotonic() + 3.0
        fresh = None
        while fresh is None and time.monotonic() < deadline:
            try:
                fresh = PlatformServer(host="127.0.0.1", port=port)
            except OSError:
                time.sleep(0.05)
        assert fresh is not None, f"port {port} never freed during drain"
        bound_at = time.monotonic()
        fresh.start()
        try:
            code, doc = _get(fresh.url, "/health")
            assert code == 200
            assert fresh.address[1] == port
        finally:
            fresh.stop()
        t.join(timeout=10)
        stopper.join(timeout=10)
        code, doc, _ = result["response"]
        assert code == 200 and doc["held_s"] == 1.5  # the drain kept it alive
        assert bound_at < result["done_at"], "rebind should beat the drain"
