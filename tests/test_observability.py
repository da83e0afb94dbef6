"""Tests for repro.observability: tracer, metrics registry, the registry
feeds (spans, resilience events, cache export), run manifests, the
/metrics endpoint, and the CLI surface."""

import json
import re
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.observability import (
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    build_manifest,
    diff_manifests,
    end_trace,
    export_spans,
    get_registry,
    get_tracer,
    load_manifest,
    reset_registry,
    span_topology,
    stage_rows,
    start_trace,
    trace,
    write_manifest,
)


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = start_trace("root")
        with trace("a", slice=0):
            with trace("b"):
                pass
            with trace("c"):
                pass
        with trace("d"):
            pass
        tree = end_trace().as_dict()
        assert [c["name"] for c in tree["children"]] == ["a", "d"]
        assert [c["name"] for c in tree["children"][0]["children"]] == ["b", "c"]
        assert tree["children"][0]["attrs"] == {"slice": 0}
        assert tracer.root.t1 is not None

    def test_trace_noop_without_tracer(self):
        assert get_tracer() is None
        with trace("ignored") as span:
            span.set(anything="goes")  # must not raise

    def test_span_durations_nonnegative_and_nested(self):
        start_trace("root")
        with trace("outer"):
            with trace("inner"):
                pass
        tree = end_trace().as_dict()
        outer = tree["children"][0]
        inner = outer["children"][0]
        assert outer["duration_s"] >= inner["duration_s"] >= 0.0
        assert inner["start_s"] >= outer["start_s"]

    def test_exception_annotates_span(self):
        start_trace("root")
        with pytest.raises(ValueError):
            with trace("boom"):
                raise ValueError("x")
        tree = end_trace().as_dict()
        assert tree["children"][0]["attrs"]["error"] == "ValueError"

    def test_decorator_form(self):
        @trace("decorated")
        def work(x):
            return x + 1

        start_trace("root")
        assert work(1) == 2
        tree = end_trace().as_dict()
        assert tree["children"][0]["name"] == "decorated"

    def test_tracer_stack_nests(self):
        outer = start_trace("outer")
        inner = start_trace("inner")
        assert get_tracer() is inner
        assert end_trace() is inner
        assert get_tracer() is outer
        assert end_trace() is outer
        assert get_tracer() is None

    def test_export_and_adopt_reparent_spans(self):
        start_trace("worker")
        with trace("slice.segment", slice=7):
            pass
        exported = export_spans()
        end_trace()
        assert json.loads(json.dumps(exported)) == exported  # JSON-safe

        sup = start_trace("supervisor")
        with trace("pool"):
            sup.adopt(exported, tid=3, worker=2)
        tree = end_trace().as_dict()
        adopted = tree["children"][0]["children"][0]
        assert adopted["name"] == "slice.segment"
        assert adopted["attrs"] == {"slice": 7, "worker": 2}

    def test_chrome_trace_format(self):
        start_trace("root")
        with trace("x", slice=1):
            pass
        doc = end_trace().to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["args"], dict)
        assert [e["name"] for e in doc["traceEvents"]] == ["root", "x"]

    def test_thread_spans_attach_to_root(self):
        tracer = start_trace("server")

        def worker():
            with trace("request"):
                pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end_trace()
        assert sorted(c.name for c in tracer.root.children) == ["request"] * 4

    def test_topology_drops_timing_keeps_whitelisted_attrs(self):
        start_trace("root")
        with trace("s", slice=3, prompt="secret", cache="hit"):
            pass
        tree = end_trace().as_dict()
        topo = span_topology(tree)
        assert topo == {"name": "root", "children": [{"name": "s", "attrs": {"slice": 3}}]}


# -- metrics ------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", layer="a")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)
        c.set_to(10)
        c.set_to(5)  # stale snapshot: must not roll back
        assert c.value == 10

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_bytes", tier="memory")
        g.set(100)
        g.set(50)
        assert g.value == 50

    def test_same_name_same_labels_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_a_total", k="1") is reg.counter("repro_a_total", k="1")
        assert reg.counter("repro_a_total", k="1") is not reg.counter("repro_a_total", k="2")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(TypeError):
            reg.gauge("repro_x")

    def test_histogram_buckets_and_percentiles(self):
        h = Histogram("h", boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert h.bucket_counts == [1, 2, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(15.5)
        assert 0.0 <= h.percentile(0.5) <= 2.0
        assert h.percentile(1.0) == pytest.approx(4.0)  # overflow clamps to last bound
        assert h.percentile(0.0) == 0.0

    def test_histogram_merge(self):
        a = Histogram("h", boundaries=(1.0, 2.0))
        b = Histogram("h", boundaries=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        a.merge(b)
        assert a.bucket_counts == [1, 1, 1]
        assert a.count == 3
        with pytest.raises(ValueError):
            a.merge(Histogram("h", boundaries=(1.0, 3.0)))

    def test_empty_histogram(self):
        h = Histogram("h", boundaries=(1.0,))
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", action="segment").inc(3)
        reg.gauge("repro_bytes", tier="memory").set(1024)
        h = reg.histogram("repro_latency_seconds", boundaries=(0.1, 1.0), action="segment")
        h.observe(0.05)
        h.observe(0.5)
        text = reg.render_prometheus()
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{action="segment"} 3' in text
        assert 'repro_bytes{tier="memory"} 1024' in text
        # histogram buckets are cumulative and end with +Inf == count
        assert 'repro_latency_seconds_bucket{action="segment",le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{action="segment",le="+Inf"} 2' in text
        assert 'repro_latency_seconds_count{action="segment"} 2' in text
        # every non-comment line is "name{labels} value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total").inc()
        reg.histogram("repro_h_seconds", boundaries=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"repro_c_total": 1.0}
        hist = snap["histograms"]["repro_h_seconds"]
        assert hist["count"] == 1 and "p95" in hist
        json.dumps(snap)  # JSON-safe


# -- registry feeds -----------------------------------------------------------


class TestRegistryFeeds:
    def test_cache_export_maps_tiers_and_namespaces(self):
        from repro.cache import CacheConfig, InferenceCache, export_cache_metrics

        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        for _ in range(3):
            cache.get("sam.image", "k")
        cache.put("sam.image", "k", np.zeros(2048, dtype=np.uint8))
        for _ in range(4):
            cache.get("sam.image", "k")
        reg = MetricsRegistry()
        export_cache_metrics(cache, reg)
        assert reg.counter("repro_cache_hits_total", tier="memory").value == 4
        assert reg.gauge("repro_cache_bytes", tier="memory").value == 2048
        assert reg.counter("repro_cache_ns_misses_total", namespace="sam.image").value == 3

    def test_record_event_increments_registry(self):
        from repro.resilience.events import event_count, record_event

        record_event("cache.quarantined", 2)
        record_event("grounding.retries")
        reg = get_registry()
        assert reg.counter("repro_resilience_cache_quarantined_total").value == 2
        assert reg.counter("repro_resilience_grounding_retries_total").value == 1
        assert event_count("cache.quarantined") == 2
        assert event_count("never.fired") == 0
        assert "never_fired" not in reg.render_prometheus()  # reading creates no series

    def test_stage_latency_rows(self):
        reg = MetricsRegistry()
        reg.histogram("repro_stage_seconds", stage="fast").observe(0.001)
        for _ in range(2):
            reg.histogram("repro_stage_seconds", stage="slow").observe(1.5)
        rows = stage_rows(reg)
        assert [r["stage"] for r in rows] == ["slow", "fast"]
        assert rows[0]["calls"] == 2
        assert rows[0]["total_s"] == pytest.approx(3.0)
        assert rows[0]["mean_s"] == pytest.approx(1.5)
        assert rows[0]["p50_s"] <= rows[0]["p95_s"] <= rows[0]["p99_s"]


# -- manifests ----------------------------------------------------------------


class TestManifests:
    def _manifest(self, stage="s", calls=1):
        reset_registry()
        for _ in range(calls):
            with trace(stage):
                pass
        from repro.core.pipeline import ZenesisConfig

        return build_manifest("segment", config=ZenesisConfig(), argv=["x"])

    def test_build_and_roundtrip(self, tmp_path):
        manifest = self._manifest()
        assert manifest["schema"] == 1
        assert manifest["command"] == "segment"
        assert manifest["config_fingerprint"]
        assert manifest["config"]["sam_name"] == "vit_t"
        stages = {s["stage"]: s for s in manifest["stages"]}
        assert stages["s"]["calls"] == 1
        assert stages["s"]["p95_s"] is not None
        path = write_manifest(tmp_path / "run.json", manifest)
        loaded = load_manifest(path)
        assert loaded["command"] == "segment"
        assert loaded["config_fingerprint"] == manifest["config_fingerprint"]

    def test_git_sha_recorded_for_this_checkout(self):
        manifest = self._manifest()
        assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40

    def test_diff_flags_changed_fields_and_counters(self):
        a = {
            "command": "segment",
            "git_sha": "aaa",
            "config_fingerprint": "f1",
            "stages": [{"stage": "s", "total_s": 1.0, "p95_s": 0.5}],
            "counters": {'repro_cache_hits_total{tier="memory"}': 1},
        }
        b = {
            "command": "segment",
            "git_sha": "bbb",
            "config_fingerprint": "f1",
            "stages": [{"stage": "s", "total_s": 2.0, "p95_s": 0.7}],
            "counters": {'repro_cache_hits_total{tier="memory"}': 5},
        }
        text = diff_manifests(a, b)
        assert "! git_sha" in text
        assert "  config_fingerprint" in text
        assert 'repro_cache_hits_total{tier="memory"}' in text
        assert "+1" in text  # total_s delta

    def test_diff_identical_manifests(self):
        a = self._manifest()
        text = diff_manifests(a, a)
        assert "!" not in text.splitlines()[0]

    def test_cli_metrics_diff(self, tmp_path, capsys):
        write_manifest(tmp_path / "a.json", self._manifest())
        write_manifest(tmp_path / "b.json", self._manifest(calls=2))
        rc = cli_main(["metrics", "diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "config_fingerprint" in out


# -- CLI trace/manifest flags -------------------------------------------------


class TestCliObservability:
    def test_segment_trace_out_writes_trace_and_manifest(self, tmp_path, capsys):
        import numpy as np

        from repro.data import make_sample
        from repro.io.tiff import write_tiff

        sample = make_sample("crystalline", shape=(64, 64), n_slices=1)
        path = tmp_path / "img.tif"
        write_tiff(path, np.asarray(sample.volume.voxels[0]))
        rc = cli_main(
            [
                "segment",
                str(path),
                "catalyst particles",
                "--out",
                str(tmp_path / "m.npz"),
                "--trace-out",
                str(tmp_path / "trace.json"),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert names[0] == "repro.segment"
        assert "pipeline.segment_image" in names
        manifest = load_manifest(tmp_path / "run.json")
        assert manifest["command"] == "segment"
        assert any(s["stage"] == "dino.ground" for s in manifest["stages"])


    def test_evaluate_manifest_has_stages_and_counters(self, tmp_path, capsys):
        from repro.cache import reset_cache

        paths = []
        for name in ("a.json", "b.json"):
            reset_registry()  # each CLI process is one run
            reset_cache()
            path = tmp_path / name
            argv = ["evaluate", "--methods", "zenesis", "--size", "64", "--slices", "1"]
            assert cli_main([*argv, "--manifest-out", str(path)]) == 0
            paths.append(path)
        manifest = load_manifest(paths[0])
        assert any(s["stage"] == "dino.ground" and s["calls"] > 0 for s in manifest["stages"])
        lookups = sum(
            v for k, v in manifest["counters"].items() if k.startswith("repro_cache_ns_")
        )
        assert lookups > 0
        capsys.readouterr()
        assert cli_main(["metrics", "diff", str(paths[0]), str(paths[1])]) == 0
        out = capsys.readouterr().out
        assert "total[s] A->B" in out
        assert any(line.startswith("dino.ground") for line in out.splitlines())


# -- server endpoint ----------------------------------------------------------


class TestMetricsEndpoint:
    def test_get_metrics_serves_prometheus_text(self):
        from repro.platform.server import PlatformServer

        with PlatformServer() as server:
            urllib.request.urlopen(
                server.url + "/api", data=json.dumps({"action": "create_session"}).encode()
            ).read()
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode()
        assert "# TYPE repro_server_requests_total counter" in text
        assert 'repro_server_requests_total{action="create_session",status="200"} 1' in text
        assert "repro_server_request_seconds_bucket" in text
        # one server.request span per POST under the server's own trace
        assert [c.name for c in server.tracer.root.children] == ["server.request"]
        assert server.tracer.root.children[0].attrs["action"] == "create_session"

    def test_request_metrics_label_error_status(self):
        from repro.platform.server import PlatformServer

        with PlatformServer() as server:
            urllib.request.urlopen(
                server.url + "/api", data=json.dumps({"action": "nope"}).encode()
            ).read()
        value = get_registry().counter(
            "repro_server_requests_total", action="nope", status="error"
        ).value
        assert value == 1


#: The ``repro_stage_seconds``, ``repro_cache_*`` and ``repro_resilience_*``
#: series ``GET /metrics`` serves for the scenario in
#: :class:`TestMetricsSeries`.  Dashboards and alerts key on these names, so
#: a change may add series but drops one only together with the work it
#: counts (the cache namespaces of the SAM transformer went when the grounded
#: path stopped encoding and decoding).
METRICS_SERIES = {
    'repro_cache_bytes{tier="memory"}',
    'repro_cache_entries{tier="memory"}',
    'repro_cache_evictions_total{tier="memory"}',
    'repro_cache_hits_total{tier="memory"}',
    'repro_cache_misses_total{tier="memory"}',
    'repro_cache_ns_hits_total{namespace="dino.ground"}',
    'repro_cache_ns_hits_total{namespace="dino.image"}',
    'repro_cache_ns_hits_total{namespace="dino.text"}',
    'repro_cache_ns_hits_total{namespace="pipeline.adapt"}',
    'repro_cache_ns_hits_total{namespace="sam.analytic_box"}',
    'repro_cache_ns_hits_total{namespace="sam.image"}',
    'repro_cache_ns_misses_total{namespace="dino.ground"}',
    'repro_cache_ns_misses_total{namespace="dino.image"}',
    'repro_cache_ns_misses_total{namespace="dino.text"}',
    'repro_cache_ns_misses_total{namespace="pipeline.adapt"}',
    'repro_cache_ns_misses_total{namespace="sam.analytic_box"}',
    'repro_cache_ns_misses_total{namespace="sam.image"}',
    'repro_cache_quarantined_total{tier="memory"}',
    'repro_resilience_faults_grounding_error_total',
    'repro_resilience_server_degraded_total',
    'repro_stage_seconds{stage="adapt.denoise"}',
    'repro_stage_seconds{stage="adapt.detector_branch"}',
    'repro_stage_seconds{stage="adapt.flatfield"}',
    'repro_stage_seconds{stage="adapt.normalize"}',
    'repro_stage_seconds{stage="adapt.segmenter_branch"}',
    'repro_stage_seconds{stage="dino.ground"}',
    'repro_stage_seconds{stage="gate.relevance"}',
    'repro_stage_seconds{stage="sam.box_prompts"}',
    'repro_stage_seconds{stage="sam.set_image"}',
}


def _series_keys(text: str) -> set[str]:
    """``name{labels}`` of every sample line, histogram suffixes and ``le`` dropped."""
    keys = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key = line.rsplit(" ", 1)[0]
        if key.startswith("repro_stage_seconds"):
            key = re.sub(r"_(bucket|sum|count)(\{|$)", r"\2", key)
        keys.add(re.sub(r',?le="[^"]*"', "", key).replace("{}", ""))
    return keys


class TestMetricsSeries:
    def test_series_after_segment_with_cache_hit_and_fault(self, monkeypatch):
        from repro.data import make_sample
        from repro.platform.server import PlatformServer

        def post(url, payload):
            req = urllib.request.Request(url, data=json.dumps(payload).encode())
            with urllib.request.urlopen(req, timeout=120) as resp:
                return json.loads(resp.read())

        monkeypatch.setenv("REPRO_FAULTS", "grounding_error@times=1")
        img = make_sample("crystalline", shape=(64, 64), n_slices=1).volume.voxels[0]
        with PlatformServer() as server:
            api = server.url + "/api"
            sid = post(api, {"action": "create_session"})["session_id"]
            post(api, {"action": "load_array", "session_id": sid, "array": img.tolist()})
            request = {"action": "segment", "session_id": sid, "prompt": "catalyst particles"}
            assert post(api, request)["degraded"]  # the injected fault fired
            for _ in range(2):  # a clean run, then its cache-hit repeat
                assert "degraded" not in post(api, request)
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                text = resp.read().decode()
        served = _series_keys(text)
        assert METRICS_SERIES <= served
        assert re.search(r'repro_cache_ns_hits_total\{namespace="sam.image"\} [1-9]', text)
        # A grounded segment never touches the transformer path.
        for ns in ("sam.embedding", "sam.dense_pe", "sam.decode"):
            assert f'namespace="{ns}"' not in text, ns
        assert "repro_stage_calls_total" not in text and "repro_stage_seconds_total" not in text


# -- dashboard latency card ---------------------------------------------------


class TestDashboardLatencyCard:
    def test_latency_rows_rendered(self):
        from repro.eval.dashboard import render_dashboard

        reg = MetricsRegistry()
        for seconds in (0.05, 0.05, 0.09, 0.1):
            reg.histogram("repro_stage_seconds", stage="sam.box_prompts").observe(seconds)
        html = render_dashboard({}, metrics=reg)
        assert "Stage latency percentiles" in html
        assert "sam.box_prompts" in html
        assert "slowest stage (p95)" in html

    def test_empty_latency_rows(self):
        from repro.eval.dashboard import render_dashboard

        html = render_dashboard({}, metrics=MetricsRegistry())
        assert "no stage latencies recorded" in html
