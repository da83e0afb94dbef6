"""A stdlib HTTP server exposing the JSON API (the web app's backend).

``POST /api`` with a JSON body → JSON response from :class:`ApiHandler`.
``GET /`` serves a minimal landing page; ``GET /health`` a liveness probe;
``GET /ready`` a readiness probe (503 until the serving thread is up, while
draining, and after shutdown — the signal a load balancer drains on).
Built on :mod:`http.server` (offline environment: no web frameworks),
matching the single-GPU inference server the paper deploys.

Overload contract (DESIGN.md §"Serving failure model"):

* **admission** — at most ``max_inflight`` ``/api`` requests execute at
  once; up to ``max_queue`` more wait briefly; the rest are shed with
  **429** + ``Retry-After`` (``repro_server_shed_total``).
* **deadlines** — a request whose per-request deadline expires returns a
  structured **504**; the session it targeted is unchanged.
* **drain** — ``stop()`` flips ``/ready`` to 503, rejects new work with
  503, waits up to ``drain_timeout_s`` for in-flight requests, then aborts
  stragglers and shuts the listener down.

Failure contract: handler-level errors (unknown actions, bad params)
arrive as ``{"ok": false, ...}`` JSON with HTTP 200 from
:class:`ApiHandler`; an exception *escaping* the handler is a server bug
and returns HTTP 500 with a structured body instead of a raw traceback on
a 200.  Bodies over ``max_body_bytes`` are rejected with 413 before any
parsing work.  A client that disconnects mid-write is counted
(``repro_server_client_disconnect_total``) and never surfaces as a 500.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..cache import export_cache_metrics
from ..observability.metrics import get_registry
from ..observability.trace import Tracer
from ..resilience.events import record_event
from ..resilience.serving import AdmissionGate, ServerLifecycle
from .api import ApiHandler
from .session import SessionStore

__all__ = ["make_server", "PlatformServer"]

#: Default request-body cap: generous for base64 volume uploads, small
#: enough that one bad client cannot balloon resident memory.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

_LANDING = b"""<!DOCTYPE html><html><head><title>Zenesis (repro)</title></head>
<body><h1>Zenesis reproduction platform</h1>
<p>POST JSON to <code>/api</code>: {"action": "create_session"} to begin.</p>
</body></html>"""


class _PlatformHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a backlog sized for bursty clients.

    The stdlib default accept backlog of 5 drops (or resets) connections
    when more clients connect simultaneously than the listener can accept;
    overload belongs to the admission gate (a structured 429), not to the
    kernel's SYN queue.

    ``allow_reuse_address`` is inherited True from HTTPServer but pinned
    here explicitly: a killed replica's restart must rebind its port while
    the old sockets sit in TIME_WAIT, and the cluster coordinator depends
    on that rebind being immediate.
    """

    request_queue_size = 128
    daemon_threads = True
    allow_reuse_address = True

#: Response types that map to a non-200 HTTP status (structured bodies
#: either way; these are the ones load balancers key retry policy on).
_STATUS_BY_TYPE = {"DeadlineExceededError": 504}


def _make_handler(
    api: ApiHandler,
    state: dict,
    max_body_bytes: int,
    tracer: Tracer,
    gate: AdmissionGate,
    lifecycle: ServerLifecycle,
    health=None,
):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _send(
            self, code: int, body: bytes, content_type: str, headers: dict | None = None
        ) -> None:
            # The client may vanish at any point of the write; that is its
            # prerogative, not a server error — count it and move on.
            try:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                record_event("server.client_disconnect")
                get_registry().counter("repro_server_client_disconnect_total").inc()

        def _send_json(self, code: int, payload: dict, headers: dict | None = None) -> None:
            self._send(code, json.dumps(payload).encode(), "application/json", headers)

        def do_GET(self):
            if self.path == "/health":
                self._send(200, b'{"status": "ok"}', "application/json")
            elif self.path == "/ready":
                # Readiness is richer than liveness: a draining server or
                # one whose job-runner threads died must read not-ready so
                # a router never hands work to a zombie replica.
                if health is not None:
                    ready, detail = health()
                else:
                    ready, detail = bool(state.get("ready")) and not lifecycle.draining, {}
                self._send_json(200 if ready else 503, {"ready": ready, **detail})
            elif self.path == "/metrics":
                # Prometheus text exposition; the cache keeps its own stats,
                # so publish them first and a scrape is never stale.
                export_cache_metrics()
                self._send(
                    200,
                    get_registry().render_prometheus().encode(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif self.path == "/":
                self._send(200, _LANDING, "text/html")
            else:
                self._send(404, b'{"error": "not found"}', "application/json")

        def do_POST(self):
            if self.path != "/api":
                self._send(404, b'{"error": "not found"}', "application/json")
                return
            if lifecycle.draining or not state.get("ready"):
                record_event("server.rejected_draining")
                self._send_json(
                    503,
                    {"ok": False, "error": "server is draining"},
                    {"Retry-After": "1"},
                )
                return
            if not gate.try_acquire():
                self._send_json(
                    429,
                    {
                        "ok": False,
                        "error": f"server at capacity ({gate.max_inflight} in flight); "
                        "retry later",
                    },
                    {"Retry-After": f"{gate.retry_after_s():.0f}"},
                )
                return
            try:
                with lifecycle.track():
                    self._handle_api()
            finally:
                gate.release()

        def _handle_api(self) -> None:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                self._send_json(400, {"ok": False, "error": "bad Content-Length"})
                return
            if length > max_body_bytes:
                record_event("server.rejected_oversize")
                self._send_json(
                    413,
                    {
                        "ok": False,
                        "error": f"request body of {length} bytes exceeds the "
                        f"{max_body_bytes}-byte limit",
                    },
                )
                return
            try:
                request = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, json.JSONDecodeError) as exc:
                self._send_json(400, {"ok": False, "error": f"bad JSON: {exc}"})
                return
            # One span per request under the server's own trace (the stack
            # is thread-local, so concurrent requests nest correctly), plus
            # a request-latency histogram for GET /metrics.
            action = str(request.get("action"))
            registry = get_registry()
            span = tracer.begin("server.request", action=action)
            t0 = time.perf_counter()
            try:
                response = api.handle(request)
            except Exception as exc:  # escaped handler exception: a 500, not a 200
                record_event("server.handler_errors")
                registry.counter("repro_server_requests_total", action=action, status="500").inc()
                tracer.finish(span, error=exc)
                self._send_json(
                    500, {"ok": False, "error": str(exc), "type": type(exc).__name__}
                )
                return
            registry.histogram("repro_server_request_seconds", action=action).observe(
                time.perf_counter() - t0
            )
            code = 200
            status = "200"
            if not response.get("ok", True):
                code = _STATUS_BY_TYPE.get(response.get("type"), 200)
                status = str(code) if code != 200 else "error"
            elif response.get("accepted"):
                # A job submission (or an auto-redirected segment_volume):
                # the work continues in the background — 202, not 200.
                code = 202
                status = "202"
            registry.counter("repro_server_requests_total", action=action, status=status).inc()
            span.set(status=status)
            tracer.finish(span)
            self._send_json(code, response)

    return Handler


class PlatformServer:
    """Owns the HTTP server thread; use as a context manager in tests.

    When ``api`` is not supplied, the server builds its own
    :class:`ApiHandler` over a :class:`SessionStore` configured with the
    given ``max_sessions`` / ``session_ttl_s``, and enforces
    ``request_deadline_s`` per ``/api`` action.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        api: ApiHandler | None = None,
        *,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_inflight: int = 8,
        max_queue: int = 16,
        queue_timeout_s: float = 0.5,
        drain_timeout_s: float = 5.0,
        request_deadline_s: float | None = None,
        max_sessions: int = 64,
        session_ttl_s: float | None = None,
        jobs_dir: str | None = None,
        job_workers: int = 1,
        job_lease_ttl_s: float = 30.0,
        auto_job_slices: int | None = None,
    ) -> None:
        #: The server's own trace: one ``server.request`` span per POST,
        #: with background-job span trees adopted as they finish.
        self.tracer = Tracer("server")
        self.jobs = None
        if jobs_dir is not None:
            from ..jobs import JobService

            self.jobs = JobService(
                jobs_dir,
                n_workers=job_workers,
                lease_ttl_s=job_lease_ttl_s,
                tracer=self.tracer,
            )
        if api is None:
            api = ApiHandler(
                SessionStore(max_sessions=max_sessions, ttl_s=session_ttl_s),
                request_deadline_s=request_deadline_s,
                jobs=self.jobs,
                auto_job_slices=auto_job_slices,
            )
        elif self.jobs is not None and getattr(api, "jobs", None) is None:
            api.jobs = self.jobs
            if auto_job_slices is not None:
                api.auto_job_slices = auto_job_slices
        self.api = api
        self.gate = AdmissionGate(
            max_inflight, max_queue=max_queue, queue_timeout_s=queue_timeout_s
        )
        self.lifecycle = ServerLifecycle()
        self.drain_timeout_s = float(drain_timeout_s)
        self._state: dict = {"ready": False}
        self.httpd = _PlatformHTTPServer(
            (host, port),
            _make_handler(
                self.api,
                self._state,
                max_body_bytes,
                self.tracer,
                self.gate,
                self.lifecycle,
                health=self._health,
            ),
        )
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def ready(self) -> bool:
        return self._health()[0]

    def _health(self) -> tuple[bool, dict]:
        """Full readiness verdict: serving state, drain state, runner liveness.

        ``GET /ready`` reports all three so a router (or an operator) can
        tell *why* a replica left rotation; dead job-runner threads make
        the replica not-ready even though its HTTP side still answers.
        """
        draining = self.lifecycle.draining
        runner_alive = self.jobs is None or self.jobs.runner.healthy
        ready = bool(self._state["ready"]) and not draining and runner_alive
        detail = {"draining": draining}
        if self.jobs is not None:
            detail["job_runner_alive"] = runner_alive
        return ready, detail

    def start(self) -> "PlatformServer":
        self.lifecycle.reset()
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self._thread.start()
        if self.jobs is not None:
            self.jobs.start()
        self._state["ready"] = True
        return self

    def stop(self) -> None:
        """Graceful drain, then shutdown — listener first, drain second.

        Readiness flips to 503 (a load balancer stops routing), then the
        *listening socket closes immediately* so the port is free for a
        restarting replica before the drain window even starts; in-flight
        requests are unaffected (they run on accepted connections, and the
        threading server never joins its daemon handler threads).  They get
        up to ``drain_timeout_s`` to finish; stragglers past the window are
        abandoned and counted in ``repro_server_drain_aborted_total``.
        """
        self._state["ready"] = False
        self.lifecycle.begin_drain()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.lifecycle.wait_idle(self.drain_timeout_s)
        if self.jobs is not None:
            # Stop leasing new jobs; a job still running past the window is
            # abandoned and reclaimed via lease expiry on the next start.
            self.jobs.stop(timeout_s=self.drain_timeout_s)
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "PlatformServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def make_server(host: str = "127.0.0.1", port: int = 8765, **kwargs) -> PlatformServer:
    """Convenience constructor used by the run-server example."""
    return PlatformServer(host=host, port=port, **kwargs)
