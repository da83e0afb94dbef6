"""The cluster's front door: a stdlib reverse proxy with session affinity.

Routing: every ``POST /api`` request is keyed (session id, else job id,
else a random spread key) onto the consistent-hash ring and forwarded to
the first *healthy* replica in the key's clockwise preference order — so a
session sticks to one replica while it lives, and moves (with an
``evicted: replica_failover`` marker on the unknown-session response) only
when that replica dies.

``create_session`` is special: the router *generates* the session id and
injects it into the forwarded request, so the id's hash owner is the
replica that actually holds the session — without this, affinity would be
hashing ids minted by whichever replica round-robin happened to hit.

Retry semantics are classified by what the failure proves:

* **refused** (connection refused — the request never reached a replica):
  safe to reroute *any* action to the next replica in preference order;
* **midstream** (reset / truncated response — the request may have
  executed): only actions in :data:`IDEMPOTENT_ACTIONS` are rerouted;
  anything else returns a structured 503 with ``outcome: "unknown"``;
* **timeout**: never retried (it may still be executing) — a structured
  504, the ``proxy_timeout`` fault kind's hook site.

When no replica is healthy the router sheds with 503 + ``Retry-After``
instead of queueing: the coordinator is already restarting replicas, and a
bounded client retry beats an unbounded server queue.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence

from ..cache import export_cache_metrics
from ..observability.metrics import get_registry
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from .hashring import HashRing
from .replica import ReplicaHandle

__all__ = ["ClusterRouter", "IDEMPOTENT_ACTIONS"]

#: Actions safe to re-send after a *midstream* failure: re-executing them
#: cannot double-apply work (create is idempotent because the router pins
#: the session id; drop/status/result/events are naturally so).  Notably
#: absent: ``job_submit`` / ``segment_volume`` — a resend could enqueue the
#: work twice.
IDEMPOTENT_ACTIONS = frozenset(
    {
        "create_session",
        "drop_session",
        "preview",
        "job_status",
        "job_result",
        "job_events",
        "dashboard",
    }
)

_LANDING = b"""<!DOCTYPE html><html><head><title>Zenesis cluster (repro)</title></head>
<body><h1>Zenesis reproduction platform &mdash; cluster router</h1>
<p>POST JSON to <code>/api</code>; <code>GET /cluster/status</code> for replica state.</p>
</body></html>"""


class _RouterHTTPServer(ThreadingHTTPServer):
    request_queue_size = 128
    daemon_threads = True
    allow_reuse_address = True


def _classify(exc: BaseException) -> str:
    """What a forward failure proves: 'refused' | 'timeout' | 'midstream'."""
    base = exc.reason if isinstance(exc, urllib.error.URLError) else exc
    if isinstance(base, (TimeoutError, socket.timeout)):
        return "timeout"
    if isinstance(base, ConnectionRefusedError):
        return "refused"
    if isinstance(base, OSError) and base.errno in (
        errno.ECONNREFUSED,
        errno.ENETUNREACH,
        errno.EHOSTUNREACH,
    ):
        return "refused"
    return "midstream"


class ClusterRouter:
    """Reverse proxy over replica handles; health state is shared with the
    coordinator (its probes flip ``handle.healthy``)."""

    def __init__(
        self,
        replicas: Sequence[ReplicaHandle],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ring: HashRing | None = None,
        status_fn: Callable[[], dict] | None = None,
        max_body_bytes: int = 64 * 1024 * 1024,
        forward_timeout_s: float = 30.0,
        max_forwards: int = 3,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.replicas = list(replicas)
        self.ring = ring or HashRing([r.index for r in self.replicas])
        self.status_fn = status_fn
        self.max_body_bytes = int(max_body_bytes)
        self.forward_timeout_s = float(forward_timeout_s)
        self.max_forwards = max(1, int(max_forwards))
        self.retry_backoff_s = float(retry_backoff_s)
        self._by_index = {r.index: r for r in self.replicas}
        self.httpd = _RouterHTTPServer((host, port), self._make_handler())
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ClusterRouter":
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    # -- routing ----------------------------------------------------------

    def healthy_replicas(self) -> list[ReplicaHandle]:
        return [r for r in self.replicas if r.healthy]

    def route(self, key: str) -> ReplicaHandle | None:
        idx = self.ring.node_for(key, alive={r.index for r in self.healthy_replicas()})
        return None if idx is None else self._by_index[idx]

    def _candidates(self, key: str) -> list[ReplicaHandle]:
        """Healthy replicas in the key's failover order (affine owner first)."""
        return [
            self._by_index[idx]
            for idx in self.ring.preference(key)
            if self._by_index[idx].healthy
        ]

    def _forward(self, replica: ReplicaHandle, body: bytes) -> tuple[int, bytes, dict]:
        if get_fault_plan().should_fire("proxy_timeout", replica=replica.index):
            raise TimeoutError(f"injected proxy_timeout fault (replica {replica.index})")
        req = urllib.request.Request(
            replica.base_url + "/api",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.forward_timeout_s) as resp:
                headers = {}
                if resp.headers.get("Retry-After"):
                    headers["Retry-After"] = resp.headers["Retry-After"]
                return resp.status, resp.read(), headers
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            headers = {}
            if exc.headers.get("Retry-After"):
                headers["Retry-After"] = exc.headers["Retry-After"]
            return exc.code, payload, headers

    def _handle_api(self, handler: "BaseHTTPRequestHandler", request: dict) -> None:
        registry = get_registry()
        action = str(request.get("action"))
        if action == "create_session" and "session_id" not in request:
            # Mint the id here so its hash owner is the replica that will
            # hold the session (see module docstring).
            request["session_id"] = f"cs-{os.urandom(6).hex()}"
        key = str(
            request.get("session_id") or request.get("job_id") or os.urandom(6).hex()
        )
        body = json.dumps(request).encode()
        affine = self.ring.node_for(key)  # over ALL nodes: who *should* own it
        tried: set[int] = set()
        forwards = 0
        while forwards < self.max_forwards:
            candidates = [r for r in self._candidates(key) if r.index not in tried]
            if not candidates:
                break
            replica = candidates[0]
            tried.add(replica.index)
            forwards += 1
            if replica.index != affine:
                record_event("cluster.failover")
                registry.counter("repro_cluster_failover_total").inc()
            try:
                code, payload, headers = self._forward(replica, body)
            except Exception as exc:
                kind = _classify(exc)
                registry.counter("repro_cluster_forward_errors_total", reason=kind).inc()
                if kind == "timeout":
                    record_event("cluster.proxy_timeout")
                    _send_json(
                        handler,
                        504,
                        {
                            "ok": False,
                            "type": "ProxyTimeout",
                            "error": f"replica {replica.index} did not answer within "
                            f"{self.forward_timeout_s:.0f}s; the request may still be executing",
                            "replica": replica.index,
                        },
                    )
                    return
                if kind == "refused":
                    # Unsent: the replica is gone — flag it for the router
                    # (the coordinator's probe will confirm) and reroute
                    # anything, idempotent or not.
                    replica.healthy = False
                    record_event("cluster.refused")
                    time.sleep(self.retry_backoff_s * forwards)
                    continue
                # Midstream: the request MAY have executed on the replica.
                if action in IDEMPOTENT_ACTIONS:
                    record_event("cluster.retries")
                    registry.counter("repro_cluster_retries_total").inc()
                    time.sleep(self.retry_backoff_s * forwards)
                    continue
                _send_json(
                    handler,
                    503,
                    {
                        "ok": False,
                        "type": "ReplicaError",
                        "error": f"connection to replica {replica.index} lost mid-request; "
                        f"{action!r} is not idempotent so it was not retried",
                        "outcome": "unknown",
                    },
                    {"Retry-After": "1"},
                )
                return
            payload = self._annotate_failover(payload, replica, affine)
            registry.counter(
                "repro_cluster_requests_total", replica=str(replica.index), status=str(code)
            ).inc()
            headers["X-Repro-Replica"] = str(replica.index)
            _send(handler, code, payload, "application/json", headers)
            return
        record_event("cluster.shed")
        registry.counter("repro_cluster_shed_total").inc()
        _send_json(
            handler,
            503,
            {
                "ok": False,
                "type": "ClusterUnavailable",
                "error": "no healthy replica available; the coordinator is restarting",
            },
            {"Retry-After": "1"},
        )

    def _annotate_failover(
        self, payload: bytes, replica: ReplicaHandle, affine: int | None
    ) -> bytes:
        """Mark unknown-session errors answered by a non-affine replica.

        The session lived on the (now dead/unhealthy) hash owner; the
        replica that answered has never seen it, so its bare
        ``unknown_session`` gets the PR-4-style eviction hint.
        """
        if replica.index == affine:
            return payload
        try:
            doc = json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            return payload
        if (
            isinstance(doc, dict)
            and doc.get("error") == "unknown_session"
            and "evicted" not in doc
        ):
            doc["evicted"] = "replica_failover"
            record_event("cluster.session_failover")
            get_registry().counter("repro_cluster_session_failover_total").inc()
            return json.dumps(doc).encode()
        return payload

    # -- the HTTP shell ---------------------------------------------------

    def _make_handler(self):
        router = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_GET(self):
                if self.path == "/health":
                    _send(self, 200, b'{"status": "ok"}', "application/json")
                elif self.path == "/ready":
                    n = len(router.healthy_replicas())
                    code = 200 if n else 503
                    _send_json(self, code, {"ready": bool(n), "healthy_replicas": n})
                elif self.path == "/metrics":
                    export_cache_metrics()
                    _send(
                        self,
                        200,
                        get_registry().render_prometheus().encode(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                elif self.path == "/cluster/status":
                    status = (
                        router.status_fn()
                        if router.status_fn is not None
                        else {"replicas": [r.status() for r in router.replicas]}
                    )
                    _send_json(self, 200, status)
                elif self.path == "/":
                    _send(self, 200, _LANDING, "text/html")
                else:
                    _send(self, 404, b'{"error": "not found"}', "application/json")

            def do_POST(self):
                if self.path != "/api":
                    _send(self, 404, b'{"error": "not found"}', "application/json")
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                except ValueError:
                    _send_json(self, 400, {"ok": False, "error": "bad Content-Length"})
                    return
                if length > router.max_body_bytes:
                    _send_json(
                        self,
                        413,
                        {
                            "ok": False,
                            "error": f"request body of {length} bytes exceeds the "
                            f"{router.max_body_bytes}-byte limit",
                        },
                    )
                    return
                try:
                    request = json.loads(self.rfile.read(length) or b"{}")
                except (ValueError, json.JSONDecodeError) as exc:
                    _send_json(self, 400, {"ok": False, "error": f"bad JSON: {exc}"})
                    return
                if not isinstance(request, dict):
                    _send_json(self, 400, {"ok": False, "error": "request must be a JSON object"})
                    return
                router._handle_api(self, request)

        return Handler


def _send(
    handler: BaseHTTPRequestHandler,
    code: int,
    body: bytes,
    content_type: str,
    headers: dict | None = None,
) -> None:
    try:
        handler.send_response(code)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(body)
    except (BrokenPipeError, ConnectionResetError):
        record_event("server.client_disconnect")
        get_registry().counter("repro_server_client_disconnect_total").inc()


def _send_json(
    handler: BaseHTTPRequestHandler, code: int, payload: dict, headers: dict | None = None
) -> None:
    _send(handler, code, json.dumps(payload).encode(), "application/json", headers)
