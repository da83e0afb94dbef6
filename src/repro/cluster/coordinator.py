"""Replica supervision: spawn, probe, detect death, restart with backoff.

The coordinator owns N :class:`~repro.cluster.replica.ReplicaHandle` slots
and a supervisor thread that, every ``probe_interval_s``:

1. **detects death** by polling each child's exit code — milliseconds after
   a SIGKILL, long before any HTTP timeout fires;
2. **probes health** of live children against ``GET /ready`` — a replica
   that is draining, or whose job-runner threads died, reads not-ready and
   stops receiving traffic without being restarted;
3. **restarts the dead** under per-replica exponential backoff, gated by a
   crash-loop :class:`~repro.resilience.serving.CircuitBreaker`: every
   death records a failure, the first healthy probe of an incarnation
   records a success — so only *boot* crashes accumulate consecutive
   failures, and a replica that keeps dying before it serves is parked
   (breaker open) instead of being respawned in a hot loop.

Job continuity needs no coordinator involvement: replicas share one jobs
directory, so a dead replica's leases expire and surviving replicas'
runners reclaim the work through the ordinary scheduler tick.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from ..observability.metrics import get_registry
from ..resilience.events import record_event
from ..resilience.serving import CircuitBreaker
from .hashring import HashRing
from .replica import ReplicaHandle, read_url_file, spawn_replica
from .router import ClusterRouter

__all__ = ["ClusterCoordinator"]


class ClusterCoordinator:
    """Spawns and supervises N platform replicas behind one router."""

    def __init__(
        self,
        n_replicas: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs_dir: str | None = None,
        replica_args: dict | None = None,
        log_dir: str | Path | None = None,
        probe_interval_s: float = 0.25,
        probe_timeout_s: float = 2.0,
        boot_timeout_s: float = 20.0,
        restart_backoff_s: float = 0.25,
        max_backoff_s: float = 5.0,
        breaker_failures: int = 5,
        breaker_recovery_s: float = 10.0,
        forward_timeout_s: float = 30.0,
        vnodes: int = 64,
        env: dict | None = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self.jobs_dir = jobs_dir
        self.replica_args = dict(replica_args or {})
        self.probe_interval_s = float(probe_interval_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.boot_timeout_s = float(boot_timeout_s)
        self.restart_backoff_s = float(restart_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self._env = env
        self.log_dir = Path(log_dir) if log_dir is not None else Path(
            tempfile.mkdtemp(prefix="repro-cluster-")
        )
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.replicas = [
            ReplicaHandle(
                index=i,
                host=host,
                port=0,
                log_path=self.log_dir / f"replica-{i}.log",
                url_file=self.log_dir / f"replica-{i}.url",
            )
            for i in range(n_replicas)
        ]
        self.breakers = {
            r.index: CircuitBreaker(
                f"replica{r.index}",
                failure_threshold=breaker_failures,
                recovery_timeout_s=breaker_recovery_s,
            )
            for r in self.replicas
        }
        self.ring = HashRing([r.index for r in self.replicas], vnodes=vnodes)
        self.router = ClusterRouter(
            self.replicas,
            host=host,
            port=port,
            ring=self.ring,
            status_fn=self.status,
            forward_timeout_s=forward_timeout_s,
        )
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def url(self) -> str:
        return self.router.url

    def start(self) -> "ClusterCoordinator":
        """Boot every replica, then the router and the supervisor.

        A replica that crashes during boot (e.g. the ``replica_crash``
        fault) does not fail the cluster: it is handed to the supervisor's
        backoff/breaker machinery like any later death.
        """
        for handle in self.replicas:
            self._boot(handle)
        for handle in self.replicas:
            url = (
                read_url_file(
                    handle.url_file, timeout_s=self.boot_timeout_s, process=handle.process
                )
                if handle.process is not None
                else None
            )
            if url is None:
                self._note_death(handle)
                continue
            handle.port = int(url.rsplit(":", 1)[1])
            handle.healthy = self._probe(handle)
            if handle.healthy:
                self._note_healthy(handle)
        self.router.start()
        self._stop.clear()
        self._supervisor = threading.Thread(target=self._supervise, daemon=True)
        self._supervisor.start()
        self._publish()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5)
        for handle in self.replicas:
            if handle.running:
                handle.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10.0
        for handle in self.replicas:
            if handle.process is None:
                continue
            try:
                handle.process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except Exception:
                handle.process.kill()
                handle.process.wait(timeout=5)
            handle.healthy = False
        self.router.stop()

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- test / demo hooks -------------------------------------------------

    def kill_replica(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Hard-kill one replica (the chaos soak's weapon of choice)."""
        handle = self.replicas[index]
        if handle.running:
            handle.process.send_signal(sig)

    def wait_healthy(self, min_replicas: int = 1, timeout_s: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if sum(1 for r in self.replicas if r.healthy) >= min_replicas:
                return True
            time.sleep(0.05)
        return False

    # -- supervision -------------------------------------------------------

    def _boot(self, handle: ReplicaHandle) -> None:
        spawn_replica(
            handle, jobs_dir=self.jobs_dir, replica_args=self.replica_args, env=self._env
        )
        handle.restarts += 1 if handle.deaths else 0

    def _probe(self, handle: ReplicaHandle) -> bool:
        if handle.port == 0:
            return False
        try:
            with urllib.request.urlopen(
                handle.base_url + "/ready", timeout=self.probe_timeout_s
            ) as resp:
                return resp.status == 200
        except (urllib.error.URLError, OSError, TimeoutError):
            return False

    def _note_death(self, handle: ReplicaHandle) -> None:
        handle.healthy = False
        handle.deaths += 1
        handle.process = None
        handle.backoff_s = min(
            self.max_backoff_s, max(self.restart_backoff_s, handle.backoff_s * 2)
        )
        handle.next_restart_at = time.monotonic() + handle.backoff_s
        self.breakers[handle.index].record_failure()
        record_event("cluster.replica_deaths")
        get_registry().counter(
            "repro_cluster_replica_deaths_total", replica=str(handle.index)
        ).inc()

    def _note_healthy(self, handle: ReplicaHandle) -> None:
        if not handle.booted:
            # First healthy probe of this incarnation: the boot succeeded,
            # so the crash-loop counter resets (a later death while serving
            # starts a fresh streak).
            handle.booted = True
            handle.backoff_s = 0.0
            self.breakers[handle.index].record_success()

    def _supervise(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            for handle in self.replicas:
                with handle.lock:
                    self._tick(handle)
            self._publish()

    def _tick(self, handle: ReplicaHandle) -> None:
        if handle.process is not None and handle.process.poll() is not None:
            self._note_death(handle)
        if handle.process is None:
            if time.monotonic() < handle.next_restart_at:
                return
            if not self.breakers[handle.index].allow():
                return  # crash loop: parked until the breaker half-opens
            self._boot(handle)
            record_event("cluster.replica_restarts")
            get_registry().counter(
                "repro_cluster_replica_restarts_total", replica=str(handle.index)
            ).inc()
            return  # probe on the next tick; boot needs a moment
        if handle.port == 0:
            # First successful boot after earlier boot crashes: pick up the
            # url handshake without blocking the supervisor loop.
            url = read_url_file(handle.url_file, timeout_s=0.01, process=handle.process)
            if url is None:
                return
            handle.port = int(url.rsplit(":", 1)[1])
        was_healthy = handle.healthy
        handle.healthy = self._probe(handle)
        if handle.healthy:
            self._note_healthy(handle)
        elif was_healthy:
            record_event("cluster.replica_unready")

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        replicas = []
        for handle in self.replicas:
            entry = handle.status()
            entry["breaker"] = self.breakers[handle.index].snapshot()
            replicas.append(entry)
        return {
            "router": self.router.url,
            "n_replicas": len(self.replicas),
            "healthy": sum(1 for r in self.replicas if r.healthy),
            "jobs_dir": self.jobs_dir,
            "log_dir": str(self.log_dir),
            "replicas": replicas,
        }

    def _publish(self) -> None:
        """Publish per-replica liveness gauges on every probe tick.

        The router's ``GET /metrics`` then reflects the current cluster
        shape: ``repro_cluster_replica_up{replica}`` (1 = routing-eligible)
        plus the aggregate ``repro_cluster_replicas_healthy`` /
        ``..._configured``.  Cumulative death/restart counters are
        incremented at their event sites.
        """
        reg = get_registry()
        up = [(handle.index, 1 if handle.healthy else 0) for handle in self.replicas]
        for index, value in up:
            reg.gauge("repro_cluster_replica_up", replica=str(index)).set(value)
        reg.gauge("repro_cluster_replicas_healthy").set(sum(value for _, value in up))
        reg.gauge("repro_cluster_replicas_configured").set(len(up))
