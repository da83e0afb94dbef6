"""Cluster chaos soak + replica scaling → ``BENCH_cluster.json``.

Two experiments against a real :class:`~repro.cluster.ClusterCoordinator`
(replica subprocesses, shared jobs directory, reverse-proxy router):

**Chaos soak** — ``$REPRO_CLUSTER_SOAK_CLIENTS`` (default 16) concurrent
clients run a mixed session + background-job workload through the router
for ``$REPRO_CLUSTER_SOAK_SECONDS`` (default 18) while a killer thread
SIGKILLs a replica every ``$REPRO_CLUSTER_KILL_EVERY`` (default 4) seconds.
Pass criteria (the PR's acceptance bar):

* every client-visible response is structured: status in
  {200, 202, 429, 503, 504} — never a raw 500 and never a transport error
  that survives the client's bounded retry;
* **zero lost jobs**: every job that reached the journal ends in exactly
  one terminal state (the reclaim/ownership machinery never double-writes
  and never strands a lease);
* the cluster heals: every replica slot is healthy again after the storm.

**Scaling** — the same paced ``synthesize`` workload (``duration_s`` holds
a worker busy without burning CPU, so throughput is *capacity*-bound and
measurable on a single-core runner) is drained through 1 replica and then
4; the jobs/s ratio must be ≥ 2.5×.  The report lands in
``benchmarks/_artifacts/BENCH_cluster.json`` (commit it to the repo root
to refresh the baseline).
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster import ClusterCoordinator
from repro.jobs import CANCELLED, FAILED, SUCCEEDED, JobStore

SOAK_SECONDS = float(os.environ.get("REPRO_CLUSTER_SOAK_SECONDS", "18"))
N_CLIENTS = int(os.environ.get("REPRO_CLUSTER_SOAK_CLIENTS", "16"))
N_REPLICAS = int(os.environ.get("REPRO_CLUSTER_SOAK_REPLICAS", "3"))
KILL_EVERY_S = float(os.environ.get("REPRO_CLUSTER_KILL_EVERY", "4"))
BENCH_BACKLOG = int(os.environ.get("REPRO_CLUSTER_BENCH_BACKLOG", "36"))
BENCH_JOB_S = 0.4  # paced length of one bench job (worker occupancy)

TERMINAL = (SUCCEEDED, FAILED, CANCELLED)
OK_CODES = {200, 202, 429, 503, 504}


def _env() -> dict:
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env.pop("REPRO_FAULTS", None)  # the chaos here is real SIGKILLs
    return env


def _post_once(url: str, payload: dict, timeout: float = 60.0) -> tuple[int, dict]:
    req = urllib.request.Request(
        url + "/api",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def _post(url: str, payload: dict, *, retries: int = 3) -> tuple[int, dict]:
    """POST with a bounded transport-level retry.

    The router owns *replica* failures; this loop only covers the client →
    router hop (e.g. a connect raced with nothing — the router never
    restarts mid-soak).  A transport error that survives ``retries``
    attempts surfaces as code 0, which the soak counts as a hard failure.
    """
    last = ""
    for attempt in range(1 + retries):
        try:
            return _post_once(url, payload)
        except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
            last = repr(exc)
            time.sleep(0.1 * (attempt + 1))
    return 0, {"transport_error": last}


def _all_terminal(store: JobStore) -> tuple[bool, dict]:
    store.refresh()
    states = Counter(rec.state for rec in store.list_jobs())
    done = bool(states) and all(state in TERMINAL for state in states)
    return done, dict(states)


def _wait_jobs_terminal(jobs_dir: Path, timeout_s: float) -> dict:
    store = JobStore(jobs_dir)
    deadline = time.monotonic() + timeout_s
    states: dict = {}
    while time.monotonic() < deadline:
        done, states = _all_terminal(store)
        if done:
            return states
        time.sleep(0.25)
    return states


def test_cluster_chaos_soak(tmp_path, artifact_dir):
    jobs_dir = tmp_path / "jobs"
    coord = ClusterCoordinator(
        N_REPLICAS,
        jobs_dir=str(jobs_dir),
        replica_args={
            "job_workers": 1,
            "job_lease_ttl": 2.0,
            "drain_timeout": 2.0,
            "max_inflight": max(8, N_CLIENTS),
        },
        log_dir=tmp_path / "cluster-logs",
        probe_interval_s=0.1,
        restart_backoff_s=0.2,
        boot_timeout_s=60.0,
        env=_env(),
    )
    coord.start()
    assert coord.wait_healthy(N_REPLICAS, timeout_s=60), coord.status()

    stop_at = time.monotonic() + SOAK_SECONDS
    codes: Counter[int] = Counter()
    actions: Counter[str] = Counter()
    failures: list[str] = []
    kills: list[int] = []
    lock = threading.Lock()

    def record(action: str, code: int, body: dict) -> None:
        with lock:
            codes[code] += 1
            actions[action] += 1
            if code not in OK_CODES:
                failures.append(f"{action} -> {code}: {json.dumps(body)[:200]}")

    def killer() -> None:
        rng = np.random.default_rng(1337)
        while time.monotonic() < stop_at:
            time.sleep(KILL_EVERY_S)
            if time.monotonic() >= stop_at:
                return
            running = [h.index for h in coord.replicas if h.running]
            if len(running) < 2:
                continue  # leave at least one replica standing
            victim = int(rng.choice(running))
            coord.kill_replica(victim)
            with lock:
                kills.append(victim)

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        sid: str | None = None
        pending: str | None = None  # at most one outstanding job per client,
        # so total submissions track drain capacity instead of flooding the
        # queue faster than the storm-thinned runners can empty it
        while time.monotonic() < stop_at:
            roll = float(rng.random())
            if roll < 0.55:
                if sid is None:
                    code, body = _post(coord.url, {"action": "create_session"})
                    record("create_session", code, body)
                    if code == 200 and body.get("ok", True):
                        sid = body.get("session_id")
                else:
                    code, body = _post(
                        coord.url, {"action": "preview", "session_id": sid}
                    )
                    record("preview", code, body)
                    if body.get("error") == "unknown_session":
                        sid = None  # evicted by a failover: start over
            elif roll < 0.90:
                if pending is not None:
                    code, body = _post(
                        coord.url, {"action": "job_status", "job_id": pending}
                    )
                    record("job_status", code, body)
                    if (body.get("job") or {}).get("state") in TERMINAL:
                        pending = None
                else:
                    code, body = _post(
                        coord.url,
                        {
                            "action": "job_submit",
                            "kind": "synthesize",
                            "params": {
                                "size": 32,
                                "n_slices": 1,
                                "seed": int(rng.integers(0, 2**31)),
                                "duration_s": 0.3,
                            },
                        },
                    )
                    record("job_submit", code, body)
                    if code == 202:
                        pending = body.get("job_id")
            elif sid is not None:
                code, body = _post(
                    coord.url, {"action": "drop_session", "session_id": sid}
                )
                record("drop_session", code, body)
                sid = None
            time.sleep(float(rng.uniform(0.01, 0.05)))

    threads = [
        threading.Thread(target=client, args=(seed,), name=f"soak-{seed}")
        for seed in range(N_CLIENTS)
    ]
    reaper = threading.Thread(target=killer, name="soak-killer")
    for t in threads:
        t.start()
    reaper.start()
    for t in threads:
        t.join(timeout=SOAK_SECONDS + 120)
        assert not t.is_alive(), "client thread deadlocked"
    reaper.join(timeout=KILL_EVERY_S + 10)

    # The storm is over: the cluster must heal and drain every journaled
    # job to a terminal state via lease reclaim on the survivors.
    assert coord.wait_healthy(N_REPLICAS, timeout_s=60), coord.status()
    states = _wait_jobs_terminal(jobs_dir, timeout_s=90.0)

    status = coord.status()
    coord.stop()

    # Exactly-once: one terminal state event per job, ever.
    store = JobStore(jobs_dir)
    job_ids = [rec.job_id for rec in store.list_jobs()]
    multi_terminal = []
    for job_id in job_ids:
        events, _, _ = store.events_after(job_id)
        terminal = [e for e in events if e.get("state") in TERMINAL]
        if len(terminal) != 1:
            multi_terminal.append((job_id, terminal))

    elapsed = SOAK_SECONDS
    summary = {
        "schema": 1,
        "soak_seconds": SOAK_SECONDS,
        "clients": N_CLIENTS,
        "replicas": N_REPLICAS,
        "kills": kills,
        "codes": {str(k): v for k, v in sorted(codes.items())},
        "actions": dict(actions),
        "jobs_journaled": len(job_ids),
        "job_states": states,
        "requests_per_s": round(sum(codes.values()) / max(elapsed, 1e-9), 2),
        "replica_deaths": {
            str(r["index"]): r["deaths"] for r in status["replicas"]
        },
        "replica_restarts": {
            str(r["index"]): r["restarts"] for r in status["replicas"]
        },
        "failures": failures[:20],
    }
    (artifact_dir / "cluster_soak.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n"
    )
    print(f"\ncluster soak → {json.dumps(summary['codes'])}, kills={kills}")

    assert not failures, failures[:5]
    assert kills, "the killer thread never fired; raise REPRO_CLUSTER_SOAK_SECONDS"
    assert job_ids, "no job ever reached the journal"
    lost = {s: n for s, n in states.items() if s not in TERMINAL}
    assert not lost, f"jobs stuck non-terminal after the drain window: {lost}"
    assert not multi_terminal, f"double-terminal jobs: {multi_terminal[:3]}"


def _drain_backlog(n_replicas: int, jobs_dir: Path, log_dir: Path) -> dict:
    """Submit BENCH_BACKLOG paced jobs through the router; time the drain."""
    coord = ClusterCoordinator(
        n_replicas,
        jobs_dir=str(jobs_dir),
        replica_args={"job_workers": 2, "job_lease_ttl": 6.0, "drain_timeout": 2.0},
        log_dir=log_dir,
        probe_interval_s=0.2,
        boot_timeout_s=60.0,
        env=_env(),
    )
    coord.start()
    try:
        assert coord.wait_healthy(n_replicas, timeout_s=60), coord.status()
        t0 = time.monotonic()
        for i in range(BENCH_BACKLOG):
            code, body = _post(
                coord.url,
                {
                    "action": "job_submit",
                    "kind": "synthesize",
                    "params": {
                        "size": 32,
                        "n_slices": 1,
                        "seed": i,
                        "duration_s": BENCH_JOB_S,
                    },
                },
            )
            assert code == 202, (code, body)
        states = _wait_jobs_terminal(jobs_dir, timeout_s=180.0)
        elapsed = time.monotonic() - t0
    finally:
        coord.stop()
    assert states.get(SUCCEEDED, 0) == BENCH_BACKLOG, states
    return {
        "replicas": n_replicas,
        "jobs": BENCH_BACKLOG,
        "job_duration_s": BENCH_JOB_S,
        "elapsed_s": round(elapsed, 3),
        "jobs_per_s": round(BENCH_BACKLOG / elapsed, 3),
    }


def test_cluster_scaling_bench(tmp_path, artifact_dir):
    """1 → 4 replica throughput on a capacity-bound backlog (≥ 2.5×)."""
    single = _drain_backlog(1, tmp_path / "jobs1", tmp_path / "logs1")
    quad = _drain_backlog(4, tmp_path / "jobs4", tmp_path / "logs4")
    ratio = quad["jobs_per_s"] / single["jobs_per_s"]
    report = {
        "schema": 1,
        "workload": {
            "backlog": BENCH_BACKLOG,
            "job_duration_s": BENCH_JOB_S,
            "job_workers_per_replica": 2,
            "kind": "synthesize (duration_s-paced: capacity-bound, not CPU-bound)",
        },
        "results": {"1_replica": single, "4_replicas": quad},
        "speedup_4x_vs_1x": round(ratio, 2),
    }
    bench_path = artifact_dir / "BENCH_cluster.json"
    bench_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(
        f"\nBENCH_cluster.json → {bench_path}\n"
        f"  1 replica : {single['jobs_per_s']:.2f} jobs/s ({single['elapsed_s']:.1f}s)\n"
        f"  4 replicas: {quad['jobs_per_s']:.2f} jobs/s ({quad['elapsed_s']:.1f}s)\n"
        f"  speedup   : {ratio:.2f}x"
    )
    assert ratio >= 2.5, report
