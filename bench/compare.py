"""Series of runs, their spread, and the verdict of one series against another.

``series`` runs ``python -m bench run`` once per (workload, seed) in a fresh
interpreter and writes every result to a JSON list.  ``compare`` judges a
change's series (B) against its parent's (A), per end-to-end metric and
workload, with the bounds of ``BENCHMARK.json``:

* **improved** — B beats A on at least nine tenths of the seed-matched
  pairs (ties count for neither) and the medians differ by more than A's
  interquartile range;
* **regressed** — B's median is worse than A's by more than the bound;
* **unresolved** — A's own spread (interquartile range over median) is
  wider than the bound, so "no worse by more than the bound" cannot be
  shown, and not every run of B reads better than every run of A;
* **unchanged** — none of the above.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from . import ROOT, spec


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _by_workload(runs: list[dict]) -> dict[str, list[tuple[int, dict]]]:
    """Correct runs as ``workload → [(seed, {metric: value})]``, in run order."""
    out: dict[str, list[tuple[int, dict]]] = {}
    for run in runs:
        if run.get("result") and run["result"].get("correct"):
            metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            out.setdefault(run["workload"], []).append((run["seed"], metrics))
    return out


def series(args) -> int:
    runs = []
    for workload in args.workload.split(","):
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "-m", "bench", "run", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            runs.append({"workload": workload, "seed": seed, "returncode": proc.returncode,
                         "elapsed_s": elapsed, "result": result})
            print(f"{workload} seed {seed}: exit {proc.returncode} in {elapsed:.1f} s"
                  + ("" if result else f"\n{proc.stderr[-2000:]}"), flush=True)
    with open(args.out, "w") as fh:
        json.dump(runs, fh, indent=1)
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    print(f"{'workload':18s} {'metric':30s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, seeded in _by_workload(runs).items():
        for name in seeded[0][1]:
            values = [m[name] for _, m in seeded]
            q1, med, q3 = quartiles(values)
            bound = bounds.get(name)
            flag = "" if bound is None or spread(values) < bound / 3 else "  <- wider than bound/3"
            print(f"{workload:18s} {name:30s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread(values):7.4f} {bound if bound is not None else '':>6}{flag}")
    failed = sum(1 for r in runs if not (r["result"] and r["result"]["correct"]))
    print(f"{len(runs)} runs, {failed} failed or incorrect")
    return 0 if failed == 0 else 1


def verdict(a: dict[int, float], b: dict[int, float], bound: float, higher: bool) -> str:
    """One metric on one workload; ``a``/``b`` map seed → value."""
    sign = 1.0 if higher else -1.0
    qa1, med_a, qa3 = quartiles(list(a.values()))
    med_b = statistics.median(b.values())
    pairs = [(a[s], b[s]) for s in a if s in b and a[s] != b[s]]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (med_b - med_a)
    if pairs and wins >= 0.9 * len([s for s in a if s in b]) and gain > qa3 - qa1:
        return "improved"
    if spread(list(a.values())) > bound:
        all_better = min(sign * v for v in b.values()) > max(sign * v for v in a.values())
        return "unchanged" if all_better else "unresolved"
    if -gain > bound * abs(med_a):
        return "regressed"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        runs_a = _by_workload(json.load(fh))
    with open(path_b) as fh:
        runs_b = _by_workload(json.load(fh))
    regressed = 0
    print(f"{'workload':18s} {'metric':16s} {'A median [Q1, Q3]':>34s} {'B median [Q1, Q3]':>34s}  verdict")
    for workload in sorted(set(runs_a) | set(runs_b)):
        for m in spec()["end_to_end"]:
            name = m["name"]
            a = {s: v[name] for s, v in runs_a.get(workload, [])}
            b = {s: v[name] for s, v in runs_b.get(workload, [])}
            if not a or not b:
                print(f"{workload:18s} {name:16s} missing runs on one side: unresolved")
                continue
            result = verdict(a, b, m["bound"], m["better"] == "higher")
            regressed += result == "regressed"
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            print(f"{workload:18s} {name:16s} "
                  f"{qa[1]:12.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                  f"{qb[1]:12.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}]  {result}")
    return 1 if regressed else 0
