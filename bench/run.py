"""One benchmark run: one workload, one seed, one fresh interpreter.

Order of events, and which clock each part lands on:

1. ``bench/__main__.py`` starts the set-up clock on its first line, before
   ``repro`` is imported.
2. The inputs are generated (load-generator work, excluded from set-up).
3. The workload's system is built and warmed :data:`SETUP_ROUNDS` times;
   ``setup_s`` is the import time plus the median round.
4. Cold passes run until ``--seconds`` have passed and the workload's
   minimum number of passes ran.  With ``--trace 1`` the first pass runs
   untraced as the reference, the layer spans are installed, and the rest
   are traced.
5. Outputs are checked; the last line of standard output is the result.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

from . import ROOT, layers, spec
from .tracing import Recorder, export_chrome

SETUP_ROUNDS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail loudly without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources at {src}; run from a full checkout")
    # The benchmark measures the default configuration: no fault plans,
    # cache tiers or kernel switches inherited from the environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    sys.path.insert(0, str(src))
    import repro  # noqa: F401


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes, setup_s: float, rss_mb: float) -> dict[str, float]:
    """The user-visible metrics: each rate and percentile per pass, then the
    median over passes, so one pass slowed by another tenant of the machine
    does not move the result."""
    return {
        "setup_s": setup_s,
        "slices_per_s": statistics.median(it.slices / it.wall_s for it in passes),
        "request_p50_ms": statistics.median(_percentile(it.latencies_ms, 50) for it in passes),
        "request_p90_ms": statistics.median(_percentile(it.latencies_ms, 90) for it in passes),
        "iou_mean": statistics.fmean(passes[0].ious),
        "peak_rss_mb": rss_mb,
    }


def per_layer(passes, recorder, marks) -> dict[str, float]:
    """Median over the traced passes (all but the first) of each layer metric."""
    untraced = passes[0].wall_s
    per_pass = [
        layers.pass_metrics(recorder.spans[marks[i]:marks[i + 1]], it.wall_s, untraced, it.harness)
        for i, it in enumerate(passes)
        if i >= 1
    ]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(it.wall_s for it in passes[1:]) / untraced - 1.0
    return metrics


def check_outputs(passes, reference: str | None) -> list[str]:
    """Failures across passes: per-pass checks plus determinism."""
    failures = [f"pass {i}: {f}" for i, it in enumerate(passes) for f in it.failures]
    digests = {it.digest for it in passes}
    if len(digests) != 1:
        failures.append(f"mask digests differ across cold passes: {sorted(digests)}")
    if reference is not None and passes[0].digest != reference:
        failures.append(f"stream masks {passes[0].digest} != eager meanbox {reference}")
    return failures


def measure(workload, seconds: float, trace: bool):
    """Cold passes until ``seconds`` have passed and the workload's minimum ran.

    The first pass is never traced.
    Returns the passes, the recorder (None untraced), the span-list
    position at the start of each pass, and ``ru_maxrss`` in MiB read
    after the first pass, so peak memory does not grow with the pass count.
    """
    passes, marks, recorder = [], [], None
    begin = time.perf_counter()
    try:
        while True:
            if trace and passes and recorder is None:
                recorder = Recorder()
                layers.instrument(recorder)
            marks.append(recorder.mark() if recorder else 0)
            passes.append(workload.run_pass())
            if len(passes) == 1:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            enough = len(passes) >= workload.min_passes and (not trace or recorder is not None)
            if enough and time.perf_counter() - begin >= seconds:
                break
    finally:
        if recorder is not None:
            recorder.close()
            marks.append(recorder.mark())
    return passes, recorder, marks, rss_mb


def main(args, t0: float) -> int:
    _import_program()
    from .workloads import make_workload, reference_digest

    import_s = time.perf_counter() - t0
    benchmark = spec()
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        try:
            rounds = []
            for _ in range(SETUP_ROUNDS):
                start = time.perf_counter()
                workload.setup_round()
                rounds.append(time.perf_counter() - start)
            setup_s = import_s + statistics.median(rounds)
            trace = bool(args.trace or args.trace_out)
            passes, recorder, marks, rss_mb = measure(workload, args.seconds, trace)
            reference = None
            if args.workload == "stream_jobs":
                reference = reference_digest(workload.volumes)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failures = check_outputs(passes, reference)
    attempted = sum(len(it.latencies_ms) for it in passes) + len(passes)
    walls = [it.wall_s for it in passes]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} cold passes, "
          f"walls {[round(w, 3) for w in walls]} s, set-up rounds {[round(r, 3) for r in rounds]} s "
          f"+ import {import_s:.3f} s")
    print(f"requests {attempted - len(passes)} (latency samples), mask digest {passes[0].digest}, "
          f"error_rate {len(failures) / attempted:.4f}")
    for failure in failures:
        print(f"FAILED {failure}")

    if recorder is None:
        metrics = end_to_end(passes, setup_s, rss_mb)
    else:
        metrics = per_layer(passes, recorder, marks)
        traced = recorder.spans[marks[1]:]
        self_s = layers.layer_self_seconds(traced)
        for name, value in sorted(self_s.items()):
            print(f"  self {name:24s} {value / len(walls[1:]):9.4f} s/pass")
        if args.trace_out:
            export_chrome(args.trace_out, traced, {
                "workload": args.workload,
                "seed": args.seed,
                "untraced_wall_s": walls[0],
                "traced_walls_s": walls[1:],
                "trace_overhead_frac": metrics["trace.overhead_frac"],
                "self_s_per_pass": {k: v / len(walls[1:]) for k, v in self_s.items()},
            })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1
