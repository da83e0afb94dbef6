"""Command-line interface: ``python -m repro <command>``.

Commands mirror the platform's no-code surface for shell users:

* ``segment``    — one image/volume file + prompt → mask file (+ overlay)
* ``batch``      — Mode B over a volume with temporal options
* ``evaluate``   — Mode C on the built-in benchmark, prints paper tables
* ``synthesize`` — generate a synthetic FIB-SEM acquisition to disk
* ``serve``      — run the HTTP platform server
* ``jobs``       — durable background jobs (``submit|status|watch|cancel|gc``)
* ``readiness``  — score a file's AI-readiness
* ``metrics``    — observability utilities (``metrics diff a/run.json b/run.json``)

Each command prints a short human summary to stdout and writes artifacts
next to the input (or to ``--out``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ReproError, error_record
from .io.integrity import ON_CORRUPT

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment a file from a text prompt")
    p.add_argument("path", type=Path)
    p.add_argument("prompt")
    p.add_argument("--out", type=Path, default=None, help="output .npz (default: alongside input)")
    p.add_argument("--overlay", type=Path, default=None, help="also write an overlay PNG")
    p.add_argument("--slice", type=int, default=None, help="volume slice to segment (default: all)")
    p.add_argument("--no-cache", action="store_true", help="disable the content-addressed inference cache")
    p.add_argument("--profile", action="store_true", help="print per-stage timings and every counter")
    p.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write a Chrome-trace (chrome://tracing) span trace here; also "
        "emits a run.json manifest alongside unless --manifest-out is given",
    )
    p.add_argument(
        "--manifest-out",
        type=Path,
        default=None,
        help="write the run manifest (config fingerprint, latency percentiles, metrics) here",
    )
    p.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="persist per-slice masks here so an interrupted volume job can resume",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume a volume job from --checkpoint-dir, or with --stream from its "
        "default <input>.ckpt (skips completed slices)",
    )
    p.add_argument(
        "--temporal-mode",
        choices=["meanbox", "propagate"],
        default="meanbox",
        help="volume engine: ground every slice + mean-box refinement, or "
        "memory-conditioned propagation with keyframe re-grounding",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="stream the volume out-of-core (LazyVolume): tiles load on demand "
        "under --memory-budget-mb, masks land as per-slice shards in "
        "--checkpoint-dir, and corrupt tiles follow --on-corrupt",
    )
    p.add_argument(
        "--on-corrupt",
        choices=ON_CORRUPT,
        default="fail",
        help="streaming policy for corrupt tiles: fail the run, skip (zero "
        "mask), or degrade (segment salvaged bytes); skip/degrade record the "
        "slice in the run manifest",
    )
    p.add_argument(
        "--memory-budget-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="streaming prefetch budget (bounds resident tile bytes)",
    )

    p = sub.add_parser(
        "batch",
        help="Mode B batch segmentation: a volume file + prompt, or a whole "
        "directory of volumes fanned out as durable zoo jobs (--task)",
    )
    p.add_argument("path", type=Path)
    p.add_argument("prompt", nargs="?", default=None, help="text prompt (file mode only)")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--no-temporal", action="store_true")
    p.add_argument(
        "--temporal-mode",
        choices=["meanbox", "propagate"],
        default="meanbox",
        help="meanbox grounds every slice; propagate grounds keyframes only",
    )
    p.add_argument(
        "--task",
        default=None,
        metavar="PRESET",
        help="zoo preset for directory batches (see `repro zoo list`); "
        "required when PATH is a directory",
    )
    p.add_argument(
        "--mode",
        choices=["best", "ensemble"],
        default="best",
        help="BEST runs the preset config once per volume; ENSEMBLE runs the "
        "variant grid and fuses masks by IoU-weighted voting",
    )
    p.add_argument(
        "--jobs-dir",
        type=Path,
        default=None,
        help="jobs directory for directory batches (default: <dir>/.repro-jobs)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="stream volumes out-of-core (BEST mode only)",
    )
    p.add_argument("--on-corrupt", choices=ON_CORRUPT, default="fail")
    p.add_argument("--memory-budget-mb", type=float, default=64.0, metavar="MB")
    p.add_argument(
        "--ensemble-size",
        type=int,
        default=None,
        metavar="K",
        help="ensemble members per volume (default 4)",
    )
    p.add_argument("--priority", type=int, default=0, help="job priority (higher runs first)")
    p.add_argument(
        "--job-lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="lease TTL for batch jobs: after a crash, a rerun adopts the dead "
        "process's jobs once their lease is this stale",
    )
    p.add_argument(
        "--submit-only",
        action="store_true",
        help="submit the batch jobs and print the manifest without draining them "
        "(a co-located server or a later rerun executes the queue)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="directory-batch drain budget",
    )

    p = sub.add_parser("zoo", help="model/config registry (task presets)")
    zsub = p.add_subparsers(dest="zoo_command", required=True)
    zp = zsub.add_parser("list", help="print the registry (builtins + zoo.json overlay) as JSON")
    zp.add_argument(
        "--jobs-dir",
        type=Path,
        default=None,
        help="also load the zoo.json overlay from this jobs directory",
    )
    zp.add_argument(
        "--pixel-size-nm",
        type=float,
        default=None,
        metavar="NM",
        help="also print the presets whose tuned pixel-pitch range covers this value",
    )
    zp = zsub.add_parser("show", help="print one preset (config overlay, prompt, fingerprint)")
    zp.add_argument("preset")
    zp.add_argument("--jobs-dir", type=Path, default=None)

    p = sub.add_parser("evaluate", help="run the paper's table experiments")
    p.add_argument("--methods", nargs="+", default=["otsu", "sam_only", "zenesis"])
    p.add_argument("--size", type=int, default=256, help="slice edge length")
    p.add_argument("--slices", type=int, default=10, help="slices per volume")
    p.add_argument("--dashboard", type=Path, default=None, help="write HTML dashboard here")
    p.add_argument("--no-cache", action="store_true", help="disable the content-addressed inference cache")
    p.add_argument("--trace-out", type=Path, default=None, help="write a Chrome-trace span trace here")
    p.add_argument(
        "--manifest-out", type=Path, default=None, help="write the run manifest (run.json) here"
    )

    p = sub.add_parser("metrics", help="observability utilities over run manifests")
    msub = p.add_subparsers(dest="metrics_command", required=True)
    mp = msub.add_parser("diff", help="compare two run.json manifests")
    mp.add_argument("manifest_a", type=Path)
    mp.add_argument("manifest_b", type=Path)

    p = sub.add_parser("synthesize", help="generate a synthetic FIB-SEM volume")
    p.add_argument("kind", choices=["crystalline", "amorphous", "nanowire", "porous"])
    p.add_argument("out", type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--slices", type=int, default=10)
    p.add_argument("--with-gt", action="store_true", help="bundle ground truth (npz output)")

    p = sub.add_parser("serve", help="run the platform HTTP server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="max concurrent /api requests; excess is queued briefly then shed with 429",
    )
    p.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; expiry returns a structured 504 with the session unchanged",
    )
    p.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict sessions idle longer than this (clients get the evicted hint)",
    )
    p.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="session capacity cap; beyond it the least-recently-used session is evicted",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on shutdown, wait this long for in-flight requests before aborting stragglers",
    )
    p.add_argument(
        "--jobs-dir",
        type=Path,
        default=None,
        help="enable durable background jobs journaled under this directory "
        "(job_* API actions; large segment_volume requests go async)",
    )
    p.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="background job worker threads (each runs one job at a time)",
    )
    p.add_argument(
        "--job-lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat lease: a job whose worker goes silent this long is retried",
    )
    p.add_argument(
        "--auto-job-slices",
        type=int,
        default=None,
        metavar="N",
        help="segment_volume requests on volumes with >= N slices return 202 + job_id "
        "instead of blocking (default: never redirect)",
    )

    p = sub.add_parser("jobs", help="durable background jobs over a jobs directory")
    p.add_argument(
        "--jobs-dir",
        type=Path,
        required=True,
        help="the journaled jobs directory (shared with a server started with --jobs-dir)",
    )
    jsub = p.add_subparsers(dest="jobs_command", required=True)
    jp = jsub.add_parser("submit", help="queue a job (a co-located server or watcher runs it)")
    jp.add_argument("kind", choices=["segment_volume", "evaluate", "synthesize", "zoo_segment"])
    jp.add_argument(
        "--path", type=Path, default=None, help="volume file (segment_volume / zoo_segment)"
    )
    jp.add_argument("--prompt", default=None, help="text prompt (segment_volume)")
    jp.add_argument("--preset", default=None, help="zoo preset name (zoo_segment)")
    jp.add_argument(
        "--mode",
        choices=["best", "ensemble"],
        default="best",
        help="zoo_segment execution mode",
    )
    jp.add_argument("--params", default=None, help="JSON params dict (evaluate/synthesize)")
    jp.add_argument("--priority", type=int, default=0, help="higher runs first")
    jp.add_argument("--no-temporal", action="store_true")
    jp.add_argument(
        "--temporal-mode",
        choices=["meanbox", "propagate"],
        default="meanbox",
        help="volume engine for segment_volume jobs",
    )
    jp.add_argument(
        "--stream",
        action="store_true",
        help="submit --path as a streaming job (snapshot the file, never "
        "materialize the voxels; masks land as per-slice shards)",
    )
    jp.add_argument(
        "--on-corrupt",
        choices=ON_CORRUPT,
        default="fail",
        help="corrupt-tile policy for --stream jobs",
    )
    jp.add_argument(
        "--memory-budget-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="prefetch budget for --stream jobs",
    )
    jp.add_argument("--run", action="store_true", help="also execute queued jobs here until idle")
    jp = jsub.add_parser("status", help="print one job (or the whole queue) as JSON")
    jp.add_argument("job_id", nargs="?", default=None)
    jp = jsub.add_parser("watch", help="follow a job's progress events until it is terminal")
    jp.add_argument("job_id")
    jp.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS")
    jp = jsub.add_parser("cancel", help="cancel a job (cooperative when already running)")
    jp.add_argument("job_id")
    jp = jsub.add_parser("gc", help="delete old terminal jobs and compact the journal")
    jp.add_argument("--max-age", type=float, default=24 * 3600.0, metavar="SECONDS")

    p = sub.add_parser("io", help="volume ingestion utilities (verify/checksum)")
    iosub = p.add_subparsers(dest="io_command", required=True)
    ip = iosub.add_parser(
        "verify",
        help="walk every tile of an on-disk volume, classify damage "
        "(torn/flip/unreadable), print a JSON report; exit 1 when damaged",
    )
    ip.add_argument("path", type=Path)
    ip = iosub.add_parser(
        "checksum",
        help="write the per-tile sha256 sidecar that lets ingestion "
        "detect silent bit-flips (not just truncation)",
    )
    ip.add_argument("path", type=Path)

    p = sub.add_parser("readiness", help="score a file's AI-readiness")
    p.add_argument("path", type=Path)
    return parser


def _wants_observability(args) -> bool:
    return (
        getattr(args, "trace_out", None) is not None
        or getattr(args, "manifest_out", None) is not None
    )


def _start_observability(args, command: str) -> None:
    """Begin a CLI-scoped trace when the run asked for observability output."""
    if _wants_observability(args):
        from .observability import start_trace

        start_trace(f"repro.{command}")


def _print_repro_error(exc) -> int:
    """Render a :class:`~repro.errors.ReproError` as structured JSON on stderr."""
    print(json.dumps({"ok": False, **error_record(exc)}, indent=2), file=sys.stderr)
    return 1


def _write_observability(args, command: str, *, config=None, extra=None) -> None:
    """Flush the CLI trace / manifest artifacts requested via flags.

    ``--trace-out`` writes the Chrome-trace file and, unless overridden,
    a ``run.json`` manifest next to it; ``--manifest-out`` writes (only)
    the manifest.
    """
    if not _wants_observability(args):
        return
    from .observability import build_manifest, end_trace, write_manifest

    tracer = end_trace()
    trace_out = getattr(args, "trace_out", None)
    manifest_out = getattr(args, "manifest_out", None)
    if trace_out is not None:
        if tracer is not None:
            tracer.write_chrome_trace(trace_out)
            print(f"trace -> {trace_out}")
        if manifest_out is None:
            manifest_out = trace_out.parent / "run.json"
    if manifest_out is not None:
        manifest = build_manifest(command, config=config, argv=sys.argv[1:], extra=extra)
        write_manifest(manifest_out, manifest)
        print(f"manifest -> {manifest_out}")


def _print_profile(cache) -> None:
    """``--profile``: stage rows and every series, read from the registry."""
    from .cache import export_cache_metrics
    from .observability import format_profile

    export_cache_metrics(cache)
    print()
    print(format_profile())


def _cmd_segment(args) -> int:
    """``segment``: Mode A on an image or one slice, Mode B on a volume.

    With ``--stream`` the volume is never fully resident — masks persist as
    per-slice shards in the checkpoint directory (default ``<input>.ckpt/``),
    which doubles as the resume point after a crash or kill.
    """
    from .core.pipeline import ZenesisConfig, ZenesisPipeline
    from .io.formats import load_image_file

    if args.resume and args.checkpoint_dir is None and not args.stream:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    arr = None if args.stream else load_image_file(args.path)
    _start_observability(args, "segment")
    pipeline = ZenesisPipeline(
        ZenesisConfig(use_cache=not args.no_cache, temporal_mode=args.temporal_mode)
    )
    extra = _segment_stream(args, pipeline) if arr is None else _segment_array(args, pipeline, arr)
    _write_observability(args, "segment", config=pipeline.config, extra=extra)
    if args.profile:
        _print_profile(pipeline.cache)
    return 0


def _segment_array(args, pipeline, arr: np.ndarray) -> None:
    """Segment a loaded image, slice or volume and save the masks."""
    from .io.volume_io import save_volume_bundle
    from .platform.render import save_figure
    from .viz.overlay import overlay_mask

    out = args.out or args.path.with_suffix(".masks.npz")
    if arr.ndim == 3 and args.slice is None:
        result = pipeline.segment_volume(
            arr, args.prompt, checkpoint_dir=args.checkpoint_dir, resume=args.resume
        )
        masks = result.masks
        n_resumed = sum(1 for sr in result.slice_results if sr.metadata.get("resumed"))
        resumed_note = f" ({n_resumed} slices resumed from checkpoint)" if n_resumed else ""
        print(
            f"{masks.shape[0]} slices; volume fraction {result.volume_fraction():.3f}{resumed_note}"
        )
        save_volume_bundle(out, arr, masks, {"prompt": args.prompt})
    else:
        if args.checkpoint_dir is not None:
            print("note: --checkpoint-dir only applies to full-volume runs", file=sys.stderr)
        img = arr[args.slice] if arr.ndim == 3 else arr
        result = pipeline.segment_image(img, args.prompt)
        print(f"boxes {result.n_boxes}; coverage {result.coverage:.3f}")
        np.savez_compressed(out, mask=result.mask, boxes=result.detection.boxes)
        if args.overlay is not None:
            _, seg_img = pipeline.adapt(img)
            save_figure(args.overlay, overlay_mask(seg_img, result.mask))
            print(f"overlay -> {args.overlay}")
    print(f"masks -> {out}")


def _segment_stream(args, pipeline) -> dict | None:
    """Out-of-core Mode B over a LazyVolume; returns the manifest's extra fields."""
    from .io.integrity import IngestPolicy, budget_bytes
    from .zoo.batch import in_plane_pixel_size_nm

    ckpt_dir = args.checkpoint_dir or args.path.with_suffix(args.path.suffix + ".ckpt")
    policy = IngestPolicy(
        on_corrupt=args.on_corrupt,
        memory_budget_bytes=budget_bytes(args.memory_budget_mb),
    )
    result = pipeline.segment_volume_stream(
        args.path,
        args.prompt,
        checkpoint_dir=ckpt_dir,
        resume=args.resume,
        policy=policy,
    )
    degraded_note = ""
    if result.degraded:
        marks = ", ".join(f"{z}:{r}" for z, r in sorted(result.degraded.items()))
        degraded_note = f"; degraded slices: {marks}"
    print(
        f"{result.n_slices} slices streamed; volume fraction "
        f"{result.volume_fraction():.3f}{degraded_note}"
    )
    print(f"mask shards -> {ckpt_dir}")
    pixel_size_nm = in_plane_pixel_size_nm(result.io_stats.get("meta"))
    return {"pixel_size_nm": pixel_size_nm} if pixel_size_nm is not None else None


def _cmd_io(args) -> int:
    from .io.integrity import verify_volume, write_sidecar
    from .io.lazy import open_lazy_volume

    if args.io_command == "verify":
        with open_lazy_volume(args.path) as volume:
            report = verify_volume(volume)
        print(json.dumps(report, indent=2))
        return 0 if report["ok"] else 1
    if args.io_command == "checksum":
        with open_lazy_volume(args.path) as volume:
            side = write_sidecar(volume)
        print(f"sidecar -> {side}")
        return 0
    return 2


def _cmd_batch_dir(args) -> int:
    """``batch <dir> --task PRESET``: fan a folder out as durable zoo jobs."""
    from .jobs import JobService
    from .zoo import run_batch, submit_batch

    if args.task is None:
        print(
            "directory batches need --task PRESET (see `repro zoo list`)",
            file=sys.stderr,
        )
        return 2
    jobs_dir = args.jobs_dir or args.path / ".repro-jobs"
    ensemble = None
    if args.mode == "ensemble" and args.ensemble_size is not None:
        ensemble = {"size": args.ensemble_size}
    svc = JobService(jobs_dir, lease_ttl_s=args.job_lease_ttl)
    opts = dict(
        mode=args.mode,
        stream=args.stream,
        on_corrupt=args.on_corrupt,
        memory_budget_mb=args.memory_budget_mb,
        ensemble=ensemble,
        priority=args.priority,
    )
    if args.submit_only:
        print(json.dumps(submit_batch(svc, args.path, args.task, **opts), indent=2))
        return 0
    report = run_batch(svc, args.path, args.task, timeout_s=args.timeout, **opts)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _cmd_batch(args) -> int:
    from .core.pipeline import ZenesisPipeline
    from .io.formats import load_image_file
    from .io.volume_io import save_volume_bundle

    if args.path.is_dir():
        return _cmd_batch_dir(args)
    if args.prompt is None:
        print("file batches need a text PROMPT argument", file=sys.stderr)
        return 2
    arr = load_image_file(args.path)
    if arr.ndim != 3:
        print("batch requires a volume (3-D) input", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    result = ZenesisPipeline().segment_volume(
        arr, args.prompt, temporal=not args.no_temporal, temporal_mode=args.temporal_mode
    )
    wall_s = time.perf_counter() - t0
    out = args.out or args.path.with_suffix(".masks.npz")
    save_volume_bundle(out, arr, result.masks, {"prompt": args.prompt})
    print(
        f"{result.n_slices} slices ({args.temporal_mode}) in {wall_s:.1f}s; "
        f"volume fraction {result.masks.mean():.3f}; masks -> {out}"
    )
    return 0


def _cmd_zoo(args) -> int:
    from .zoo import load_registry

    registry = load_registry(args.jobs_dir)
    if args.zoo_command == "list":
        doc = registry.describe()
        if args.pixel_size_nm is not None:
            doc["suggested"] = list(registry.suggest(args.pixel_size_nm))
        print(json.dumps(doc, indent=2))
        return 0
    if args.zoo_command == "show":
        print(json.dumps(registry.get(args.preset).describe(), indent=2))
        return 0
    return 2


def _cmd_evaluate(args) -> int:
    from .core.pipeline import ZenesisConfig
    from .eval.dashboard import render_dashboard
    from .eval.experiments import evaluate_benchmark
    from .eval.report import paper_table

    config = ZenesisConfig(use_cache=not args.no_cache)
    _start_observability(args, "evaluate")
    evaluations, _ = evaluate_benchmark(
        args.methods, shape=(args.size, args.size), n_slices=args.slices, zenesis_config=config
    )
    for name, ev in evaluations.items():
        print()
        print(paper_table(ev))
    if args.dashboard is not None:
        from .cache import export_cache_metrics
        from .observability import get_registry
        from .resilience.serving import serving_snapshot

        export_cache_metrics()
        args.dashboard.write_text(
            render_dashboard(evaluations, metrics=get_registry(), serving=serving_snapshot())
        )
        print(f"\ndashboard -> {args.dashboard}")
    _write_observability(args, "evaluate", config=config)
    return 0


def _cmd_metrics(args) -> int:
    from .observability import diff_manifests, load_manifest

    if args.metrics_command == "diff":
        print(diff_manifests(load_manifest(args.manifest_a), load_manifest(args.manifest_b)))
        return 0
    return 2


def _cmd_synthesize(args) -> int:
    from .data.datasets import make_sample
    from .io.volume_io import export_volume_tiff, save_volume_bundle

    sample = make_sample(
        args.kind, seed=args.seed, shape=(args.size, args.size), n_slices=args.slices
    )
    if args.with_gt or args.out.suffix == ".npz":
        save_volume_bundle(
            args.out,
            sample.volume.voxels,
            sample.catalyst_mask,
            {"kind": args.kind, "seed": args.seed},
        )
    else:
        export_volume_tiff(args.out, sample.volume.voxels, voxel_size_nm=(5.0, 5.0))
    print(
        f"{args.kind} volume {sample.volume.shape} "
        f"(catalyst fraction {sample.catalyst_mask.mean():.3f}) -> {args.out}"
    )
    return 0


def _cmd_serve(args) -> int:
    from .platform.server import PlatformServer

    server = PlatformServer(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        request_deadline_s=args.request_deadline,
        session_ttl_s=args.session_ttl,
        max_sessions=args.max_sessions,
        drain_timeout_s=args.drain_timeout,
        jobs_dir=str(args.jobs_dir) if args.jobs_dir is not None else None,
        job_workers=args.job_workers,
        job_lease_ttl_s=args.job_lease_ttl,
        auto_job_slices=args.auto_job_slices,
    )
    server.start()
    jobs_note = f" (jobs -> {args.jobs_dir})" if args.jobs_dir is not None else ""
    print(f"serving at {server.url}{jobs_note} — Ctrl-C to stop")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_jobs(args) -> int:
    from .jobs import JobService

    svc = JobService(args.jobs_dir)
    cmd = args.jobs_command
    if cmd == "submit":
        if args.kind == "segment_volume":
            if args.path is None or args.prompt is None:
                print("segment_volume jobs need --path and --prompt", file=sys.stderr)
                return 2
            opts = dict(
                temporal=not args.no_temporal,
                temporal_mode=args.temporal_mode,
                priority=args.priority,
            )
            if args.stream:
                job = svc.submit_segment_volume_path(
                    args.path,
                    args.prompt,
                    on_corrupt=args.on_corrupt,
                    memory_budget_mb=args.memory_budget_mb,
                    **opts,
                )
            else:
                from .io.formats import load_image_file

                job = svc.submit_segment_volume(load_image_file(args.path), args.prompt, **opts)
        elif args.kind == "zoo_segment":
            if args.path is None or args.preset is None:
                print("zoo_segment jobs need --path and --preset", file=sys.stderr)
                return 2
            job, created = svc.submit_zoo_segment(
                args.path,
                args.preset,
                mode=args.mode,
                stream=args.stream,
                on_corrupt=args.on_corrupt,
                memory_budget_mb=args.memory_budget_mb,
                priority=args.priority,
            )
            if not created:
                print(f"reusing live job for this (volume, preset, mode): {job.job_id}")
        else:
            params = json.loads(args.params) if args.params else {}
            job = svc.submit(args.kind, params, priority=args.priority)
        print(f"submitted {job.job_id} ({job.kind}, priority {job.priority})")
        if args.run:
            n = svc.runner.run_until_idle()
            print(f"ran {n} job(s); {job.job_id} -> {svc.status(job.job_id)['state']}")
        return 0
    if cmd == "status":
        payload = svc.status(args.job_id) if args.job_id else svc.snapshot()
        print(json.dumps(payload, indent=2))
        return 0
    if cmd == "watch":
        import time as _time

        cursor, t0 = 0, _time.monotonic()
        while True:
            feed = svc.events(args.job_id, cursor=cursor)
            if feed.get("truncated"):
                print(
                    f"[warn] events after cursor {cursor} were trimmed from retention; "
                    "stream resumes at the oldest retained event",
                    file=sys.stderr,
                )
            for event in feed["events"]:
                detail = {k: v for k, v in event.items() if k not in ("job_id", "seq", "ts", "kind")}
                print(f"[{event['seq']:4d}] {event['kind']} {json.dumps(detail)}")
            cursor = feed["cursor"]
            status = svc.status(args.job_id)
            if status["state"] in ("succeeded", "failed", "cancelled"):
                print(f"{args.job_id} -> {status['state']}")
                return 0 if status["state"] == "succeeded" else 1
            if _time.monotonic() - t0 > args.timeout:
                print(f"timed out after {args.timeout}s ({status['state']})", file=sys.stderr)
                return 1
            _time.sleep(0.2)
    if cmd == "cancel":
        print(json.dumps(svc.cancel(args.job_id), indent=2))
        return 0
    if cmd == "gc":
        swept = svc.gc(max_age_s=args.max_age)
        print(
            f"removed {len(swept['removed'])} job(s), "
            f"{swept['orphan_inputs']} orphan input(s); journal compacted"
        )
        return 0
    return 2


def _cmd_readiness(args) -> int:
    from .adapt.readiness import score_readiness
    from .data.image import ScientificImage
    from .io.formats import load_image_file

    arr = load_image_file(args.path)
    if arr.ndim == 3 and arr.shape[2] not in (3, 4):
        arr = arr[0]  # first slice of a volume
    report = score_readiness(ScientificImage(arr))
    print(json.dumps(report.as_dict(), indent=2))
    return 0


_COMMANDS = {
    "segment": _cmd_segment,
    "batch": _cmd_batch,
    "zoo": _cmd_zoo,
    "evaluate": _cmd_evaluate,
    "metrics": _cmd_metrics,
    "synthesize": _cmd_synthesize,
    "serve": _cmd_serve,
    "jobs": _cmd_jobs,
    "io": _cmd_io,
    "readiness": _cmd_readiness,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        return _print_repro_error(exc)
