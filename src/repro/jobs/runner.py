"""Job execution: worker threads that lease, run, heartbeat, and checkpoint.

A :class:`JobRunner` owns a small pool of worker *threads* inside the
serving process.  Each worker loops: acquire a lease from the scheduler,
execute the payload, report terminal state.  A ``segment_volume`` payload
is an adapter around the one volume driver
(:func:`repro.core.driver.drive_volume`): it opens the job's input (the
``.npy`` snapshot, or the streamed source), hooks progress, and serialises
the result.  The driver persists every completed slice through
:class:`~repro.resilience.CheckpointManager`, so a worker (or the whole
process) killed mid-job resumes from the last completed slice shard and
the final masks are bit-identical to an uninterrupted run, wherever the
resume happened, as for every other caller of the driver.

Cancellation rides the request-deadline machinery: the runner binds a
:class:`JobGuard` via :func:`repro.resilience.serving.request_scope`, and
every per-slice ``check_deadline`` (or explicit ``guard.check()``) raises
:class:`~repro.errors.JobCancelledError` once the record's cancel flag is
set — no thread is ever killed, work stops at the next slice boundary.

Fault hooks: ``job_crash@slice=N`` (REPRO_FAULTS) hard-exits the process as
slice N of a volume job begins, before its tile is processed — the
job-queue twin of ``volume_crash``, firing at the same point of the driver.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from hashlib import sha1
from typing import Callable

import numpy as np

from ..cache import array_content_key, config_fingerprint
from ..core.driver import PHASES, drive_volume
from ..core.pipeline import ZenesisConfig, ZenesisPipeline
from ..errors import (
    REQUEST_ERRORS,
    FormatError,
    JobCancelledError,
    JobError,
    ReproError,
    error_record,
)
from ..observability.metrics import get_registry
from ..observability.trace import Tracer, export_spans
from ..resilience.events import record_event
from ..resilience.faults import get_fault_plan
from ..resilience.policy import Deadline
from ..resilience.serving.lifecycle import request_scope
from .model import JobRecord
from .scheduler import JobScheduler
from .store import JobStore

__all__ = ["JobRunner", "JobGuard"]

#: Longest an idle worker waits before polling the queue again.  A
#: transition in this process (a submit, a requeue) wakes it at once through
#: the store's change signal; the poll is for what raises none: jobs a peer
#: process journaled into the same directory, an elapsed retry backoff, an
#: expired lease.
_IDLE_POLL_S = 0.1


class JobGuard:
    """Deadline-shaped cancellation token bound into ``request_scope``.

    Duck-types :class:`~repro.resilience.Deadline` for the parts the
    serving machinery uses (``check``/``remaining``/``clamp``/``expired``),
    layering the job's cooperative cancel flag — and, when ``worker_id`` is
    given, a *lease-ownership* check — on top of an optional wall-clock
    budget.  The ownership check is what stops a stalled worker from
    finishing a job another worker already reclaimed and double-writing
    the result: the moment the record names a different owner, the next
    ``check`` aborts the run with :class:`JobCancelledError`.

    Cross-process visibility: checks re-read the shared journal at most
    every ``lease_check_s`` (rate-limited — a per-slice refresh would turn
    every slice into journal IO).
    """

    def __init__(
        self,
        store: JobStore,
        job_id: str,
        deadline: Deadline | None = None,
        *,
        worker_id: str | None = None,
        lease_check_s: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._store = store
        self._job_id = job_id
        self._deadline = deadline
        self._worker_id = None if worker_id is None else str(worker_id)
        self._lease_check_s = float(lease_check_s)
        self._clock = clock
        self._last_refresh = clock()  # the record was just read at acquire

    def check(self, what: str = "job") -> None:
        if self._deadline is not None:
            self._deadline.check(what)
        now = self._clock()
        if now - self._last_refresh >= self._lease_check_s:
            self._last_refresh = now
            try:
                self._store.refresh()
            except Exception:
                pass  # journal IO blip: keep the stale view; next check retries
        rec = self._store.maybe_get(self._job_id)
        if rec is None:
            return
        if rec.cancel_requested:
            raise JobCancelledError(f"job {self._job_id} cancelled during {what}")
        if self._worker_id is not None and rec.lease_owner != self._worker_id:
            record_event("jobs.lease_lost_aborts")
            raise JobCancelledError(
                f"job {self._job_id} lease lost during {what} "
                f"(owner is now {rec.lease_owner!r}); aborting this attempt"
            )

    def remaining(self) -> float:
        return self._deadline.remaining() if self._deadline is not None else float("inf")

    def clamp(self, wait_s: float) -> float:
        return self._deadline.clamp(wait_s) if self._deadline is not None else float(wait_s)

    @property
    def expired(self) -> bool:
        return self._deadline.expired if self._deadline is not None else False


#: Per-process pipeline memo, so consecutive jobs with one config share the
#: models and the adaptation / inference caches of one pipeline.  The zoo
#: ensemble builds its members through it too.
_PIPELINE_MEMO: dict[str, ZenesisPipeline] = {}


def _memo_pipeline(config: ZenesisConfig) -> ZenesisPipeline:
    key = config_fingerprint(config)
    pipeline = _PIPELINE_MEMO.get(key)
    if pipeline is None:
        pipeline = ZenesisPipeline(config)
        _PIPELINE_MEMO[key] = pipeline
    return pipeline


class JobRunner:
    """Executes leased jobs on background worker threads."""

    def __init__(
        self,
        scheduler: JobScheduler,
        store: JobStore,
        *,
        n_workers: int = 1,
        tracer: Tracer | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.scheduler = scheduler
        self.store = store
        self.n_workers = int(n_workers)
        self.tracer = tracer  # spans of finished jobs are adopted here
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._dispatch: dict[str, Callable] = {
            "segment_volume": self._run_segment_volume,
            "evaluate": self._run_evaluate,
            "synthesize": self._run_synthesize,
            "zoo_segment": self._run_zoo_segment,
        }

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "JobRunner":
        if self._threads:
            return self
        self._stop.clear()
        for i in range(self.n_workers):
            # The pid prefix makes worker ids unique across processes
            # sharing one jobs directory (`repro jobs` beside `repro
            # serve`) — two processes both running a "w0" would satisfy
            # each other's lease-owner checks.
            t = threading.Thread(
                target=self._worker_loop, args=(f"{os.getpid()}-w{i}",), daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    @property
    def healthy(self) -> bool:
        """False once any started worker thread died unexpectedly.

        A server whose runner threads are gone still answers HTTP but can
        never execute the async work submitted to it — ``GET /ready`` folds
        this in so a load balancer stops handing jobs to a zombie.
        """
        if self._stop.is_set():
            return True  # deliberate stop in progress, not a crash
        return all(t.is_alive() for t in self._threads)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop accepting new jobs; wait briefly for running ones.

        A job still running past the window is *abandoned*, not killed: its
        lease expires and the next runner (this process restarted, or a
        peer) reclaims and resumes it from its checkpoint shards.
        """
        self._stop.set()
        self.store.notify_change()  # wake idle workers to see the stop flag
        deadline = Deadline(max(timeout_s, 1e-9), clock=time.monotonic)
        for t in self._threads:
            t.join(timeout=deadline.remaining())
        abandoned = sum(1 for t in self._threads if t.is_alive())
        if abandoned:
            record_event("jobs.abandoned_on_stop", abandoned)
        self._threads = []

    def run_until_idle(self, *, worker_id: str = "inline", max_jobs: int | None = None) -> int:
        """Drain the queue on the calling thread (CLI / tests); returns count."""
        done = 0
        while max_jobs is None or done < max_jobs:
            job = self.scheduler.acquire(worker_id)
            if job is None:
                break
            self._execute(job, worker_id)
            done += 1
        return done

    # -- the worker loop ------------------------------------------------------

    def _worker_loop(self, worker_id: str) -> None:
        while not self._stop.is_set():
            # Read before acquire: a transition between an empty acquire and
            # the wait then moves the generation, and the wait returns at once.
            generation = self.store.generation
            try:
                job = self.scheduler.acquire(worker_id)
            except Exception:  # journal IO trouble: back off, keep serving
                record_event("jobs.scheduler_errors")
                self._stop.wait(_IDLE_POLL_S * 5)
                continue
            if job is None:
                self.store.wait_for_change(generation, _IDLE_POLL_S)
                continue
            self._execute(job, worker_id)

    def _execute(self, job: JobRecord, worker_id: str) -> None:
        tracer = Tracer(f"job:{job.job_id}")
        root = tracer.begin("job.run", job=job.job_id, kind=job.kind, attempt=job.attempt)
        registry = get_registry()
        t0 = time.perf_counter()
        budget = job.params.get("deadline_s")
        guard = JobGuard(
            self.store,
            job.job_id,
            Deadline(float(budget)) if budget else None,
            worker_id=worker_id,
        )
        spans: list = []

        def finish(error: BaseException | None = None) -> list:
            tracer.finish(root, error=error)
            tracer.close()
            exported = export_spans(tracer)
            if self.tracer is not None:
                # Adopt the job's span tree into the server trace so one
                # timeline shows requests and the background work they spawned.
                self.tracer.adopt(exported, tid=job.submit_seq, job=job.job_id)
            registry.histogram("repro_jobs_duration_seconds", kind=job.kind).observe(
                time.perf_counter() - t0
            )
            return exported

        try:
            self.scheduler.started(job.job_id, worker_id)
        except JobError:
            finish()
            return  # lease lost between acquire and start; someone else owns it
        def report(outcome: Callable[[], object]) -> None:
            # A lease reclaimed mid-run means another attempt owns the job
            # now; our terminal report must yield, not crash the worker loop.
            try:
                outcome()
            except JobError:
                record_event("jobs.stale_reports")

        try:
            with request_scope(guard):
                handler = self._dispatch.get(job.kind)
                if handler is None:
                    raise JobError(f"no runner for job kind {job.kind!r}")
                result = handler(job, worker_id, guard, tracer)
        except JobCancelledError:
            spans = finish()
            report(lambda: self.scheduler.cancelled(job.job_id, worker_id, spans=spans))
        except Exception as exc:
            spans = finish(exc)
            error = error_record(exc)
            # A ReproError may pass on retry, unless it belongs to the job's
            # own input or budget; anything else is a runner bug: terminal,
            # with its traceback.
            retryable = isinstance(exc, ReproError) and not isinstance(exc, REQUEST_ERRORS)
            if not isinstance(exc, ReproError):
                error["traceback"] = traceback.format_exc(limit=10)
            report(
                lambda: self.scheduler.fail(
                    job.job_id, worker_id, error, retryable=retryable, spans=spans
                )
            )
        else:
            spans = finish()
            report(lambda: self.scheduler.complete(job.job_id, worker_id, result, spans=spans))

    def _progress(self, job: JobRecord, worker_id: str, done: int, total: int, **extra) -> None:
        """One progress tick: journal an event and extend the lease."""
        progress = {"done": int(done), "total": int(total), **extra}
        self.store.append_event(job.job_id, "progress", **progress)
        if self.scheduler.heartbeat(job.job_id, worker_id, progress=progress) is None:
            # The lease was reclaimed from under us (e.g. a long GC pause):
            # stop quietly; the reclaimed attempt owns the job now.
            raise JobCancelledError(f"job {job.job_id} lease lost at {done}/{total}")

    # -- payloads -------------------------------------------------------------

    def _run_segment_volume(
        self,
        job: JobRecord,
        worker_id: str,
        guard: JobGuard,
        tracer: Tracer,
        *,
        config: ZenesisConfig | None = None,
        prompt: str | None = None,
    ) -> dict:
        """Checkpointed Mode B over the job's input; resume is bit-identical.

        The input is the ``.npy`` snapshot of a submitted array, or with the
        ``stream`` param an on-disk source whose masks stay on disk as
        shards (the result names the directory instead of embedding an
        array).  ``config``/``prompt`` let the zoo handler run a
        preset-built config; when omitted, everything comes from the job
        params.
        """
        from ..io.integrity import IngestPolicy, budget_bytes
        from ..io.lazy import open_lazy_volume

        params = job.params
        if not job.input_path:
            raise JobError(f"{job.kind} job has no input_path volume snapshot")
        prompt = str(params.get("prompt", "")) if prompt is None else str(prompt)
        if config is None:
            config = ZenesisConfig(temporal_mode=str(params.get("temporal_mode", "meanbox")))
        mode = config.temporal_mode
        streamed = bool(params.get("stream"))
        policy = None
        if streamed:
            policy = IngestPolicy(
                on_corrupt=str(params["on_corrupt"]),
                memory_budget_bytes=budget_bytes(params["memory_budget_mb"]),
            )
        registry = get_registry()
        span = tracer.begin("job.volume", source=job.input_path, temporal_mode=mode)
        try:
            with open_lazy_volume(job.input_path) as volume:
                n = volume.n_tiles
                masks = None if streamed else np.zeros(volume.shape, dtype=bool)
                coverage = [0.0] * n
                shards = sha1()

                def on_slice(z: int, mask: np.ndarray, info: dict) -> None:
                    coverage[z] = float(mask.mean())
                    if masks is None:
                        shards.update(np.ascontiguousarray(mask, dtype=bool).tobytes())
                    else:
                        masks[z] = mask
                    if not info.get("resumed"):
                        registry.counter("repro_jobs_slices_total").inc()
                    self._progress(job, worker_id, z + 1, n, phase=PHASES[mode])

                run = drive_volume(
                    _memo_pipeline(config),
                    volume,
                    prompt,
                    mode=mode,
                    temporal=bool(params.get("temporal", True)),
                    checkpoint_dir=job.checkpoint_dir,
                    resume=True,
                    meta={"job_id": job.job_id, "source": volume.source_path},
                    policy=policy,
                    on_slice=on_slice,
                    crash_fault="job_crash",
                )
        except FormatError as exc:
            raise JobError(f"cannot read job input {job.input_path}: {exc}") from exc
        finally:
            tracer.finish(span)
        if run.resumed:
            registry.counter("repro_jobs_resumed_slices_total").inc(run.resumed)

        result = {
            "n_slices": n,
            "temporal_mode": mode,
            "per_slice_coverage": coverage,
            "refinement": run.report,
            "resumed_slices": run.resumed,
        }
        if masks is None:
            result.update(
                stream=True,
                volume_fraction=float(sum(coverage) / max(n, 1)),
                degraded={str(z): r for z, r in sorted(run.degraded.items())},
                io_stats={k: v for k, v in run.io_stats().items() if k != "meta"},
                masks_dir=str(run.checkpoint.root),
                masks_key=shards.hexdigest(),
            )
            return result
        out_path = self.store.result_path(job.job_id)
        np.savez_compressed(out_path, masks=masks)
        result.update(
            volume_fraction=float(masks.mean()),
            masks_path=str(out_path),
            masks_key=array_content_key(masks),
        )
        return result

    def _load_lazy_voxels(self, path: str) -> np.ndarray:
        """Materialize a snapshotted volume (tiff / npy / slice dir) eagerly."""
        from ..io.lazy import open_lazy_volume

        try:
            with open_lazy_volume(path) as vol:
                return np.stack([vol.read_tile(z) for z in range(vol.n_tiles)])
        except FormatError as exc:
            raise JobError(f"cannot read job input {path}: {exc}") from exc

    def _run_zoo_segment(
        self, job: JobRecord, worker_id: str, guard: JobGuard, tracer: Tracer
    ) -> dict:
        """One zoo job: a preset-built config in BEST or ENSEMBLE mode.

        BEST reuses the plain segment-volume payload with the preset's
        config and prompt; ENSEMBLE
        runs the member grid with per-member checkpoint sub-directories, so
        every mode inherits the bit-identical SIGKILL-resume story.
        """
        from ..zoo.ensemble import EnsembleConfig, segment_volume_ensemble
        from ..zoo.registry import load_registry

        params = job.params
        if not job.input_path:
            raise JobError("zoo_segment job has no input_path volume snapshot")
        registry = load_registry(self.store.root)
        preset = registry.get(str(params.get("preset", "")))
        submitted_fp = str(params.get("preset_fingerprint", ""))
        if submitted_fp and preset.fingerprint() != submitted_fp:
            raise JobError(
                f"preset {preset.name!r} changed since submit "
                f"(fingerprint {submitted_fp} -> {preset.fingerprint()}); resubmit the batch"
            )
        mode = str(params.get("mode", "best"))
        pixel_size_nm = params.get("pixel_size_nm")
        pixel_size_nm = float(pixel_size_nm) if pixel_size_nm is not None else None
        zoo_fields = {
            "preset": preset.name,
            "preset_fingerprint": preset.fingerprint(),
            "registry_fingerprint": registry.fingerprint(),
            "mode": mode,
            "content_key": params.get("content_key"),
            "pixel_size_nm": pixel_size_nm,
        }

        if mode == "best":
            config = preset.build_config(pixel_size_nm=pixel_size_nm)
            result = self._run_segment_volume(
                job, worker_id, guard, tracer, config=config, prompt=preset.prompt
            )
            result.update(zoo_fields)
            return result

        if mode != "ensemble":
            raise JobError(f"zoo mode must be 'best' or 'ensemble', got {mode!r}")
        ensemble = EnsembleConfig.from_params(params.get("ensemble"))
        voxels = self._load_lazy_voxels(job.input_path)
        plan = get_fault_plan()

        def on_member(done: int, total: int) -> None:
            plan.crash_if("job_crash", member=done - 1)
            self._progress(job, worker_id, done, total, phase="ensemble")

        self._progress(job, worker_id, 0, ensemble.size, phase="ensemble")
        span = tracer.begin("job.ensemble", preset=preset.name, size=ensemble.size)
        try:
            res = segment_volume_ensemble(
                voxels,
                preset,
                ensemble=ensemble,
                pixel_size_nm=pixel_size_nm,
                checkpoint_dir=job.checkpoint_dir,
                resume=True,
                on_member=on_member,
            )
        finally:
            tracer.finish(span)
        out_path = self.store.result_path(job.job_id)
        np.savez_compressed(out_path, masks=res.fused_masks)
        masks = res.fused_masks
        return {
            **zoo_fields,
            "n_slices": int(masks.shape[0]),
            "volume_fraction": float(masks.mean()),
            "per_slice_coverage": [float(m.mean()) for m in masks],
            "ensemble": res.to_record(),
            "fallback": res.fallback,
            "masks_path": str(out_path),
            "masks_key": array_content_key(masks),
        }

    def _run_evaluate(self, job: JobRecord, worker_id: str, guard: JobGuard, tracer: Tracer) -> dict:
        """Mode C on the built-in benchmark, with per-method progress."""
        from ..eval.experiments import benchmark_request, evaluate_benchmark

        methods, options = benchmark_request(job.params)
        guard.check("evaluate job (setup)")
        self._progress(job, worker_id, 0, len(methods), phase="evaluate")
        _, record = evaluate_benchmark(
            methods,
            **options,
            on_method=lambda done, name: self._progress(
                job, worker_id, done, len(methods), phase="evaluate", method=name
            ),
        )
        return {"evaluations": record, "methods": methods}

    def _run_synthesize(self, job: JobRecord, worker_id: str, guard: JobGuard, tracer: Tracer) -> dict:
        """Generate a synthetic FIB-SEM acquisition into the results dir."""
        from ..data.datasets import make_sample
        from ..io.volume_io import save_volume_bundle

        params = job.params
        kind = str(params.get("sample_kind", "crystalline"))
        seed = int(params.get("seed", 0))
        size = int(params.get("size", 128))
        n_slices = int(params.get("n_slices", 4))
        guard.check("synthesize job")
        self._progress(job, worker_id, 0, 1, phase="synthesize")
        sample = make_sample(kind, seed=seed, shape=(size, size), n_slices=n_slices)
        out_path = self.store.result_path(job.job_id)
        save_volume_bundle(
            out_path,
            sample.volume.voxels,
            sample.catalyst_mask,
            {"kind": kind, "seed": seed, "job_id": job.job_id},
        )
        self._progress(job, worker_id, 1, 1, phase="synthesize")
        return {
            "sample_kind": kind,
            "shape": list(sample.volume.shape),
            "catalyst_fraction": float(sample.catalyst_mask.mean()),
            "out_path": str(out_path),
        }
