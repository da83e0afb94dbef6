"""The no-code JSON API: every platform capability as a request/response pair.

``ApiHandler.handle`` maps an action name + JSON-safe params onto session
operations, returning JSON-safe dicts.  Errors become ``{"ok": False,
"error": ..., "type": ...}`` rather than exceptions, so the HTTP layer and
the benchmark drivers share one contract.

Actions
-------
``create_session``, ``drop_session``, ``load_file``, ``load_array``
(base64 npy or nested-list upload), ``preview``, ``select_slice``,
``segment`` (Mode A), ``rectify``, ``further_segment``,
``segment_volume`` (Mode B), ``evaluate`` (Mode C), ``dashboard``,
``adapt_spec`` (custom adaptation pipelines), ``mask_png`` (render export),
``job_submit`` / ``job_status`` / ``job_result`` / ``job_events`` /
``job_cancel`` (durable background jobs; see :mod:`repro.jobs`).

Async contract: when a :class:`~repro.jobs.JobService` is attached,
``segment_volume`` on a volume of ``auto_job_slices`` slices or more is
*redirected* to a background job — the response carries ``accepted: true``
plus a ``job_id`` (the HTTP layer maps it to a 202) instead of blocking the
request thread for minutes.  ``mode: "sync"`` / ``mode: "async"`` override
the size heuristic per request.  Jobs snapshot their inputs at submit time,
so they outlive the session that spawned them.

Serving contract: session-bound actions run with the session's lock held
(concurrent requests on one session serialize; distinct sessions run in
parallel) and under a per-request :class:`~repro.resilience.Deadline`
(``request_deadline_s`` default, overridable per request via
``deadline_s``).  Deadline expiry raises *before* the session mutation
commits and surfaces as ``{"ok": false, "type": "DeadlineExceededError"}``
— the HTTP layer maps it to a 504.  Unknown or evicted session ids follow
the ``{"ok": false, "error": "unknown_session"}`` contract, with an
``evicted`` reason when the store aged the session out.
"""

from __future__ import annotations

import base64
import binascii
import io
from typing import Callable

import numpy as np

from ..adapt.pipeline import AdaptationPipeline
from ..core.driver import ENGINES
from ..core.prompts import SpatialHints
from ..errors import (
    FormatError,
    JobError,
    ReproError,
    SessionError,
    UnknownSessionError,
    ValidationError,
    error_record,
)
from ..eval.dashboard import render_dashboard
from ..eval.experiments import benchmark_request, evaluate_benchmark
from ..io.png import encode_png
from ..resilience.policy import Deadline
from ..resilience.serving import default_breakers, request_scope, serving_snapshot
from ..viz.overlay import overlay_mask
from .session import Session, SessionStore

__all__ = ["ApiHandler"]


def _job_options(request: dict, session: Session | None, **casts: Callable) -> dict:
    """Job-service submit keywords: the ``casts`` params the request sets,
    each cast (unset ones keep the service's defaults), plus the session."""
    opts = {name: cast(request[name]) for name, cast in casts.items() if request.get(name) is not None}
    if session is not None:
        opts["session_id"] = session.session_id
    return opts


class ApiHandler:
    """Dispatches JSON actions onto a :class:`SessionStore`."""

    def __init__(
        self,
        store: SessionStore | None = None,
        *,
        request_deadline_s: float | None = None,
        jobs=None,
        auto_job_slices: int | None = None,
    ) -> None:
        # ``is not None``, not truthiness: an empty SessionStore has
        # ``len() == 0`` and must not be silently replaced.
        self.store = store if store is not None else SessionStore()
        # The serving path always has breakers; a store constructed without
        # them (plain library use) gets the standard grounding+SAM pair.
        if not self.store.breakers:
            self.store.breakers = default_breakers()
        self.breakers = self.store.breakers
        self.request_deadline_s = request_deadline_s
        #: Optional :class:`repro.jobs.JobService`; None disables job actions.
        self.jobs = jobs
        #: Volumes with at least this many slices go async (None: never).
        self.auto_job_slices = auto_job_slices
        self._actions: dict[str, Callable[[dict], dict]] = {
            "create_session": self._create_session,
            "drop_session": self._drop_session,
            "load_file": self._load_file,
            "load_array": self._load_array,
            "preview": self._preview,
            "select_slice": self._select_slice,
            "segment": self._segment,
            "rectify": self._rectify,
            "further_segment": self._further_segment,
            "segment_volume": self._segment_volume,
            "evaluate": self._evaluate,
            "dashboard": self._dashboard,
            "adapt_spec": self._adapt_spec,
            "mask_png": self._mask_png,
            "segment_multi": self._segment_multi,
            "propagate_volume": self._propagate_volume,
            "calibrate_concept": self._calibrate_concept,
            "zoo_list": self._zoo_list,
            "zoo_show": self._zoo_show,
            "job_submit": self._job_submit,
            "job_status": self._job_status,
            "job_result": self._job_result,
            "job_events": self._job_events,
            "job_cancel": self._job_cancel,
        }

    # -- dispatch -----------------------------------------------------------

    def _request_deadline(self, request: dict) -> Deadline | None:
        """The request's deadline: per-request ``deadline_s`` wins over the
        handler default; absent/non-positive means unbounded."""
        budget = request.get("deadline_s", self.request_deadline_s)
        if budget is None:
            return None
        budget = float(budget)
        return Deadline(budget) if budget > 0 else None

    def handle(self, request: dict) -> dict:
        """Process one request dict: ``{"action": ..., ...params}``."""
        action = request.get("action")
        handler = self._actions.get(action)  # type: ignore[arg-type]
        if handler is None:
            return {"ok": False, "type": "UnknownAction", "error": f"unknown action {action!r}; known: {sorted(self._actions)}"}
        try:
            deadline = self._request_deadline(request)
            with request_scope(deadline):
                sid = request.get("session_id")
                # create_session may carry a *proposed* id (a client's
                # idempotent-retry key) — it must not be resolved as an
                # existing session; drop_session is idempotent on gone
                # sessions; both bypass the store lookup.
                if sid is None or action in ("drop_session", "create_session"):
                    payload = handler(request)
                else:
                    session = self.store.get(str(sid))
                    with session.lock:
                        # Re-check after the lock wait: a request queued
                        # behind a long mutation may already be overdue.
                        if deadline is not None:
                            deadline.check(f"action {action!r} (queued on session lock)")
                        payload = handler(request)
        except UnknownSessionError as exc:
            payload = {"ok": False, "type": "SessionError", "error": "unknown_session", "detail": str(exc)}
            if exc.evicted_reason is not None:
                payload["evicted"] = exc.evicted_reason
            return payload
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, **error_record(exc)}
        payload.setdefault("ok", True)
        return payload

    def _session(self, request: dict) -> Session:
        return self.store.get(str(request["session_id"]))

    # -- handlers --------------------------------------------------------------

    def _create_session(self, request: dict) -> dict:
        """New workspace; honors a proposed ``session_id`` (idempotent)."""
        sid = request.get("session_id")
        session = self.store.create(session_id=str(sid) if sid is not None else None)
        return {"session_id": session.session_id}

    def _drop_session(self, request: dict) -> dict:
        """Release a workspace.  Idempotent: dropping twice is not an error."""
        self.store.drop(str(request["session_id"]))
        return {"dropped": True}

    def _load_file(self, request: dict) -> dict:
        """Load from a server-visible path; ``stream: true`` attaches the
        volume lazily (upload-by-path for data too large to post inline)."""
        session = self._session(request)
        preview = session.load_file(
            str(request["path"]),
            modality=request.get("modality", "unknown"),
            stream=bool(request.get("stream", False)),
        )
        return {"preview": preview}

    def _load_array(self, request: dict) -> dict:
        """Upload an array directly: base64 ``.npy`` bytes or nested lists.

        Every malformed payload — corrupt base64, truncated/invalid npy
        stream, ragged nested lists, NaN/inf values — surfaces as a
        structured ``{"ok": false}`` validation/format error, never as a
        traceback.
        """
        session = self._session(request)
        data = request.get("data_base64")
        if data is not None:
            try:
                raw = base64.b64decode(str(data), validate=True)
            except (binascii.Error, ValueError) as exc:
                raise ValidationError(f"data_base64 is not valid base64: {exc}") from None
            try:
                arr = np.load(io.BytesIO(raw), allow_pickle=False)
            except (ValueError, EOFError, OSError) as exc:
                raise FormatError(f"decoded payload is not a valid .npy stream: {exc}") from None
        elif "array" in request:
            try:
                arr = np.asarray(request["array"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"array payload is not rectangular/numeric: {exc}") from None
        else:
            raise ValidationError("load_array requires 'data_base64' or 'array'")
        preview = session.load_array(arr, modality=request.get("modality", "unknown"))
        return {"preview": preview}

    def _preview(self, request: dict) -> dict:
        return {"preview": self._session(request).preview()}

    def _select_slice(self, request: dict) -> dict:
        session = self._session(request)
        return {"preview": session.select_slice(int(request["index"]))}

    def _segment(self, request: dict) -> dict:
        session = self._session(request)
        hints = None
        if any(k in request for k in ("boxes", "positive_points", "negative_points")):
            hints = SpatialHints(
                boxes=tuple(tuple(b) for b in request.get("boxes", [])),
                positive_points=tuple(tuple(p) for p in request.get("positive_points", [])),
                negative_points=tuple(tuple(p) for p in request.get("negative_points", [])),
            )
        result = session.segment(str(request["prompt"]), hints=hints)
        payload = {"result": result.to_record()}
        degraded = result.metadata.get("degraded")
        if degraded:
            payload["degraded"] = True
            payload["degraded_stages"] = list(degraded)
        return payload

    def _rectify(self, request: dict) -> dict:
        session = self._session(request)
        return {"rectify": session.rectify_click(float(request["x"]), float(request["y"]))}

    def _further_segment(self, request: dict) -> dict:
        session = self._session(request)
        node = session.further_segment(request["box"], str(request["prompt"]))
        return {
            "depth": node.depth,
            "area": int(node.mask.sum()),
            "box": node.box.tolist() if node.box is not None else None,
        }

    def _segment_volume(self, request: dict) -> dict:
        session = self._session(request)
        mode = request.get("mode")  # None | "sync" | "async"
        if mode not in (None, "sync", "async"):
            raise ValidationError(f"mode must be 'sync' or 'async', got {mode!r}")
        n_slices = session.volume.shape[0] if session.volume is not None else 0
        go_async = mode == "async" or (
            mode is None
            and self.jobs is not None
            and self.auto_job_slices is not None
            and n_slices >= self.auto_job_slices
        )
        if session.lazy_volume is not None:
            # A streamed volume never runs synchronously — materializing it
            # is exactly what stream=True promised not to do.
            if mode == "sync":
                raise ValidationError(
                    "mode='sync' is invalid for a volume loaded with "
                    "stream=True; drop 'mode' to run it as a streaming job"
                )
            go_async = True
        if go_async:
            return self._submit_volume_job(session, request, redirected=mode is None)
        temporal_mode = request.get("temporal_mode")
        if temporal_mode is not None and temporal_mode not in ENGINES:
            raise ValidationError(
                f"temporal_mode must be 'meanbox' or 'propagate', got {temporal_mode!r}"
            )
        result = session.segment_volume(
            str(request["prompt"]),
            temporal=bool(request.get("temporal", True)),
            temporal_mode=temporal_mode,
        )
        return {
            "n_slices": result.n_slices,
            "volume_fraction": result.volume_fraction(),
            "refinement": result.refinement_report,
            "per_slice_coverage": [float(m.mean()) for m in result.masks],
        }

    # -- background jobs -------------------------------------------------------

    def _require_jobs(self):
        if self.jobs is None:
            raise JobError(
                "background jobs are disabled on this server "
                "(start the server with a jobs directory)"
            )
        return self.jobs

    def _submit_volume_job(self, session: Session, request: dict, *, redirected: bool) -> dict:
        """Turn a segment_volume request into a durable background job."""
        jobs = self._require_jobs()
        prompt = str(request["prompt"])
        opts = _job_options(request, session, temporal=bool, temporal_mode=str, priority=int)
        opts["deadline_s"] = request.get("job_deadline_s")
        if session.lazy_volume is not None:
            if session.lazy_volume.source_path is None:
                raise JobError("streaming jobs need an on-disk source volume")
            opts.update(_job_options(request, None, on_corrupt=str, memory_budget_mb=float))
            job = jobs.submit_segment_volume_path(session.lazy_volume.source_path, prompt, **opts)
        elif session.volume is None:
            raise JobError("segment_volume jobs require a loaded volume")
        else:
            job = jobs.submit_segment_volume(session.volume.voxels, prompt, **opts)
        session.record_job(job)
        return {"accepted": True, "job_id": job.job_id, "job": job.public_view(), "redirected": redirected}

    def _zoo_registry(self):
        """The preset registry, with the jobs dir's ``zoo.json`` overlay when
        the server has one."""
        from ..zoo import load_registry

        jobs_dir = self.jobs.store.root if self.jobs is not None else None
        return load_registry(jobs_dir)

    def _zoo_list(self, request: dict) -> dict:
        registry = self._zoo_registry()
        doc = registry.describe()
        px = request.get("pixel_size_nm")
        if px is not None:
            doc["suggested"] = list(registry.suggest(float(px)))
        return {"zoo": doc}

    def _zoo_show(self, request: dict) -> dict:
        # registry.get raises UnknownPresetError -> structured ok:false.
        return {"preset": self._zoo_registry().get(str(request["preset"])).describe()}

    def _submit_zoo_job(self, request: dict) -> dict:
        """``job_submit`` with ``kind: zoo_segment`` — preset-driven, durable,
        idempotent per (volume content, preset, mode)."""
        jobs = self._require_jobs()
        path = request.get("path")
        session = self._session(request) if request.get("session_id") is not None else None
        if path is None and session is not None and session.lazy_volume is not None:
            path = session.lazy_volume.source_path
        if path is None:
            raise JobError("zoo_segment jobs need 'path' (or a session with a streamed volume)")
        opts = _job_options(
            request,
            session,
            mode=str,
            stream=bool,
            on_corrupt=str,
            memory_budget_mb=float,
            ensemble=dict,
            priority=int,
        )
        job, created = jobs.submit_zoo_segment(
            str(path), str(request["preset"]), deadline_s=request.get("job_deadline_s"), **opts
        )
        if session is not None:
            session.record_job(job)
        return {"accepted": True, "job_id": job.job_id, "job": job.public_view(), "created": created}

    def _job_submit(self, request: dict) -> dict:
        """Explicit submit of any job kind; ``accepted: true`` maps to 202."""
        jobs = self._require_jobs()
        kind = str(request.get("kind", "segment_volume"))
        if kind == "segment_volume":
            return self._submit_volume_job(self._session(request), request, redirected=False)
        if kind == "zoo_segment":
            return self._submit_zoo_job(request)
        session = self._session(request) if request.get("session_id") is not None else None
        job = jobs.submit(
            kind, dict(request.get("params", {})), **_job_options(request, session, priority=int)
        )
        if session is not None:
            session.record_job(job)
        return {"accepted": True, "job_id": job.job_id, "job": job.public_view()}

    def _job_status(self, request: dict) -> dict:
        return {"job": self._require_jobs().status(str(request["job_id"]))}

    def _job_result(self, request: dict) -> dict:
        return self._require_jobs().result(str(request["job_id"]))

    def _job_events(self, request: dict) -> dict:
        """Incremental progress: events past ``cursor`` + the next cursor."""
        return self._require_jobs().events(
            str(request["job_id"]),
            cursor=int(request.get("cursor", 0)),
            limit=int(request["limit"]) if "limit" in request else None,
        )

    def _job_cancel(self, request: dict) -> dict:
        return {"job": self._require_jobs().cancel(str(request["job_id"]))}

    def _evaluate(self, request: dict) -> dict:
        """Mode C on the built-in benchmark (or a reduced variant)."""
        methods, options = benchmark_request(request)
        evaluations, record = evaluate_benchmark(methods, **options)
        self._last_evaluations = evaluations
        return {"evaluations": record}

    def _dashboard(self, request: dict) -> dict:
        del request
        evaluations = getattr(self, "_last_evaluations", None)
        if not evaluations:
            raise SessionError("run evaluate before dashboard")
        return {
            "html": render_dashboard(
                evaluations,
                serving=serving_snapshot(breakers=self.breakers, store=self.store),
                jobs=self.jobs.snapshot() if self.jobs is not None else None,
            )
        }

    def _adapt_spec(self, request: dict) -> dict:
        """Validate + apply a custom adaptation spec to the active image."""
        session = self._session(request)
        pipeline = AdaptationPipeline.from_spec(request["steps"])
        adapted = pipeline.run_on(session.current_image())
        return {"describe": adapted.describe(), "pipeline": pipeline.describe()}

    def _segment_multi(self, request: dict) -> dict:
        """Multi-object segmentation: several prompts, exclusive label map."""
        from ..core.multiobject import segment_multi

        session = self._session(request)
        prompts = [str(p) for p in request["prompts"]]
        result = segment_multi(session.pipeline, session.current_image(), prompts)
        return {
            "classes": list(result.class_names),
            "coverage": result.coverage(),
            "unassigned": float((result.labels == 0).mean()),
        }

    def _propagate_volume(self, request: dict) -> dict:
        """SAM2-style propagation through the loaded volume."""
        from ..core.propagation import propagate_volume

        session = self._session(request)
        if session.volume is None:
            raise SessionError("propagate_volume requires a loaded volume")
        result = propagate_volume(
            session.pipeline,
            session.volume,
            str(request["prompt"]),
            reference_slice=int(request.get("reference_slice", 0)),
        )
        session.last_volume_result = result
        return {
            "n_slices": result.n_slices,
            "volume_fraction": result.volume_fraction(),
            "regrounds": result.refinement_report.get("regrounds", 0),
        }

    def _calibrate_concept(self, request: dict) -> dict:
        """Fine-tuning: fit a concept from mask annotations on given slices.

        ``annotations`` is a list of {"slice": int, "mask_rle": {...}} using
        the RLE format the segment action exports.
        """
        from ..core.masks import rle_decode
        from ..models.tuning import register_calibrated_concept

        session = self._session(request)
        if session.volume is None:
            raise SessionError("calibrate_concept requires a loaded volume")
        word = str(request["word"])
        images, masks = [], []
        for ann in request["annotations"]:
            z = int(ann["slice"])
            _, seg_img = session.pipeline.adapt(session.volume.voxels[z])
            images.append(seg_img)
            masks.append(rle_decode(ann["mask_rle"]))
        result = register_calibrated_concept(session.pipeline.dino.lexicon, word, images, masks)
        return {
            "word": word,
            "separation": result.separation,
            "bias": result.bias,
            "channel_weights": result.channel_weights,
        }

    def _mask_png(self, request: dict) -> dict:
        """Export the current mask overlay as base64 PNG (the UI download)."""
        session = self._session(request)
        mask = session.current_mask()
        _, seg_img = session.pipeline.adapt(session.current_image())
        rgb = overlay_mask(seg_img, mask)
        png = encode_png(rgb)
        return {"png_base64": base64.b64encode(png).decode("ascii"), "bytes": len(png)}
