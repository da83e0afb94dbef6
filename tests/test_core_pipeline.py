"""Tests for the Zenesis pipeline (Mode A/B core)."""

import hashlib
import threading

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.core.prompts import SpatialHints, TextPrompt
from repro.core.results import SliceResult, VolumeResult
from repro.data import make_sample
from repro.errors import DeadlineExceededError, GroundingError, PipelineError, PromptError
from repro.io.lazy import ArrayLazyVolume
from repro.jobs import runner as jobs_runner
from repro.jobs.service import JobService
from repro.metrics.overlap import iou
from repro.observability import STAGE_SECONDS, get_registry, stage_rows
from repro.resilience.policy import Deadline
from repro.resilience.serving.lifecycle import request_scope

PROMPT = "catalyst particles"

#: sha1 of the meanbox mask stack of ``make_sample("crystalline", seed=0,
#: shape=(128, 128), n_slices=3)`` for "catalyst particles".
MEANBOX_GOLDEN_SHA1 = "b19d1fd2c264b13db47bda0495ab96f3fff20fd8"
#: sha1 of the eager ``temporal_mode="propagate"`` mask stack of the same
#: volume and prompt.
PROPAGATE_GOLDEN_SHA1 = "d808f3f9f7c489ff88bf0be1fe683f8cbd1a78ff"
GOLDEN = {"meanbox": MEANBOX_GOLDEN_SHA1, "propagate": PROPAGATE_GOLDEN_SHA1}


def _golden_volume() -> np.ndarray:
    return make_sample("crystalline", seed=0, shape=(128, 128), n_slices=3).volume.voxels


def _sha1(masks: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(masks).tobytes()).hexdigest()


def _stage_calls(stage: str) -> int:
    return get_registry().histogram(STAGE_SECONDS, stage=stage).count


def _adapt_misses(pipeline: ZenesisPipeline) -> int:
    ns = pipeline.cache.stats.namespaces.get("pipeline.adapt")
    return 0 if ns is None else ns.misses


def _adapt_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-adapt-ahead")]


class TestAdapt:
    def test_two_branches(self, pipeline, crystalline_sample):
        det_img, seg_img = pipeline.adapt(crystalline_sample.volume.voxels[0])
        assert det_img.shape == seg_img.shape == (128, 128)
        assert not np.allclose(det_img, seg_img)
        for img in (det_img, seg_img):
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_accepts_scientific_image(self, pipeline, crystalline_sample):
        det_img, _ = pipeline.adapt(crystalline_sample.volume.slice_image(0))
        assert det_img.shape == (128, 128)


class TestSegmentImage:
    def test_crystalline_beats_otsu_trap(self, pipeline, crystalline_sample):
        # At the reduced 128² test scale Zenesis lands lower than the full
        # 256² benchmark (~0.73 IoU) but must still clear the Otsu trap
        # (IoU == catalyst share of the film ≈ 0.1 here) by a wide margin.
        result = pipeline.segment_image(
            crystalline_sample.volume.slice_image(0), "catalyst particles"
        )
        assert isinstance(result, SliceResult)
        trap = crystalline_sample.catalyst_mask[0].mean() / crystalline_sample.film_mask[0].mean()
        assert iou(result.mask, crystalline_sample.catalyst_mask[0]) > max(2 * trap, 0.25)

    def test_amorphous_high_iou(self, pipeline, amorphous_sample):
        # Reduced 128² scale; the 256² benchmark asserts > 0.8 in benchmarks/.
        result = pipeline.segment_image(
            amorphous_sample.volume.slice_image(0), "catalyst particles"
        )
        assert iou(result.mask, amorphous_sample.catalyst_mask[0]) > 0.6

    def test_text_prompt_object(self, pipeline, amorphous_sample):
        result = pipeline.segment_image(
            amorphous_sample.volume.slice_image(0), TextPrompt("catalyst particles")
        )
        assert result.prompt == "catalyst particles"

    def test_background_prompt_segments_background(self, pipeline, crystalline_sample):
        result = pipeline.segment_image(
            crystalline_sample.volume.slice_image(0), "dark background"
        )
        bg = ~crystalline_sample.film_mask[0]
        assert (result.mask & bg).sum() / max(result.mask.sum(), 1) > 0.7

    def test_nonsense_prompt_empty_mask(self, pipeline, crystalline_sample):
        result = pipeline.segment_image(crystalline_sample.volume.slice_image(0), "wibble wobble")
        assert not result.mask.any()
        assert result.detection.n_boxes == 0

    def test_strict_grounding_raises(self, crystalline_sample):
        strict = ZenesisPipeline(ZenesisConfig(strict_grounding=True))
        with pytest.raises(GroundingError):
            strict.segment_image(crystalline_sample.volume.slice_image(0), "wibble wobble")

    def test_empty_prompt_rejected(self, pipeline, crystalline_sample):
        with pytest.raises(PromptError):
            pipeline.segment_image(crystalline_sample.volume.slice_image(0), "   ")

    def test_user_box_hint_extends_detection(self, pipeline, amorphous_sample):
        sl = amorphous_sample.volume.slice_image(1)
        base = pipeline.segment_image(sl, "catalyst particles")
        hinted = pipeline.segment_image(
            sl, "catalyst particles", hints=SpatialHints(boxes=((5.0, 70.0, 60.0, 120.0),))
        )
        assert hinted.metadata["n_user_boxes"] == 1

    def test_point_hint_adds_mask(self, pipeline, amorphous_sample):
        sl = amorphous_sample.volume.slice_image(1)
        gt = amorphous_sample.catalyst_mask[1]
        ys, xs = np.nonzero(gt)
        point = (float(xs[0]), float(ys[0]))
        hinted = pipeline.segment_image(
            sl, "catalyst particles", hints=SpatialHints(positive_points=(point,))
        )
        assert hinted.mask[int(point[1]), int(point[0])] or hinted.mask.any()

    def test_profiler_tracks_stages(self, crystalline_sample):
        p = ZenesisPipeline()
        p.segment_image(crystalline_sample.volume.slice_image(0), "catalyst particles")
        stages = {r["stage"] for r in stage_rows()}
        assert {"adapt.normalize", "adapt.denoise", "dino.ground", "sam.set_image", "sam.box_prompts"} <= stages

    def test_record_export_json_safe(self, pipeline, crystalline_sample):
        import json

        result = pipeline.segment_image(crystalline_sample.volume.slice_image(0), "catalyst particles")
        json.dumps(result.to_record())


class TestSegmentVolume:
    def test_volume_result(self, pipeline, amorphous_sample):
        result = pipeline.segment_volume(amorphous_sample.volume, "catalyst particles")
        assert isinstance(result, VolumeResult)
        assert result.n_slices == amorphous_sample.n_slices
        assert result.masks.shape == amorphous_sample.catalyst_mask.shape
        # Mean per-slice IoU comfortably above the Otsu trap.
        ious = [
            iou(result.masks[z], amorphous_sample.catalyst_mask[z])
            for z in range(result.n_slices)
        ]
        assert np.mean(ious) > 0.6

    def test_temporal_off(self, pipeline, amorphous_sample):
        result = pipeline.segment_volume(
            amorphous_sample.volume, "catalyst particles", temporal=False
        )
        assert result.refinement_report["n_replaced"] == 0

    def test_raw_array_accepted(self, pipeline, amorphous_sample):
        result = pipeline.segment_volume(amorphous_sample.volume.voxels, "catalyst particles")
        assert result.n_slices == amorphous_sample.n_slices

    def test_2d_rejected(self, pipeline):
        with pytest.raises(GroundingError):
            pipeline.segment_volume(np.zeros((16, 16)), "catalyst particles")

    def test_volume_fraction(self, pipeline, amorphous_sample):
        result = pipeline.segment_volume(amorphous_sample.volume, "catalyst particles")
        gt_frac = amorphous_sample.catalyst_mask.mean()
        assert result.volume_fraction() == pytest.approx(gt_frac, abs=0.1)

    def test_meanbox_masks_golden(self):
        # Pins the exact Mode B output: a refactor that moves any mask pixel
        # of this small crystalline volume fails here.  Refresh the digest
        # only for a change that is meant to alter segmentation output.
        vol = make_sample("crystalline", seed=0, shape=(128, 128), n_slices=3).volume.voxels
        masks = ZenesisPipeline().segment_volume(vol, "catalyst particles", temporal_mode="meanbox").masks
        assert masks.shape == vol.shape and masks.dtype == bool
        digest = hashlib.sha1(np.ascontiguousarray(masks).tobytes()).hexdigest()
        assert digest == MEANBOX_GOLDEN_SHA1

    def test_propagate_masks_golden(self):
        # The propagate counterpart of the meanbox golden above.
        masks = ZenesisPipeline().segment_volume(_golden_volume(), PROMPT, temporal_mode="propagate").masks
        assert _sha1(masks) == PROPAGATE_GOLDEN_SHA1

    def test_propagate_stream_equals_eager(self, tmp_path):
        vol = _golden_volume()
        eager = ZenesisPipeline().segment_volume(vol, PROMPT, temporal_mode="propagate").masks
        streamed = ZenesisPipeline().segment_volume_stream(
            ArrayLazyVolume(vol), PROMPT, temporal_mode="propagate", checkpoint_dir=tmp_path / "ck"
        )
        assert np.array_equal(streamed.assemble_masks(), eager)


class TestAdaptAhead:
    """Slice z+1 is adapted on a worker while slice z is processed.

    The worker runs the one adaptation body, so outputs, cache misses and
    adaptation work per slice are exactly what a serial run has.
    """

    @pytest.mark.parametrize("mode", ["meanbox", "propagate"])
    def test_cold_run_misses_adapt_once_per_slice(self, mode):
        vol = _golden_volume()
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode=mode))
        pipe.segment_volume(vol, PROMPT)
        assert _adapt_misses(pipe) == vol.shape[0]

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_repeated_slices_add_no_adaptation(self, use_cache):
        # The engine short-circuits slices 2 and 3 (verbatim repeats of
        # slice 1) without adapting them, so neither may be scheduled.
        vol = _golden_volume()
        repeated = np.stack([vol[0], vol[1], vol[1], vol[1], vol[2]])
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode="propagate", use_cache=use_cache))
        result = pipe.segment_volume(repeated, PROMPT)
        assert result.refinement_report["short_circuits"] == 2
        assert _adapt_misses(pipe) == (3 if use_cache else 0)
        assert _stage_calls("adapt.denoise") == 3

    @pytest.mark.parametrize("mode", ["meanbox", "propagate"])
    def test_uncached_run_adapts_each_slice_once(self, mode):
        vol = _golden_volume()
        cached = ZenesisPipeline(ZenesisConfig(temporal_mode=mode)).segment_volume(vol, PROMPT)
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode=mode, use_cache=False))
        before = _stage_calls("adapt.denoise")
        uncached = pipe.segment_volume(vol, PROMPT)
        assert np.array_equal(uncached.masks, cached.masks)
        assert _stage_calls("adapt.denoise") - before == vol.shape[0]

    def test_adapt_outside_a_volume_call_is_serial(self, crystalline_sample):
        pipe = ZenesisPipeline()
        pipe.prefetch_adapt(crystalline_sample.volume.voxels[1])  # no scope: a no-op
        assert not _adapt_threads()
        det, seg = pipe.adapt(crystalline_sample.volume.voxels[1])
        assert det.shape == seg.shape == (128, 128)
        assert _adapt_misses(pipe) == 1


class TestAdaptAheadCleanup:
    """An aborted volume call leaves no worker thread and no in-flight result."""

    @pytest.fixture
    def scopes(self, monkeypatch):
        created = []

        class Recorded(pipeline_mod._AdaptAhead):
            def __init__(self, pipeline):
                super().__init__(pipeline)
                created.append(self)

        monkeypatch.setattr(pipeline_mod, "_AdaptAhead", Recorded)
        return created

    @staticmethod
    def _assert_clean(pipe, scopes):
        assert scopes, "the volume call opened no adapt-ahead scope"
        assert not _adapt_threads()
        assert pipe._ahead == {}
        assert all(not scope._pending for scope in scopes)

    @staticmethod
    def _expire_after_slice(pipe, monkeypatch, z_last: int) -> Deadline:
        """A deadline that runs out once slice ``z_last`` has been grounded."""
        times = [0.0]
        ground = pipe.ground

        def grounded(*args, **kwargs):
            det = ground(*args, **kwargs)
            if kwargs.get("slice_index") == z_last:
                times[0] = 5.0
            return det

        monkeypatch.setattr(pipe, "ground", grounded)
        return Deadline(1.0, clock=lambda: times[0])

    def test_volume_abort_then_golden(self, monkeypatch, scopes):
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode="propagate"))
        monkeypatch.setenv("REPRO_FAULTS", "volume_abort@slice=2")
        with pytest.raises(PipelineError, match="volume_abort"):
            pipe.segment_volume(_golden_volume(), PROMPT)
        self._assert_clean(pipe, scopes)
        monkeypatch.delenv("REPRO_FAULTS")
        assert _sha1(pipe.segment_volume(_golden_volume(), PROMPT).masks) == PROPAGATE_GOLDEN_SHA1

    @pytest.mark.parametrize("mode", ["meanbox", "propagate"])
    def test_expired_deadline_then_golden(self, mode, monkeypatch, scopes):
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode=mode))
        # Propagation grounds slice 0 only; meanbox grounds every slice.
        deadline = self._expire_after_slice(pipe, monkeypatch, 0 if mode == "propagate" else 1)
        with request_scope(deadline):
            with pytest.raises(DeadlineExceededError):
                pipe.segment_volume(_golden_volume(), PROMPT)
        self._assert_clean(pipe, scopes)
        monkeypatch.undo()
        assert _sha1(pipe.segment_volume(_golden_volume(), PROMPT).masks) == GOLDEN[mode]

    def test_concurrent_calls_on_one_pipeline(self, monkeypatch, scopes):
        """One call's abort and cleanup never touch another's in-flight work."""
        pipe = ZenesisPipeline()
        deadline = self._expire_after_slice(pipe, monkeypatch, 1)
        out: dict[str, object] = {}

        def aborted():
            with request_scope(deadline):
                try:
                    pipe.segment_volume(_golden_volume(), PROMPT)
                except DeadlineExceededError as exc:
                    out["aborted"] = exc

        def completed():
            out["masks"] = pipe.segment_volume(_golden_volume(), PROMPT).masks

        threads = [threading.Thread(target=aborted), threading.Thread(target=completed)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert isinstance(out.get("aborted"), DeadlineExceededError)
        assert _sha1(out["masks"]) == MEANBOX_GOLDEN_SHA1
        self._assert_clean(pipe, scopes)

    @pytest.mark.parametrize("mode", ["meanbox", "propagate"])
    def test_jobs_runner_memoised_pipeline(self, mode, tmp_path, monkeypatch, scopes):
        """A job cancelled mid-volume, then a job on the same memoised pipeline."""
        monkeypatch.setattr(jobs_runner, "_PIPELINE_MEMO", {})
        svc = JobService(tmp_path / "jobs")
        first = svc.submit_segment_volume(_golden_volume(), PROMPT, temporal_mode=mode)
        second = svc.submit_segment_volume(_golden_volume(), PROMPT, temporal_mode=mode)
        ground = ZenesisPipeline.ground

        def grounded(pipe, *args, **kwargs):
            # Cancel the first job once it has grounded slice 0: its guard
            # stops it at the next slice, with slice 1 already in flight.
            det = ground(pipe, *args, **kwargs)
            rec = svc.store.get(first.job_id)
            if not rec.cancel_requested and not rec.terminal:
                rec.cancel_requested = True
                svc.store.upsert(rec)
            return det

        monkeypatch.setattr(ZenesisPipeline, "ground", grounded)
        assert svc.runner.run_until_idle() == 2
        assert svc.result(first.job_id)["state"] == "cancelled"
        res = svc.result(second.job_id)
        assert res["state"] == "succeeded"
        with np.load(res["result"]["masks_path"]) as bundle:
            assert _sha1(bundle["masks"]) == GOLDEN[mode]
        (pipe,) = jobs_runner._PIPELINE_MEMO.values()
        self._assert_clean(pipe, scopes)
