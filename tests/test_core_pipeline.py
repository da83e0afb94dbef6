"""Tests for the Zenesis pipeline (Mode A/B core)."""

import hashlib

import numpy as np
import pytest

from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.core.prompts import SpatialHints, TextPrompt
from repro.core.results import SliceResult, VolumeResult
from repro.data import make_sample
from repro.errors import GroundingError, PromptError
from repro.metrics.overlap import iou

#: sha1 of the meanbox mask stack of ``make_sample("crystalline", seed=0,
#: shape=(128, 128), n_slices=3)`` for "catalyst particles".
MEANBOX_GOLDEN_SHA1 = "b19d1fd2c264b13db47bda0495ab96f3fff20fd8"


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
        stages = set(p.profiler.records)
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
