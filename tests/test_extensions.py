"""Tests for the future-work extensions: fine-tuning, multi-object,
CLIPSeg baseline, SAM2-style propagation, and the new modalities."""

import numpy as np
import pytest

from repro.core.multiobject import segment_multi
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.core.propagation import PropagationConfig, propagate_volume
from repro.data.synthesis.modalities import (
    synthesize_edx_map,
    synthesize_stm_topography,
    synthesize_xrd_pattern,
)
from repro.errors import PipelineError, PromptError, ValidationError
from repro.metrics.overlap import iou
from repro.models.clipseg import ClipSegSurrogate
from repro.models.text import default_lexicon
from repro.models.tuning import calibrate_concept, register_calibrated_concept


class TestConceptCalibration:
    def test_learns_catalyst_direction(self, crystalline_sample, pipeline):
        # Train on slice 0-1, evaluate grounding on slice 2.
        imgs, masks = [], []
        for z in (0, 1):
            _, seg_img = pipeline.adapt(crystalline_sample.volume.voxels[z])
            imgs.append(seg_img)
            masks.append(crystalline_sample.catalyst_mask[z])
        result = calibrate_concept(imgs, masks, rng=1)
        assert result.separation > 1.0, "catalyst must be separable in feature space"
        assert abs(np.linalg.norm(result.vector) - 1.0) < 1e-5
        # The learned direction must treat brightness cues positively: the
        # exact split between raw and local brightness varies with the LDA
        # covariance, so check their combined weight.
        combined = (
            result.channel_weights["relative_brightness"] + result.channel_weights["intensity"]
        )
        assert combined > 0.15

    def test_registered_concept_grounds(self, crystalline_sample):
        from repro.core.pipeline import ZenesisConfig

        lexicon = default_lexicon()
        pipe = ZenesisPipeline(ZenesisConfig())
        pipe.dino.lexicon = lexicon
        imgs, masks = [], []
        for z in (0, 1):
            _, seg_img = pipe.adapt(crystalline_sample.volume.voxels[z])
            imgs.append(seg_img)
            masks.append(crystalline_sample.catalyst_mask[z])
        register_calibrated_concept(lexicon, "iridia", imgs, masks, rng=1)
        assert "iridia" in lexicon
        result = pipe.segment_image(crystalline_sample.volume.slice_image(2), "iridia")
        score = iou(result.mask, crystalline_sample.catalyst_mask[2])
        assert score > 0.3, f"calibrated concept must ground usefully, got {score}"

    def test_validation(self):
        with pytest.raises(ValidationError):
            calibrate_concept([], [])
        img = np.random.default_rng(0).random((32, 32)).astype(np.float32)
        with pytest.raises(ValidationError, match="positive and negative"):
            calibrate_concept([img], [np.zeros((32, 32), dtype=bool)])


class TestMultiObject:
    def test_two_classes_exclusive(self, pipeline, amorphous_sample):
        sl = amorphous_sample.volume.slice_image(0)
        result = segment_multi(pipeline, sl, ["catalyst particles", "dark background"])
        assert result.n_classes == 2
        # Labels are exclusive by construction.
        cat = result.mask_of("catalyst particles")
        bg = result.mask_of("dark background")
        assert not (cat & bg).any()
        # Each class lands on its phase.
        gt_cat = amorphous_sample.catalyst_mask[0]
        gt_bg = ~amorphous_sample.film_mask[0]
        assert (cat & gt_cat).sum() / max(cat.sum(), 1) > 0.5
        assert (bg & gt_bg).sum() / max(bg.sum(), 1) > 0.7

    def test_coverage_sums_le_one(self, pipeline, amorphous_sample):
        sl = amorphous_sample.volume.slice_image(0)
        result = segment_multi(pipeline, sl, ["catalyst particles", "membrane film"])
        assert sum(result.coverage().values()) <= 1.0 + 1e-9

    def test_mask_of_validation(self, pipeline, amorphous_sample):
        sl = amorphous_sample.volume.slice_image(0)
        result = segment_multi(pipeline, sl, ["catalyst particles"])
        with pytest.raises(PromptError):
            result.mask_of("nonexistent")
        with pytest.raises(PromptError):
            result.mask_of(5)

    def test_prompt_validation(self, pipeline, amorphous_sample):
        sl = amorphous_sample.volume.slice_image(0)
        with pytest.raises(PromptError):
            segment_multi(pipeline, sl, [])
        with pytest.raises(PromptError):
            segment_multi(pipeline, sl, ["a b", "a b"])


class TestClipSeg:
    def test_direct_text_to_mask(self, amorphous_sample, pipeline):
        _, seg_img = pipeline.adapt(amorphous_sample.volume.voxels[0])
        clip = ClipSegSurrogate()
        mask = clip.segment(seg_img, "catalyst particles")
        gt = amorphous_sample.catalyst_mask[0]
        assert iou(mask, gt) > 0.3

    def test_heatmap_range(self, amorphous_sample, pipeline):
        _, seg_img = pipeline.adapt(amorphous_sample.volume.voxels[0])
        heat = ClipSegSurrogate().heatmap(seg_img, "catalyst particles")
        assert heat.min() >= 0.0 and heat.max() <= 1.0

    def test_zenesis_beats_clipseg_boundaries(self, amorphous_sample, pipeline):
        # The ablation claim: SAM refinement buys boundary quality over
        # direct relevance thresholding.
        from repro.metrics.boundary import boundary_f1

        sl = amorphous_sample.volume.slice_image(1)
        gt = amorphous_sample.catalyst_mask[1]
        _, seg_img = pipeline.adapt(sl)
        clip_mask = ClipSegSurrogate().segment(seg_img, "catalyst particles")
        zen_mask = pipeline.segment_image(sl, "catalyst particles").mask
        assert boundary_f1(zen_mask, gt) > boundary_f1(clip_mask, gt)


class TestPropagation:
    def test_propagates_volume(self, amorphous_sample):
        pipe = ZenesisPipeline()
        result = propagate_volume(pipe, amorphous_sample.volume, "catalyst particles")
        assert result.masks.shape == amorphous_sample.catalyst_mask.shape
        ious = [
            iou(result.masks[z], amorphous_sample.catalyst_mask[z])
            for z in range(result.n_slices)
        ]
        assert np.mean(ious) > 0.4
        assert result.refinement_report["mode"] == "propagation"

    def test_reference_slice_midway(self, amorphous_sample):
        pipe = ZenesisPipeline()
        result = propagate_volume(
            pipe, amorphous_sample.volume, "catalyst particles", reference_slice=2
        )
        assert result.masks[0].any() and result.masks[-1].any()

    def test_propagated_metadata(self, amorphous_sample):
        pipe = ZenesisPipeline()
        result = propagate_volume(pipe, amorphous_sample.volume, "catalyst particles")
        assert result.slice_results[0].metadata.get("propagated") in (True, None)
        flags = [r.metadata.get("propagated", False) for r in result.slice_results]
        assert sum(bool(f) for f in flags) == amorphous_sample.n_slices - 1

    def test_runs_the_pipeline_propagation_config(self, amorphous_sample):
        """Forward from slice 0 it is the driver's propagate run, under the
        pipeline's own PropagationConfig rather than the defaults."""
        config = ZenesisConfig(propagation=PropagationConfig(keyframe_interval=1))
        vol = amorphous_sample.volume
        result = propagate_volume(ZenesisPipeline(config), vol, "catalyst particles", reference_slice=0)
        driven = ZenesisPipeline(config).segment_volume(
            vol, "catalyst particles", temporal_mode="propagate"
        )
        assert np.array_equal(result.masks, driven.masks)

    def test_validation(self, amorphous_sample):
        pipe = ZenesisPipeline()
        with pytest.raises(PipelineError):
            propagate_volume(pipe, np.zeros((8, 8)), "catalyst")
        with pytest.raises(PipelineError):
            propagate_volume(pipe, amorphous_sample.volume, "catalyst", reference_slice=99)


class TestModalities:
    def test_xrd_pattern(self):
        image, gt = synthesize_xrd_pattern(shape=(128, 128), seed=3)
        assert image.modality == "xrd"
        assert image.pixels.dtype == np.uint16
        # 5 rings at 128² cover a substantial but not dominant fraction.
        assert 0.01 < gt.mean() < 0.65
        # Rings are radially symmetric-ish: gt at radius r on both sides.
        assert gt.any()

    def test_xrd_deterministic(self):
        a, _ = synthesize_xrd_pattern(shape=(64, 64), seed=5)
        b, _ = synthesize_xrd_pattern(shape=(64, 64), seed=5)
        assert np.array_equal(a.pixels, b.pixels)

    def test_stm_topography(self):
        image, gt = synthesize_stm_topography(shape=(128, 128), seed=3)
        assert image.modality == "stm"
        assert image.pixels.dtype == np.uint32  # 32-bit piezo data
        assert gt.any()
        # Adsorbates protrude: brighter than their surroundings.
        f = image.pixels.astype(np.float64) / 4294967295.0
        assert f[gt].mean() > f[~gt].mean()

    def test_edx_low_dose(self):
        image, gt = synthesize_edx_map(shape=(128, 128), seed=3)
        assert image.modality == "edx"
        assert image.pixels.dtype == np.uint8
        # Count statistics: single-digit means.
        assert image.pixels[gt].mean() < 30
        assert image.pixels[gt].mean() > 2 * image.pixels[~gt].mean()

    def test_zero_shot_on_edx(self, pipeline):
        # The pipeline generalises: bright analyte particles segment from text.
        image, gt = synthesize_edx_map(shape=(128, 128), seed=7)
        result = pipeline.segment_image(image, "bright particles")
        assert iou(result.mask, gt) > 0.25

    def test_zero_shot_on_stm_adsorbates(self, pipeline):
        image, gt = synthesize_stm_topography(shape=(128, 128), seed=7)
        result = pipeline.segment_image(image, "bright particles")
        # Adsorbates are small; demand meaningful overlap, not perfection.
        inter = (result.mask & gt).sum()
        assert inter / max(gt.sum(), 1) > 0.3
