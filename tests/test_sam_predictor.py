"""Tests for SamPredictor and the automatic mask generator."""

import numpy as np
import pytest

from repro.adapt import robust_normalize
from repro.core.masks import masks_iou
from repro.data.synthesis.phantoms import disk_phantom
from repro.errors import ModelConfigError, PromptError
from repro.models.registry import DINO_CONFIGS, SAM_CONFIGS, build_dino, build_sam
from repro.models.sam.automatic import SamAutomaticMaskGenerator
from repro.models.sam.model import Sam, SamPredictor


@pytest.fixture(scope="module")
def predictor():
    return SamPredictor(build_sam())


class TestPredictor:
    def test_predict_before_set_image(self, predictor):
        p = SamPredictor(predictor.sam)
        with pytest.raises(PromptError):
            p.predict(box=np.array([0, 0, 10, 10]))

    def test_box_prompt_multimask(self, rng):
        img, gt = disk_phantom((96, 96), center=(48, 48), radius=14, fg=0.8, bg=0.35, noise=0.02, rng=rng)
        p = SamPredictor(build_sam())
        p.set_image(img)
        masks, scores, logits = p.predict(box=np.array([30, 30, 66, 66]), multimask_output=True)
        assert masks.ndim == 3 and masks.dtype == bool
        assert len(scores) == masks.shape[0] >= 3
        # Scores sorted descending.
        assert (np.diff(scores) <= 1e-6).all()
        # At least one hypothesis nails the disk.
        assert max(masks_iou(m, gt) for m in masks) > 0.8

    def test_single_mask_output(self, rng):
        img, _ = disk_phantom((64, 64), noise=0.02, rng=rng)
        p = SamPredictor(build_sam())
        p.set_image(img)
        masks, scores, _ = p.predict(
            point_coords=np.array([[32, 32]]), point_labels=np.array([1]), multimask_output=False
        )
        assert masks.shape[0] == 1

    def test_decoder_output_exposed(self, rng):
        img, _ = disk_phantom((64, 64), noise=0.02, rng=rng)
        p = SamPredictor(build_sam())
        p.set_image(img)
        p.predict(box=np.array([10, 10, 50, 50]))
        assert p.last_decoder_output is not None
        assert p.last_decoder_output.tokens.shape[1] == p.sam.config.prompt_dim

    def test_box_and_points_leave_cached_box_hypotheses_alone(self, rng):
        img, _ = disk_phantom((64, 64), noise=0.02, rng=rng)
        p = SamPredictor(build_sam())
        p.set_image(img)
        box = np.array([10.0, 10.0, 50.0, 50.0])
        kinds = [h.kind for h in p.masks_from_box(box)]
        masks, _, _ = p.predict(box=box, point_coords=np.array([[32, 32]]), point_labels=np.array([1]))
        assert masks.shape[0] == len(kinds) + 3  # box and point hypotheses, ranked together
        assert [h.kind for h in p.masks_from_box(box)] == kinds

    def test_requires_unit_range(self):
        p = SamPredictor(build_sam())
        with pytest.raises(PromptError, match="adaptation"):
            p.set_image(np.full((32, 32), 300.0, dtype=np.float32))

    def test_rejects_nan(self):
        img = np.full((32, 32), 0.5, dtype=np.float32)
        img[3, 4] = np.nan
        with pytest.raises(PromptError, match="adaptation"):
            SamPredictor(build_sam()).set_image(img)

    def test_needs_prompt(self, rng):
        img, _ = disk_phantom((64, 64), rng=rng)
        p = SamPredictor(build_sam())
        p.set_image(img)
        with pytest.raises(PromptError):
            p.predict()

    def test_reset_image(self, rng):
        img, _ = disk_phantom((64, 64), rng=rng)
        p = SamPredictor(build_sam())
        p.set_image(img)
        p.reset_image()
        assert not p.is_image_set
        with pytest.raises(PromptError):
            p.predict(box=np.array([0, 0, 10, 10]))


class TestAutomatic:
    def test_generates_records(self, rng):
        img, gt = disk_phantom((96, 96), radius=14, fg=0.8, bg=0.3, noise=0.02, rng=rng)
        amg = SamAutomaticMaskGenerator(build_sam(), points_per_side=4)
        records = amg.generate(img)
        assert records
        for r in records:
            assert set(r) >= {"segmentation", "area", "bbox", "predicted_iou", "stability_score", "point_coords"}
            assert r["area"] >= amg.min_mask_area
        # Sorted by confidence.
        ious = [r["predicted_iou"] for r in records]
        assert ious == sorted(ious, reverse=True)

    def test_dedup_removes_near_duplicates(self, rng):
        img, _ = disk_phantom((96, 96), radius=20, fg=0.8, bg=0.3, noise=0.02, rng=rng)
        amg = SamAutomaticMaskGenerator(build_sam(), points_per_side=6, nms_iou_thresh=0.7)
        records = amg.generate(img)
        for i, a in enumerate(records):
            for b in records[i + 1 :]:
                assert masks_iou(a["segmentation"], b["segmentation"]) < 0.7

    def test_finds_the_disk(self, rng):
        img, gt = disk_phantom((96, 96), radius=16, fg=0.8, bg=0.3, noise=0.02, rng=rng)
        # 6 points per side guarantees a grid point lands inside the disk.
        amg = SamAutomaticMaskGenerator(build_sam(), points_per_side=6)
        records = amg.generate(img)
        assert max(masks_iou(r["segmentation"], gt) for r in records) > 0.8

    def test_points_per_side_validated(self):
        with pytest.raises(PromptError):
            SamAutomaticMaskGenerator(build_sam(), points_per_side=0)


class TestRegistry:
    def test_known_configs(self):
        assert {"vit_h", "vit_l", "vit_b", "vit_t"} <= set(SAM_CONFIGS)
        assert "swin_t" in DINO_CONFIGS

    def test_build_sam_default(self):
        sam = build_sam()
        assert isinstance(sam, Sam)
        assert sam.config.name == "vit_t"

    def test_unknown_names(self):
        with pytest.raises(ModelConfigError):
            build_sam("vit_zz")
        with pytest.raises(ModelConfigError):
            build_dino("resnet")

    def test_build_dino_overrides(self):
        dino = build_dino(box_threshold=0.7)
        assert dino.config.box_threshold == 0.7

    def test_paper_scale_config_registered(self):
        # The paper deploys SAM ViT-H; the config must exist at true dims.
        cfg = SAM_CONFIGS["vit_h"]
        assert cfg.encoder_dim == 1280 and cfg.encoder_depth == 32
