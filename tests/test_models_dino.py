"""Tests for the GroundingDINO surrogate."""

import hashlib

import numpy as np
import pytest

from repro.adapt import default_fibsem_pipeline, robust_normalize
from repro.core.pipeline import ZenesisPipeline
from repro.data.synthesis.phantoms import disk_phantom
from repro.errors import ModelConfigError, PromptError
from repro.eval.experiments import ExperimentSetup
from repro.models.dino import Detection, DinoConfig, GroundingDino

#: sha1 over the boxes, scores and relevance bytes of ``ZenesisPipeline.ground``
#: on the 20 slices of ``ExperimentSetup.default()`` (Tables 1–3), in order.
GROUNDING_GOLDEN_SHA1 = "cdab3b95e7422fc1e33db770df1a0442b71892f1"


@pytest.fixture(scope="module")
def dino():
    return GroundingDino()


class TestConfig:
    def test_embed_dim_floor(self):
        with pytest.raises(ModelConfigError):
            DinoConfig(embed_dim=3)

    def test_threshold_range(self):
        with pytest.raises(ModelConfigError):
            DinoConfig(box_threshold=1.5)


class TestRelevance:
    def test_bright_disk_grounded(self, dino):
        img, mask = disk_phantom((64, 64), radius=10, fg=0.85, bg=0.35)
        rel, enc, acts = dino.relevance_map(img, "bright particle")
        assert rel.shape == img.shape
        assert rel[mask].mean() > rel[~mask].mean() + 0.2

    def test_dark_prompt_inverts(self, dino):
        img, mask = disk_phantom((64, 64), radius=10, fg=0.85, bg=0.1)
        rel, _, _ = dino.relevance_map(img, "dark background")
        assert rel[~mask].mean() > rel[mask].mean()

    def test_ungrounded_prompt_zero_map(self, dino):
        img, _ = disk_phantom((64, 64))
        rel, enc, acts = dino.relevance_map(img, "zorp quux")
        assert rel.max() == 0.0
        assert acts == {}

    def test_empty_prompt_raises(self, dino):
        img, _ = disk_phantom((64, 64))
        with pytest.raises(PromptError):
            dino.relevance_map(img, "of the")


class TestGround:
    def test_detects_disk(self, dino):
        img, mask = disk_phantom((64, 64), center=(32, 40), radius=9, fg=0.85, bg=0.35)
        det = dino.ground(img, "bright particle")
        assert det.n_boxes >= 1
        # The best box must cover the disk centre.
        x0, y0, x1, y1 = det.boxes[np.argmax(det.scores)]
        assert x0 <= 40 <= x1 and y0 <= 32 <= y1

    def test_detection_fields(self, dino):
        img, _ = disk_phantom((64, 64), fg=0.9, bg=0.3)
        det = dino.ground(img, "bright particle")
        assert isinstance(det, Detection)
        assert det.boxes.shape[1] == 4
        assert len(det.scores) == det.n_boxes
        assert det.phrases == ("bright", "particle")
        assert (det.scores >= dino.config.box_threshold).all()

    def test_no_detection_on_flat_image(self, dino):
        det = dino.ground(np.full((64, 64), 0.5, dtype=np.float32), "bright particle")
        assert det.n_boxes == 0

    def test_box_threshold_monotone(self):
        img, _ = disk_phantom((96, 96), radius=10, fg=0.8, bg=0.35)
        lo = GroundingDino(DinoConfig(box_threshold=0.2)).ground(img, "bright particle")
        hi = GroundingDino(DinoConfig(box_threshold=0.9)).ground(img, "bright particle")
        lo_area = sum((b[2] - b[0]) * (b[3] - b[1]) for b in lo.boxes)
        hi_area = sum((b[2] - b[0]) * (b[3] - b[1]) for b in hi.boxes)
        assert lo_area >= hi_area

    def test_text_threshold_gates_tokens(self):
        img, _ = disk_phantom((64, 64), fg=0.9, bg=0.3)
        strict = GroundingDino(DinoConfig(text_threshold=0.999))
        det = strict.ground(img, "bright particle")
        assert det.n_boxes == 0  # no token activates at 0.999

    def test_deterministic(self):
        img, _ = disk_phantom((64, 64), fg=0.9, bg=0.3)
        a = GroundingDino().ground(img, "bright particle")
        b = GroundingDino().ground(img, "bright particle")
        assert np.array_equal(a.boxes, b.boxes)
        assert np.array_equal(a.relevance, b.relevance)


class TestOnFibsem:
    def test_catalyst_boxes_avoid_background(self, dino, crystalline_sample):
        s = crystalline_sample
        img = default_fibsem_pipeline().run(robust_normalize(s.volume.voxels[0]))
        det = dino.ground(img, "catalyst particles")
        assert det.n_boxes >= 1
        bg = ~s.film_mask[0]
        cover = np.zeros_like(bg)
        for b in det.boxes:
            cover[int(b[1]) : int(b[3]), int(b[0]) : int(b[2])] = True
        # Boxes live overwhelmingly inside the film.
        assert (cover & bg).sum() / max(cover.sum(), 1) < 0.35

    def test_background_prompt_finds_background(self, dino, crystalline_sample):
        s = crystalline_sample
        img = default_fibsem_pipeline().run(robust_normalize(s.volume.voxels[0]))
        rel, _, _ = dino.relevance_map(img, "dark background")
        bg = ~s.film_mask[0]
        assert rel[bg].mean() > rel[~bg].mean() + 0.3


class TestGroundingGolden:
    def test_table_slices_pinned(self):
        setup = ExperimentSetup.default()
        pipe = ZenesisPipeline(setup.zenesis_config)
        h = hashlib.sha1()
        for s in setup.dataset.slices:
            det_img, _ = pipe.adapt(s.image)
            det = pipe.ground(det_img, setup.prompt)
            for arr in (det.boxes, det.scores, det.relevance):
                h.update(np.ascontiguousarray(arr).tobytes())
        assert len(setup.dataset.slices) == 20
        assert h.hexdigest() == GROUNDING_GOLDEN_SHA1
