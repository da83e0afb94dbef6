"""Tests for channel adaptation, pipelines, and readiness."""

import numpy as np
import pytest

from repro.adapt.channels import gray_to_multichannel
from repro.adapt.pipeline import AdaptationPipeline, default_fibsem_pipeline
from repro.adapt.readiness import READY_THRESHOLD, score_readiness
from repro.data.image import ScientificImage
from repro.errors import ValidationError


class TestChannels:
    def test_multichannel_distinct(self, rng):
        img = rng.random((32, 32)).astype(np.float32)
        out = gray_to_multichannel(img)
        assert out.shape == (32, 32, 3)
        assert not np.allclose(out[..., 0], out[..., 1])
        assert not np.allclose(out[..., 1], out[..., 2])


class TestAdaptationPipeline:
    def test_identity(self, rng):
        img = rng.random((16, 16)).astype(np.float32)
        out = AdaptationPipeline.from_spec([]).run(img)
        assert np.allclose(out, img)

    def test_from_spec(self, rng):
        pipe = AdaptationPipeline.from_spec(
            [{"step": "gaussian", "sigma": 1.0}, {"step": "stretch"}], name="custom"
        )
        out = pipe.run(rng.random((16, 16)).astype(np.float32) * 0.5)
        assert out.max() == pytest.approx(1.0)
        assert pipe.describe()["steps"] == ["gaussian", "stretch"]

    def test_from_spec_unknown_step(self):
        with pytest.raises(ValidationError, match="unknown adaptation step"):
            AdaptationPipeline.from_spec([{"step": "sharpen9000"}])

    def test_from_spec_bad_params(self):
        with pytest.raises(ValidationError, match="bad parameters"):
            AdaptationPipeline.from_spec([{"step": "gaussian", "nope": 1}])

    def test_default_fibsem_runs(self, crystalline_slice):
        img, _ = crystalline_slice
        out = default_fibsem_pipeline().run(img)
        assert out.shape == img.shape
        assert 0.0 <= out.min() and out.max() <= 1.0

    def test_default_fibsem_denoiser_choice(self):
        with pytest.raises(ValidationError):
            default_fibsem_pipeline(denoise="fancy")

    def test_run_on_tracks_history(self, crystalline_sample):
        img = crystalline_sample.volume.slice_image(0)
        adapted = default_fibsem_pipeline().run_on(img)
        assert "robust_normalize" in adapted.history
        assert "clahe" in adapted.history


class TestReadiness:
    def test_raw_fibsem_not_ready(self, crystalline_sample):
        report = score_readiness(crystalline_sample.volume.slice_image(0))
        assert report.overall < READY_THRESHOLD
        assert not report.is_ready

    def test_adapted_is_ready(self, crystalline_slice):
        img, _ = crystalline_slice
        rgb = (gray_to_multichannel(default_fibsem_pipeline().run(img)) * 255).astype(np.uint8)
        report = score_readiness(ScientificImage(rgb))
        assert report.is_ready

    def test_format_scores_ordered(self):
        u8 = score_readiness(np.zeros((16, 16), dtype=np.uint8) + 128)
        u16 = score_readiness(np.zeros((16, 16), dtype=np.uint16) + 30000)
        assert u8.format_score > u16.format_score

    def test_geometric_mean_punishes_weak_axis(self):
        r = score_readiness(np.zeros((16, 16), dtype=np.uint32))
        # Constant image: zero dynamic range drags the overall near zero.
        assert r.overall < 0.1

    def test_as_dict_json_safe(self, crystalline_slice):
        import json

        img, _ = crystalline_slice
        json.dumps(score_readiness(img).as_dict())
