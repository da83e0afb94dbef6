"""The grounded path never runs the SAM transformer.

Every mask the pipeline returns comes from the analytic head, so
``set_image`` prepares only the analytic context and the ViT encoder and
mask decoder run where something reads their output: ``predict`` /
``decode_boxes`` and the propagation engine's keyframe centroids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import MISS, CacheConfig, InferenceCache, array_content_key, combine_keys
from repro.core.hitl import RectifySession
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.core.prompts import SpatialHints
from repro.core.propagation import PropagationConfig
from repro.errors import PromptError
from repro.models.sam.image_encoder import ImageEncoderViT
from repro.models.sam.mask_decoder import MaskDecoder
from repro.models.sam.model import SamPredictor
from repro.observability.metrics import get_registry

PROMPT = "catalyst particles"


def _pipeline(**kwargs) -> ZenesisPipeline:
    # No cache: a run under the transformer ban must compute every product
    # itself rather than read what the reference run left behind.
    return ZenesisPipeline(ZenesisConfig(use_cache=False, **kwargs))


@pytest.fixture()
def forbid_transformer(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the SAM transformer ran on the grounded path")

    monkeypatch.setattr(ImageEncoderViT, "__call__", boom)
    monkeypatch.setattr(ImageEncoderViT, "encode_batch", boom)
    monkeypatch.setattr(MaskDecoder, "__call__", boom)
    monkeypatch.setattr(MaskDecoder, "decode_batch", boom)
    return monkeypatch


class TestGroundedPathSkipsTransformer:
    def test_meanbox_volume(self, amorphous_sample, request):
        vol = amorphous_sample.volume.voxels[:3]
        reference = _pipeline().segment_volume(vol, PROMPT).masks
        request.getfixturevalue("forbid_transformer")
        masks = _pipeline().segment_volume(vol, PROMPT).masks
        assert np.array_equal(masks, reference)

    def test_segment_image_with_hints(self, crystalline_sample, request):
        img = crystalline_sample.volume.slice_image(0)
        hints = SpatialHints(
            boxes=((10.0, 10.0, 60.0, 60.0),),
            positive_points=((40.0, 40.0), (90.0, 70.0)),
            negative_points=((5.0, 120.0),),
        )
        reference = _pipeline().segment_image(img, PROMPT, hints=hints).mask
        request.getfixturevalue("forbid_transformer")
        assert np.array_equal(_pipeline().segment_image(img, PROMPT, hints=hints).mask, reference)

    def test_rectify_round(self, amorphous_sample, request):
        pipe = _pipeline()
        _, seg_img = pipe.adapt(amorphous_sample.volume.voxels[0])
        ys, xs = np.nonzero(amorphous_sample.catalyst_mask[0])
        click = (float(xs[len(xs) // 2]), float(ys[len(ys) // 2]))

        def rectified():
            sess = RectifySession(SamPredictor(pipe.sam, cache=pipe.cache), seg_img)
            return sess.rectify(click).added_mask, sess.mask

        reference = rectified()
        request.getfixturevalue("forbid_transformer")
        added, mask = rectified()
        assert np.array_equal(added, reference[0]) and np.array_equal(mask, reference[1])

    def test_propagate_encodes_each_keyframe_once(self, amorphous_sample, monkeypatch):
        calls = []
        original = ImageEncoderViT.__call__

        def counting(self, image):
            calls.append(1)
            return original(self, image)

        monkeypatch.setattr(ImageEncoderViT, "__call__", counting)
        pipe = _pipeline(
            temporal_mode="propagate", propagation=PropagationConfig(keyframe_interval=2)
        )
        pipe.segment_volume(amorphous_sample.volume.voxels, PROMPT)
        grounded = get_registry().counter("repro_temporal_grounded_slices_total").value
        assert 0 < grounded < amorphous_sample.volume.voxels.shape[0]
        assert len(calls) == grounded  # the centroids need it; propagated slices do not


class TestLazyEmbedding:
    def _predictor(self) -> tuple[SamPredictor, InferenceCache]:
        cache = InferenceCache(CacheConfig(enabled=True, disk_enabled=False))
        return SamPredictor(cache=cache), cache

    def test_embedding_before_set_image_raises(self):
        predictor, _ = self._predictor()
        with pytest.raises(PromptError):
            predictor.embedding

    def test_set_image_encodes_nothing_until_read(self, rng, monkeypatch):
        predictor, cache = self._predictor()
        calls = []
        original = ImageEncoderViT.__call__
        monkeypatch.setattr(
            ImageEncoderViT, "__call__", lambda enc, img: calls.append(1) or original(enc, img)
        )
        img = rng.random((64, 64)).astype(np.float32)
        predictor.set_image(img)
        assert calls == [] and "sam.embedding" not in cache.stats.namespaces
        first = predictor.embedding
        assert predictor.embedding is first and calls == [1]  # memoised per image
        predictor.set_image(img)
        assert predictor.embedding is first and calls == [1]  # served by sam.embedding
        assert np.array_equal(first, predictor.sam.image_encoder(img))

    def test_parent_layout_tuple_on_disk_tier_is_never_served(self, rng, tmp_path):
        # An older layout filed (embedding, ctx) tuples in sam.image under
        # the bare image key; a shared disk tier may still hold them.
        def disk_cache():
            return InferenceCache(
                CacheConfig(enabled=True, disk_enabled=True, disk_dir=tmp_path)
            )

        img = rng.random((64, 64)).astype(np.float32)
        probe = SamPredictor(cache=InferenceCache(CacheConfig(enabled=False)))
        old_key = combine_keys(array_content_key(img), probe._fingerprint)
        stale = (np.zeros((4, 4, 64), np.float32), probe.sam.analytic.prepare(np.zeros_like(img)))
        disk_cache().put("sam.image", old_key, stale)

        assert disk_cache().get("sam.image", old_key) is not MISS  # the stale entry is there
        cache = disk_cache()
        predictor = SamPredictor(cache=cache)
        predictor.set_image(img)
        assert cache.stats.namespace("sam.image").misses == 1
        ctx = predictor.analytic_context
        assert np.array_equal(ctx.image, img)
        box = np.array([8.0, 8.0, 40.0, 40.0])
        fresh = SamPredictor(cache=InferenceCache(CacheConfig(enabled=False)))
        fresh.set_image(img)
        got = predictor.masks_from_box(box)
        want = fresh.masks_from_box(box)
        assert [h.kind for h in got] == [h.kind for h in want]
        for g, w in zip(got, want):
            assert np.array_equal(g.mask, w.mask) and g.score == w.score
