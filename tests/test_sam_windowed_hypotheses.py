"""Box hypotheses stay in their window and score on demand.

A :class:`MaskHypothesis` holds only its window mask; its full-frame mask
is pasted on every read of ``.mask`` and its quality score is computed on
the first read of ``.score``/``.terms``.  Grounded selection reads neither,
so the grounded path never scores a hypothesis and pastes only the picked
one.  Callers that rank by score (``predict``, ``predict_boxes``, point
hints, the automatic mask generator) get the same scores as an eager head.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cache import MISS, CacheConfig, InferenceCache, array_content_key, combine_keys
from repro.cache.memory import nbytes_of
from repro.core.hitl import RectifySession
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.core.prompts import SpatialHints
from repro.data import make_sample
from repro.models.sam.analytic import AnalyticMaskHead, MaskHypothesis
from repro.models.sam.model import SamPredictor
from repro.platform.session import SessionStore

PROMPT = "catalyst particles"

#: sha1 of every mask and score ``predict(box=…)``, ``predict(box=…,
#: point_coords=…)`` and ``predict_boxes`` return on the grounded slices of
#: :func:`_predict_digest`, recorded from the eagerly scoring, full-frame
#: head these hypotheses replaced.
PREDICT_GOLDEN_SHA1 = "0a7fda6a44d8a582d5ac807fd635516d53511eb0"


def _pipeline() -> ZenesisPipeline:
    # No cache: a run under the scoring ban must compute every product
    # itself rather than read what the reference run left behind.
    return ZenesisPipeline(ZenesisConfig(use_cache=False))


def _uncached_predictor(pipe: ZenesisPipeline) -> SamPredictor:
    return SamPredictor(pipe.sam, cache=InferenceCache(CacheConfig(enabled=False)))


@pytest.fixture()
def forbid_scoring(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a hypothesis was scored on the grounded path")

    monkeypatch.setattr(AnalyticMaskHead, "score_mask", boom)
    return monkeypatch


@pytest.fixture(scope="module")
def grounded():
    """(pipeline, segmenter image, detection) on four FIB-SEM slices."""
    pipe = _pipeline()
    out = []
    for kind in ("crystalline", "amorphous"):
        sample = make_sample(kind, seed=0, shape=(128, 128), n_slices=2)
        for z in range(2):
            det_img, seg_img = pipe.adapt(sample.volume.voxels[z])
            out.append((pipe, seg_img, pipe.ground(det_img, PROMPT)))
    return out


def _predict_digest(grounded) -> str:
    h = hashlib.sha1()
    for pipe, seg_img, detection in grounded:
        boxes = detection.boxes
        predictor = _uncached_predictor(pipe)
        predictor.set_image(seg_img)
        outs = [predictor.predict(box=b) for b in boxes]
        outs += [predictor.predict(box=b, multimask_output=False) for b in boxes[:2]]
        outs += [
            predictor.predict(
                box=boxes[0], point_coords=np.array([[40.0, 50.0]]), point_labels=np.array([1])
            )
        ]
        outs += predictor.predict_boxes(boxes)
        for masks, scores, _ in outs:
            h.update(np.ascontiguousarray(masks).tobytes())
            h.update(np.asarray(scores, dtype=np.float32).tobytes())
    return h.hexdigest()


class TestGroundedPathNeverScores:
    def test_meanbox_volume(self, amorphous_sample, request):
        vol = amorphous_sample.volume.voxels[:3]
        reference = _pipeline().segment_volume(vol, PROMPT).masks
        request.getfixturevalue("forbid_scoring")
        masks = _pipeline().segment_volume(vol, PROMPT).masks
        assert np.array_equal(masks, reference)

    def test_segment_image_with_box_hints(self, crystalline_sample, request):
        img = crystalline_sample.volume.slice_image(0)
        hints = SpatialHints(boxes=((10.0, 10.0, 60.0, 60.0),))
        reference = _pipeline().segment_image(img, PROMPT, hints=hints)
        request.getfixturevalue("forbid_scoring")
        got = _pipeline().segment_image(img, PROMPT, hints=hints)
        assert np.array_equal(got.mask, reference.mask)
        assert len(got.per_box_masks) == len(reference.per_box_masks)
        for g, r in zip(got.per_box_masks, reference.per_box_masks):
            assert g.shape == img.shape[:2] and np.array_equal(g, r)

    def test_session_segment(self, amorphous_sample, request):
        def segmented():
            store = SessionStore(pipeline_config=ZenesisConfig(use_cache=False))
            session = store.create()
            session.load_array(amorphous_sample.volume.voxels, modality="fibsem")
            return session.segment(PROMPT).mask

        reference = segmented()
        request.getfixturevalue("forbid_scoring")
        assert np.array_equal(segmented(), reference)

    def test_rectify_round(self, amorphous_sample, request):
        pipe = _pipeline()
        _, seg_img = pipe.adapt(amorphous_sample.volume.voxels[0])
        ys, xs = np.nonzero(amorphous_sample.catalyst_mask[0])
        click = (float(xs[len(xs) // 2]), float(ys[len(ys) // 2]))

        def rectified():
            sess = RectifySession(SamPredictor(pipe.sam, cache=pipe.cache), seg_img)
            return sess.rectify(click).added_mask, sess.mask

        reference = rectified()
        request.getfixturevalue("forbid_scoring")
        added, mask = rectified()
        assert np.array_equal(added, reference[0]) and np.array_equal(mask, reference[1])


class TestLazyScores:
    def test_box_scores_equal_full_frame_scores(self, grounded):
        n = 0
        for pipe, seg_img, detection in grounded:
            head = pipe.sam.analytic
            ctx = head.prepare(seg_img)
            for box in detection.boxes:
                for hyp in head.masks_from_box(ctx, np.asarray(box, dtype=np.float64)):
                    score, terms = head.score_mask(ctx, hyp.mask)
                    assert hyp.terms == terms and hyp.score == score, (box, hyp.kind)
                    n += 1
        assert n > 50

    def test_point_scores_equal_full_frame_scores(self, grounded):
        pipe, seg_img, _ = grounded[0]
        head = pipe.sam.analytic
        ctx = head.prepare(seg_img)
        hyps = head.masks_from_points(ctx, np.array([[40.0, 50.0], [90.0, 20.0]]), np.array([1, 0]))
        assert [hyp.window for hyp in hyps] == [(0, 128, 0, 128)] * 3
        for hyp in hyps:
            score, terms = head.score_mask(ctx, hyp.mask)
            assert hyp.score == score and hyp.terms == terms

    def test_score_is_memoised(self, grounded, monkeypatch):
        pipe, seg_img, detection = grounded[0]
        head = pipe.sam.analytic
        calls = []
        original = AnalyticMaskHead.score_mask
        monkeypatch.setattr(
            AnalyticMaskHead, "score_mask", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        hyp = head.masks_from_box(head.prepare(seg_img), detection.boxes[0])[0]
        assert calls == []
        first = hyp.score
        assert hyp.terms is hyp.terms and hyp.score == first and calls == [1]

    def test_predict_and_predict_boxes_match_eager_head(self, grounded):
        assert _predict_digest(grounded) == PREDICT_GOLDEN_SHA1

    def test_masks_from_points_has_no_score_switch(self):
        assert "score" not in inspect.signature(AnalyticMaskHead.masks_from_points).parameters


class TestWindowedEntries:
    def _cache(self, tmp_path=None) -> InferenceCache:
        return InferenceCache(
            CacheConfig(enabled=True, disk_enabled=tmp_path is not None, disk_dir=tmp_path)
        )

    def test_cached_entry_is_window_sized(self, grounded):
        sizes = []
        for pipe, seg_img, detection in grounded:
            predictor = SamPredictor(pipe.sam, cache=self._cache())
            predictor.set_image(seg_img)
            for box in detection.boxes:
                hyps = predictor.masks_from_box(box)
                size = nbytes_of(hyps)
                # Five window masks and a few small fields, nothing frame-sized.
                assert size < sum(hyp.window_mask.nbytes for hyp in hyps) + 2048, (box, size)
                # Reading the full-frame mask or the score grows nothing
                # the cache counted.
                for hyp in hyps:
                    hyp.mask, hyp.score
                assert nbytes_of(predictor.masks_from_box(box)) == size
                sizes.append(size)
        # A typical grounded box's five hypotheses weigh less than one frame.
        assert np.median(sizes) < seg_img.size

    def test_mutating_mask_leaves_cached_hypothesis_alone(self, grounded):
        pipe, seg_img, detection = grounded[0]
        predictor = SamPredictor(pipe.sam, cache=self._cache())
        predictor.set_image(seg_img)
        box = detection.boxes[0]
        hyps = predictor.masks_from_box(box)
        before = [(hyp.mask.copy(), hyp.score) for hyp in hyps]
        for hyp in hyps:
            hyp.mask[:] = True
        again = predictor.masks_from_box(box)
        assert all(a is b for a, b in zip(again, hyps))  # served from the cache
        for hyp, (mask, score) in zip(again, before):
            assert np.array_equal(hyp.mask, mask) and hyp.score == score

    def test_disk_tier_round_trip_scores_unchanged(self, grounded, tmp_path):
        pipe, seg_img, detection = grounded[1]
        box = detection.boxes[0]
        writer = SamPredictor(pipe.sam, cache=self._cache(tmp_path))
        writer.set_image(seg_img)
        writer.masks_from_box(box)  # filed unscored
        cache = self._cache(tmp_path)
        reader = SamPredictor(pipe.sam, cache=cache)
        reader.set_image(seg_img)
        got = reader.masks_from_box(box)
        assert cache.stats.namespace("sam.analytic_box").hits == 1
        fresh = _uncached_predictor(pipe)
        fresh.set_image(seg_img)
        want = fresh.masks_from_box(box)
        assert [h.kind for h in got] == [h.kind for h in want]
        for g, w in zip(got, want):
            assert isinstance(g, MaskHypothesis)
            assert np.array_equal(g.mask, w.mask) and g.score == w.score and g.terms == w.terms


@dataclass(frozen=True)
class _FullFrameHypothesis:
    """The layout an older head filed: full-frame mask, eager score."""

    mask: np.ndarray
    kind: str
    score: float
    terms: dict
    window: tuple | None = None


def test_parent_layout_list_on_disk_tier_is_never_served(grounded, tmp_path):
    pipe, seg_img, detection = grounded[2]
    box = np.asarray(detection.boxes[0], dtype=np.float64)

    def disk_cache():
        return InferenceCache(CacheConfig(enabled=True, disk_enabled=True, disk_dir=tmp_path))

    probe = SamPredictor(pipe.sam, cache=InferenceCache(CacheConfig(enabled=False)))
    probe.set_image(seg_img)
    old_key = combine_keys(probe._image_key, array_content_key(box))
    empty = np.zeros(seg_img.shape, dtype=bool)
    stale = [_FullFrameHypothesis(empty, "bright", 1.0, {})]
    disk_cache().put("sam.analytic_box", old_key, stale)

    assert disk_cache().get("sam.analytic_box", old_key) is not MISS  # the stale entry is there
    cache = disk_cache()
    predictor = SamPredictor(pipe.sam, cache=cache)
    predictor.set_image(seg_img)
    got = predictor.masks_from_box(box)
    assert cache.stats.namespace("sam.analytic_box").misses == 1
    want = probe.masks_from_box(box)
    assert [h.kind for h in got] == [h.kind for h in want] and len(got) == 5
    for g, w in zip(got, want):
        assert np.array_equal(g.mask, w.mask) and g.score == w.score
