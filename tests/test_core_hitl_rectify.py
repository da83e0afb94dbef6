"""Rectify Segmentation (Fig. 6) ranks candidates in window space.

:meth:`RectifySession.rectify` labels each candidate hypothesis inside its
decode window and skips boxes whose window cannot hold a winner.  The
outputs must equal the straightforward full-frame loop: paste every
hypothesis into the frame, split it into per-component masks and rank each
one.  That loop is kept here as :func:`_reference_rectify`; the golden
digests below were recorded from it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import InferenceCache
from repro.core.hitl import RectifyConfig, RectifySession, RectifyStep, SimulatedAnnotator
from repro.core.masks import connected_components
from repro.errors import SessionError
from repro.models.registry import build_sam
from repro.models.sam.analytic import box_window
from repro.models.sam.model import SamPredictor
from repro.platform.api import ApiHandler

#: sha1 over every round's ``added_mask`` and ``chosen_box`` and the final
#: session mask of :func:`_oracle_digest`, recorded from the full-frame loop.
ORACLE_GOLDEN_SHA1 = {
    ("crystalline", 12): "5c67e5fa5d5e04da24dcbaadb15432e21f13d3e8",
    ("crystalline", 16): "fdfddadf1e8f584cbcfbc5923176a17dedcac1be",
    ("amorphous", 12): "f58fa9194dfc6c1ae14fd1ea464ab85419aec8fd",
    ("amorphous", 16): "477a5de5cea7a8713abec9dec46b47491a037f15",
}


def _reference_rectify(sess: RectifySession, click_xy: tuple[float, float]) -> RectifyStep:
    """The full-frame rectify loop: every candidate component is ranked."""
    cx, cy = click_xy
    h, w = sess.image.shape
    if not (0 <= cx < w and 0 <= cy < h):
        raise SessionError(f"click {click_xy} outside image {w}x{h}")
    boxes = sess.propose_boxes()
    best = None
    max_area = sess.config.max_component_frac * sess.image.size
    iy, ix = min(int(round(cy)), h - 1), min(int(round(cx)), w - 1)
    for box in boxes:
        for hyp in sess.predictor.masks_from_box(box):
            if hyp.kind == "dark" or not hyp.window_mask.any():
                continue
            for comp in connected_components(hyp.mask, min_area=8)[:6]:
                area = int(comp.sum())
                if area > max_area:
                    continue
                if comp[iy, ix]:
                    key = (0, float(area))
                else:
                    ys, xs = np.nonzero(comp)
                    key = (1, float(np.hypot(ys.mean() - cy, xs.mean() - cx)))
                if best is None or key < best[0]:
                    best = (key, comp, box)
    if best is None:
        raise SessionError("no candidate segment found; increase n_candidates")
    _, comp, box = best
    sess.mask |= comp
    step = RectifyStep((float(cx), float(cy)), np.asarray(box), comp, int(len(boxes)))
    sess.steps.append(step)
    return step


def _assert_same_step(got: RectifyStep, want: RectifyStep) -> None:
    assert np.array_equal(got.added_mask, want.added_mask)
    assert np.array_equal(got.chosen_box, want.chosen_box)
    assert got.candidate_count == want.candidate_count
    assert got.click_xy == want.click_xy


@pytest.fixture(scope="module")
def scenes(pipeline, crystalline_sample, amorphous_sample):
    """kind -> (segmenter image, ground truth) of slice 0."""
    out = {}
    for kind, sample in (("crystalline", crystalline_sample), ("amorphous", amorphous_sample)):
        _, seg_img = pipeline.adapt(sample.volume.voxels[0])
        out[kind] = (seg_img, sample.catalyst_mask[0])
    return out


@pytest.fixture(scope="module")
def shared_sam():
    return build_sam()


def _session(sam, image, *, cache=None, **config) -> RectifySession:
    return RectifySession(SamPredictor(sam, cache=cache or InferenceCache()), image, config=RectifyConfig(**config))


def _oracle_digest(sess: RectifySession, gt: np.ndarray, rectify) -> str:
    annotator = SimulatedAnnotator(gt_mask=gt)
    digest = hashlib.sha1()
    for _ in range(3):
        click = annotator.next_click(sess.mask)
        assert click is not None
        step = rectify(click)
        digest.update(step.added_mask.tobytes())
        digest.update(np.asarray(step.chosen_box, dtype=np.float64).tobytes())
    digest.update(sess.mask.tobytes())
    return digest.hexdigest()


class TestGolden:
    @pytest.mark.parametrize("n_candidates", [12, 16])
    @pytest.mark.parametrize("kind", ["crystalline", "amorphous"])
    def test_oracle_rounds_match_golden(self, scenes, shared_sam, kind, n_candidates):
        seg_img, gt = scenes[kind]
        sess = _session(shared_sam, seg_img, n_candidates=n_candidates)
        assert _oracle_digest(sess, gt, sess.rectify) == ORACLE_GOLDEN_SHA1[(kind, n_candidates)]

    def test_reference_matches_golden(self, scenes, shared_sam):
        # The reference loop is what the golden pins; keep it honest.
        seg_img, gt = scenes["amorphous"]
        sess = _session(shared_sam, seg_img, n_candidates=12)
        digest = _oracle_digest(sess, gt, lambda click: _reference_rectify(sess, click))
        assert digest == ORACLE_GOLDEN_SHA1[("amorphous", 12)]


def _click_strategy(data, seg_img, boxes) -> tuple[float, float]:
    """A click anywhere, on the frame's edges, or on a candidate window's edges."""
    h, w = seg_img.shape
    where = data.draw(st.sampled_from(["free", "frame_edge", "window_edge"]))
    x = data.draw(st.floats(0, w, exclude_max=True))
    y = data.draw(st.floats(0, h, exclude_max=True))
    if where == "frame_edge":
        edges = [0.0, 0.49, 0.5, h - 1.0, h - 0.5, h - 0.01]
        if data.draw(st.booleans()):
            y = data.draw(st.sampled_from(edges))
        else:
            x = data.draw(st.sampled_from([e * w / h for e in edges]))
    elif where == "window_edge":
        wy0, wy1, wx0, wx1 = box_window(boxes[data.draw(st.integers(0, len(boxes) - 1))], (h, w))[1]
        y = data.draw(st.sampled_from([wy0 - 0.6, wy0 - 0.5, wy0, wy1 - 1.0, wy1 - 0.5, wy1 - 0.4]))
        x = data.draw(st.sampled_from([wx0 - 0.5, wx0, wx1 - 1.0, wx1 - 0.4, x]))
        y, x = min(max(y, 0.0), h - 0.01), min(max(x, 0.0), w - 0.01)
    return float(x), float(y)


class TestWindowSpaceRanking:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_full_frame_loop(self, scenes, shared_sam, data):
        kind = data.draw(st.sampled_from(sorted(scenes)))
        seg_img, _ = scenes[kind]
        config = {
            "n_candidates": data.draw(st.sampled_from([4, 12, 16])),
            "full_extent_axis": data.draw(st.sampled_from(["width", None])),
            "seed": data.draw(st.integers(0, 2**16)),
        }
        cache = InferenceCache()
        want_sess = _session(shared_sam, seg_img, cache=cache, **config)
        got_sess = _session(shared_sam, seg_img, cache=cache, **config)
        # Proposes, round for round, the boxes the two sessions will.
        probe = _session(shared_sam, seg_img, cache=cache, **config)
        for _ in range(2):
            click = _click_strategy(data, seg_img, probe.propose_boxes())
            try:
                want = _reference_rectify(want_sess, click)
            except SessionError:
                with pytest.raises(SessionError):
                    got_sess.rectify(click)
                return
            _assert_same_step(got_sess.rectify(click), want)
            assert np.array_equal(got_sess.mask, want_sess.mask)

    def test_skips_boxes_that_cannot_win(self, scenes, shared_sam):
        # Click on a component of the first candidate: every later box
        # whose window misses the click pixel cannot win and is not decoded.
        seg_img, _ = scenes["amorphous"]
        n = 16
        probe = _session(shared_sam, seg_img, n_candidates=n)
        max_area = probe.config.max_component_frac * seg_img.size
        comps = [
            comp
            for hyp in probe.predictor.masks_from_box(probe.propose_boxes()[0])
            if hyp.kind != "dark"
            for comp in connected_components(hyp.mask, min_area=8)[:6]
            if comp.sum() <= max_area
        ]
        ys, xs = np.nonzero(max(comps, key=np.sum))
        click = (float(xs[0]), float(ys[0]))

        cache = InferenceCache()
        sess = _session(shared_sam, seg_img, cache=cache, n_candidates=n)
        step = sess.rectify(click)
        decoded = cache.stats.namespaces["sam.analytic_box"].misses
        assert 1 <= decoded < n
        assert step.candidate_count == n
        assert step.added_mask[int(click[1]), int(click[0])]
        _assert_same_step(step, _reference_rectify(_session(shared_sam, seg_img, n_candidates=n), click))

    def test_box_window_is_the_hypothesis_window(self, scenes, shared_sam):
        seg_img, _ = scenes["crystalline"]
        sess = _session(shared_sam, seg_img, full_extent_axis=None)
        for box in sess.propose_boxes():
            window = box_window(box, seg_img.shape)[1]
            assert {hyp.window for hyp in sess.predictor.masks_from_box(box)} == {window}


class TestClickOnLastPixel:
    """A click in the last half pixel of an axis rounds onto the frame's edge."""

    @pytest.mark.parametrize("click", [(127.6, 60.0), (60.0, 127.7), (127.99, 127.99)])
    def test_session(self, scenes, shared_sam, click):
        seg_img, _ = scenes["amorphous"]
        step = _session(shared_sam, seg_img).rectify(click)
        _assert_same_step(step, _reference_rectify(_session(shared_sam, seg_img), click))

    def test_api(self, amorphous_sample):
        api = ApiHandler()
        sid = api.handle({"action": "create_session"})["session_id"]
        api.store.get(sid).load_array(amorphous_sample.volume.voxels, modality="fibsem")
        assert api.handle({"action": "segment", "session_id": sid, "prompt": "catalyst particles"})["ok"]
        for x, y in ((127.6, 60.0), (60.0, 127.7)):
            r = api.handle({"action": "rectify", "session_id": sid, "x": x, "y": y})
            assert r["ok"] and r["rectify"]["candidates"] == 12
