"""Property-based suite for the temporal layer (hypothesis).

Covers the two temporal engines' invariants:

* ``refine_box_sequences`` — non-outlier boxes pass through unchanged,
  refined boxes are always finite and (when an image shape is given) within
  bounds, and every replacement report entry indexes a real slice;
* ``BoxRefiner`` — fed slice by slice, it equals ``refine_box_sequences``
  on the whole list (boxes and report), whatever the window, history and
  recentring settings;
* the propagation confidence gate — the EMA update is bounded and monotone,
  identical slices drive engine confidence monotonically upward, and
  meanbox/propagate agree exactly on a static volume.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.core.propagation import PropagationConfig, PropagationEngine
from repro.core.temporal import BoxRefiner, TemporalConfig, refine_box_sequences
from repro.data.datasets import make_sample

SETTINGS = settings(max_examples=40, deadline=None)

IMAGE_SHAPE = (96, 128)  # (H, W)


@st.composite
def box_arrays(draw, max_boxes=4):
    """(N, 4) XYXY boxes inside IMAGE_SHAPE, N possibly 0."""
    h, w = IMAGE_SHAPE
    n = draw(st.integers(0, max_boxes))
    boxes = np.zeros((n, 4))
    for i in range(n):
        x0 = draw(st.floats(0, w - 2))
        y0 = draw(st.floats(0, h - 2))
        boxes[i] = [
            x0,
            y0,
            draw(st.floats(x0 + 1, w)),
            draw(st.floats(y0 + 1, h)),
        ]
    return boxes


@st.composite
def box_sequences(draw, max_slices=6):
    n = draw(st.integers(1, max_slices))
    return [draw(box_arrays()) for _ in range(n)]


class TestRefineBoxProperties:
    @SETTINGS
    @given(seq=box_sequences())
    def test_outputs_finite_and_within_bounds(self, seq):
        refined, _ = refine_box_sequences(seq, TemporalConfig(), image_shape=IMAGE_SHAPE)
        h, w = IMAGE_SHAPE
        assert len(refined) == len(seq)
        for boxes in refined:
            assert np.isfinite(boxes).all()
            if len(boxes):
                assert (boxes[:, 0] >= 0).all() and (boxes[:, 1] >= 0).all()
                assert (boxes[:, 2] <= w).all() and (boxes[:, 3] <= h).all()

    @SETTINGS
    @given(seq=box_sequences())
    def test_non_outliers_pass_through_unchanged(self, seq):
        refined, report = refine_box_sequences(seq, TemporalConfig(), image_shape=IMAGE_SHAPE)
        replaced = {r["slice"] for r in report.replacements}
        for z, (before, after) in enumerate(zip(seq, refined)):
            if z not in replaced:
                assert np.array_equal(np.asarray(before, dtype=float).reshape(-1, 4), after)

    @SETTINGS
    @given(seq=box_sequences())
    def test_replacement_indices_valid(self, seq):
        _, report = refine_box_sequences(seq, TemporalConfig(), image_shape=IMAGE_SHAPE)
        assert report.n_slices == len(seq)
        assert report.n_replaced == len(report.replacements)
        for entry in report.replacements:
            assert 0 <= entry["slice"] < len(seq)
            assert entry["reason"] in ("empty", "oversize")
            assert np.isfinite(np.asarray(entry["replacement"])).all()

    @SETTINGS
    @given(
        seq=box_sequences(max_slices=10),
        frame_outliers=st.lists(st.integers(0, 9), max_size=4),
        window=st.integers(1, 5),
        min_history=st.integers(0, 3),
        recenter=st.booleans(),
        with_shape=st.booleans(),
    )
    def test_incremental_refiner_equals_whole_sequence(
        self, seq, frame_outliers, window, min_history, recenter, with_shape
    ):
        h, w = IMAGE_SHAPE
        for z in frame_outliers:  # grounding failures: frame-scale boxes
            if z < len(seq):
                seq[z] = np.concatenate([seq[z], [[0.0, 0.0, float(w), float(h)]]])
        config = TemporalConfig(window=window, min_history=min_history, recenter=recenter)
        shape = IMAGE_SHAPE if with_shape else None
        whole, report = refine_box_sequences(seq, config, image_shape=shape)
        refiner = BoxRefiner(config, image_shape=shape)
        for z, raw in enumerate(seq):
            assert np.array_equal(refiner.step(raw), whole[z])
        assert refiner.report.as_dict() == report.as_dict()

    def test_edge_outlier_replacement_is_clamped(self):
        """A frame-scale outlier centred near the origin must not produce a
        replacement with negative coordinates."""
        h, w = IMAGE_SHAPE
        history = np.array([[2.0, 2.0, 30.0, 30.0]])
        outlier = np.array([[0.0, 0.0, float(w), float(h)]])
        refined, report = refine_box_sequences(
            [history, outlier], TemporalConfig(), image_shape=IMAGE_SHAPE
        )
        assert report.n_replaced == 1
        assert (refined[1] >= 0).all()
        assert (refined[1][:, 2] <= w).all() and (refined[1][:, 3] <= h).all()


class TestConfidenceGateProperties:
    @SETTINGS
    @given(
        conf=st.floats(0, 1),
        obs=st.floats(0, 1),
        alpha=st.floats(0.01, 1.0),
    )
    def test_ema_update_bounded(self, conf, obs, alpha):
        out = PropagationEngine.update_confidence(conf, obs, alpha)
        assert 0.0 <= out <= 1.0
        assert min(conf, obs) - 1e-12 <= out <= max(conf, obs) + 1e-12

    @SETTINGS
    @given(conf=st.floats(0, 1), alpha=st.floats(0.01, 1.0), steps=st.integers(1, 8))
    def test_perfect_observations_are_monotone(self, conf, alpha, steps):
        trail = [conf]
        for _ in range(steps):
            trail.append(PropagationEngine.update_confidence(trail[-1], 1.0, alpha))
        assert all(b >= a - 1e-12 for a, b in zip(trail, trail[1:]))

    @SETTINGS
    @given(conf=st.floats(0, 1), alpha=st.floats(0.01, 1.0))
    def test_miss_never_raises_confidence(self, conf, alpha):
        assert PropagationEngine.update_confidence(conf, 0.0, alpha) <= conf + 1e-12


@pytest.fixture(scope="module")
def static_volume():
    """A volume whose slices are all byte-identical."""
    sample = make_sample("amorphous", shape=(96, 96), n_slices=1, seed=7)
    return np.repeat(sample.volume.voxels[:1], 5, axis=0)


class TestStaticVolume:
    def test_engine_confidence_monotone_on_identical_slices(self, static_volume):
        pipe = ZenesisPipeline(ZenesisConfig(temporal_mode="propagate"))
        engine = PropagationEngine(pipe, "catalyst particles", config=pipe.config.propagation)
        confidences = []
        for z in range(static_volume.shape[0]):
            _, meta = engine.step(z, static_volume[z])
            confidences.append(meta["confidence"])
        assert all(b >= a - 1e-12 for a, b in zip(confidences, confidences[1:]))
        # Identical slices take the short-circuit path, not a re-decode.
        assert engine.state.short_circuits == static_volume.shape[0] - 1

    def test_meanbox_propagate_parity(self, static_volume):
        """On a static volume the two engines produce identical masks."""
        meanbox = ZenesisPipeline(ZenesisConfig()).segment_volume(
            static_volume, "catalyst particles"
        )
        propagate = ZenesisPipeline(ZenesisConfig(temporal_mode="propagate")).segment_volume(
            static_volume, "catalyst particles"
        )
        assert np.array_equal(meanbox.masks, propagate.masks)
