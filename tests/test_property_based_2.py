"""Property-based tests for adaptation kernels and temporal refinement."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.adapt.contrast import clahe, stretch_contrast
from repro.adapt.denoise import denoise_bilateral, denoise_gaussian, unsharp_mask
from repro.core.temporal import TemporalConfig, refine_box_sequences

SETTINGS = settings(max_examples=25, deadline=None)

float_images = arrays(
    np.float32,
    st.tuples(st.integers(8, 24), st.integers(8, 24)),
    elements=st.floats(0.0, 1.0, width=32),
)


class TestAdaptationInvariants:
    @SETTINGS
    @given(img=float_images)
    def test_contrast_ops_stay_in_unit_range(self, img):
        for fn in (stretch_contrast, lambda x: clahe(x, tiles=(2, 2))):
            out = fn(img)
            assert out.min() >= -1e-6 and out.max() <= 1 + 1e-6

    @SETTINGS
    @given(img=float_images)
    def test_denoisers_stay_in_unit_range(self, img):
        for fn in (
            lambda x: denoise_gaussian(x, sigma=1.0),
            lambda x: denoise_bilateral(x, sigma_spatial=1.0, sigma_range=0.2),
            lambda x: unsharp_mask(x, amount=1.5),
        ):
            out = fn(img)
            assert out.min() >= -1e-5 and out.max() <= 1 + 1e-5

    @SETTINGS
    @given(img=float_images)
    def test_gaussian_reduces_variance(self, img):
        out = denoise_gaussian(img, sigma=2.0)
        assert out.std() <= img.std() + 1e-6

    @SETTINGS
    @given(img=float_images)
    def test_stretch_idempotent(self, img):
        once = stretch_contrast(img)
        twice = stretch_contrast(once)
        assert np.allclose(once, twice, atol=1e-5)


_box = st.tuples(
    st.floats(0, 80), st.floats(0, 80), st.floats(5, 60), st.floats(5, 60)
).map(lambda t: [t[0], t[1], t[0] + t[2], t[1] + t[3]])
_sequences = st.lists(st.lists(_box, min_size=0, max_size=5), min_size=1, max_size=8)


class TestTemporalInvariants:
    @SETTINGS
    @given(seq=_sequences)
    def test_refined_boxes_valid(self, seq):
        arrays_in = [np.asarray(s, dtype=float).reshape(-1, 4) for s in seq]
        refined, report = refine_box_sequences(arrays_in)
        assert len(refined) == len(arrays_in)
        for boxes in refined:
            if len(boxes):
                assert (boxes[:, 2] > boxes[:, 0]).all()
                assert (boxes[:, 3] > boxes[:, 1]).all()

    @SETTINGS
    @given(seq=_sequences)
    def test_deterministic(self, seq):
        arrays_in = [np.asarray(s, dtype=float).reshape(-1, 4) for s in seq]
        a, _ = refine_box_sequences(arrays_in)
        b, _ = refine_box_sequences(arrays_in)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @SETTINGS
    @given(seq=_sequences)
    def test_replacement_count_consistent(self, seq):
        arrays_in = [np.asarray(s, dtype=float).reshape(-1, 4) for s in seq]
        _, report = refine_box_sequences(arrays_in)
        assert report.n_replaced == len(report.replacements)
        assert report.n_boxes_in == sum(len(s) for s in seq)

    @SETTINGS
    @given(seq=_sequences)
    def test_first_nonempty_slice_untouched(self, seq):
        arrays_in = [np.asarray(s, dtype=float).reshape(-1, 4) for s in seq]
        refined, _ = refine_box_sequences(arrays_in, TemporalConfig(min_history=1))
        for orig, ref in zip(arrays_in, refined):
            if len(orig):
                assert np.array_equal(orig, ref)
                break
