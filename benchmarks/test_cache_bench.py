"""Acceptance benchmarks for the content-addressed inference cache.

Three claims, each asserted (not just reported):

(a) re-running ``segment_image`` on the same slice + prompt is >= 3x faster
    than the cold run — every heavy namespace (adaptation, grounding, SAM
    encoding, batched decode) hits;
(b) Mode C evaluation over the 20-slice benchmark is faster with the cache
    on (warmed, as across repeated CLI invocations) than with it off;
(c) batched box-prompt decoding produces masks identical to the serial
    per-box path, with the mask decoder running ONCE per image.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache import CacheConfig, InferenceCache, configure_cache, reset_cache
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.data.datasets import make_benchmark_dataset
from repro.eval.evaluator import Evaluator
from repro.eval.experiments import DEFAULT_PROMPT, ExperimentSetup, build_methods

PROMPT = DEFAULT_PROMPT


def _fresh_cache(**kw) -> InferenceCache:
    """A roomy private memory tier so the bench never hits eviction noise."""
    return configure_cache(CacheConfig(enabled=True, memory_bytes=1 << 30, disk_enabled=False, **kw))


def test_repeat_segment_at_least_3x_faster(crystalline_sample=None):
    reset_cache()
    _fresh_cache()
    pipe = ZenesisPipeline()
    img = make_benchmark_dataset(shape=(192, 192), n_slices=1).slices[0].image.pixels

    t0 = time.perf_counter()
    cold = pipe.segment_image(img, PROMPT)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = pipe.segment_image(img, PROMPT)
    t_warm = time.perf_counter() - t0

    speedup = t_cold / max(t_warm, 1e-9)
    print(f"\ncold {t_cold * 1e3:.1f} ms, warm {t_warm * 1e3:.1f} ms -> {speedup:.1f}x")
    assert np.array_equal(cold.mask, warm.mask)
    assert speedup >= 3.0, f"cache speedup {speedup:.2f}x < 3x"
    reset_cache()


def test_mode_c_eval_faster_with_cache():
    """Warmed cache-on Mode C pass beats the cache-off pass on 20 slices."""
    dataset = make_benchmark_dataset(shape=(256, 256), n_slices=10)  # 2 kinds x 10

    def run(use_cache: bool) -> float:
        setup = ExperimentSetup(dataset=dataset, zenesis_config=ZenesisConfig(use_cache=use_cache))
        evaluator = Evaluator(build_methods(setup))
        t0 = time.perf_counter()
        evaluator.evaluate(dataset.slices, method_names=["zenesis"])
        return time.perf_counter() - t0

    reset_cache()
    t_off = run(use_cache=False)
    _fresh_cache()
    run(use_cache=True)  # warm: fills the cache, as a prior CLI run would
    t_on = run(use_cache=True)
    print(f"\nMode C 20 slices: cache off {t_off:.2f}s, cache on (warm) {t_on:.2f}s")
    assert t_on < t_off, f"cache-on eval ({t_on:.2f}s) not faster than cache-off ({t_off:.2f}s)"
    reset_cache()


def test_batched_decode_identical_and_single_pass():
    reset_cache()
    _fresh_cache()
    pipe = ZenesisPipeline()
    img = make_benchmark_dataset(shape=(192, 192), n_slices=1).slices[0].image.pixels

    calls: list[int] = []
    decoder_cls = type(pipe.sam.mask_decoder)
    orig = decoder_cls.decode_batch

    def counting(self, *args, **kwargs):
        out = orig(self, *args, **kwargs)
        calls.append(len(out))
        return out

    decoder_cls.decode_batch = counting
    try:
        result = pipe.segment_image(img, PROMPT)
        k = result.n_boxes
        assert k >= 2, "benchmark image should ground multiple boxes"
        # The grounded path picks masks with the analytic head alone.
        assert calls == [], f"the grounded path ran the decoder: {calls}"

        # An explicit batched decode runs one pass for all K boxes and is
        # identical to the serial per-box path, bit for bit.
        serial_pipe = ZenesisPipeline(ZenesisConfig(use_cache=False))
        serial_pipe.predictor.set_image(pipe.predictor._image)
        boxes = result.detection.boxes
        batched = serial_pipe.predictor.predict_boxes(boxes)
        assert calls == [k], f"expected one decoder pass for {k} boxes, saw {calls}"
    finally:
        decoder_cls.decode_batch = orig
    for box, (bm, bs, bl) in zip(boxes, batched):
        sm, ss, sl = serial_pipe.predictor.predict(box=box, multimask_output=True)
        assert np.array_equal(sm, bm)
        assert np.array_equal(ss, bs)
        assert np.array_equal(sl, bl)
    reset_cache()
