"""Mode B parallel-scaling bench (the ICPP angle).

Times ``segment_volume`` at 1 / 2 / 4 decode workers over the crystalline
volume with temporal refinement on, reports speedup, and verifies that the
masks are identical for every worker count.  The cache is off so every run
does the full work.
"""

import time

import numpy as np

from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.eval.experiments import DEFAULT_PROMPT


def test_parallel_scaling(setup, artifact_dir, benchmark):
    volume = setup.dataset.crystalline.volume
    results = {}
    masks_by_workers = {}
    for workers in (1, 2, 4):
        pipeline = ZenesisPipeline(ZenesisConfig(use_cache=False))
        t0 = time.perf_counter()
        masks_by_workers[workers] = pipeline.segment_volume(
            volume, DEFAULT_PROMPT, n_workers=workers
        ).masks
        results[workers] = time.perf_counter() - t0
    lines = [
        f"{w} worker(s): {t:6.2f}s  speedup x{results[1] / t:4.2f}" for w, t in results.items()
    ]
    text = "\n".join(lines)
    print("\nMode B parallel scaling (10 slices, 256², temporal on)")
    print(text)
    (artifact_dir / "parallel_scaling.txt").write_text(text)

    # Correctness: boxes are refined over the whole prefix before decode
    # fans out, so the masks are identical for every worker count.
    for w in (2, 4):
        assert np.array_equal(masks_by_workers[1], masks_by_workers[w])
    # On a single-core box speedup may be flat; on multi-core it must not be
    # pathologically negative (2x slower would indicate serialization bugs).
    assert results[2] < results[1] * 2.5
