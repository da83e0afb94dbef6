"""Fig. 6: DINO box refinement with random boxes (Rectify Segmentation).

The interactive-correction experiment, run with the simulated annotator:
starting from a deliberately under-detected mask (raised box threshold),
oracle clicks on missed regions must raise IoU monotonically-ish and reach
a clear improvement within a click budget.
"""

import numpy as np

from repro.core.hitl import RectifyConfig, RectifySession, SimulatedAnnotator
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.eval.experiments import DEFAULT_PROMPT
from repro.metrics.overlap import iou
from repro.models.registry import build_sam
from repro.models.sam.model import SamPredictor


def test_fig6_rectify_improves_iou(setup, artifact_dir):
    # Under-detect on purpose: high box threshold drops weak clusters.
    pipeline = ZenesisPipeline(ZenesisConfig(box_threshold=0.75))
    rows = []
    gains = []
    for kind in ("crystalline", "amorphous"):
        sl = setup.dataset.by_kind(kind)[1]
        result = pipeline.segment_image(sl.image, DEFAULT_PROMPT)
        _, seg_img = pipeline.adapt(sl.image)
        sess = RectifySession(
            SamPredictor(build_sam()),
            seg_img,
            initial_mask=result.mask,
            config=RectifyConfig(n_candidates=16),
        )
        annotator = SimulatedAnnotator(gt_mask=sl.gt_mask)
        trace = [iou(sess.mask, sl.gt_mask)]
        for _ in range(6):
            click = annotator.next_click(sess.mask)
            if click is None:
                break
            sess.rectify(click)
            trace.append(iou(sess.mask, sl.gt_mask))
        rows.append(f"{kind:<12} IoU trace: " + " -> ".join(f"{v:.3f}" for v in trace))
        gains.append(trace[-1] - trace[0])
        assert trace[-1] >= trace[0], "oracle clicks must never hurt"
    report = "\n".join(rows)
    print("\nFig. 6 — HITL rectification (simulated annotator)")
    print(report)
    (artifact_dir / "fig6_rectify.txt").write_text(report)
    assert max(gains) > 0.02, "at least one sample must improve measurably"


def test_fig6_rectify_click_latency(benchmark, setup):
    pipeline = ZenesisPipeline()
    sl = setup.dataset.by_kind("amorphous")[0]
    _, seg_img = pipeline.adapt(sl.image)
    sess = RectifySession(SamPredictor(build_sam()), seg_img)
    ys, xs = np.nonzero(sl.gt_mask)
    click = (float(xs[len(xs) // 2]), float(ys[len(ys) // 2]))
    benchmark.pedantic(sess.rectify, args=(click,), rounds=3, iterations=1)
