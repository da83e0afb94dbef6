"""Fig. 7: heuristic DINO-box refinement for volumes.

The paper's mechanism: sliding-window mean width/height statistics replace
outlier boxes.  The experiment injects synthetic grounding failures (giant
boxes, empty slices) into the real per-slice detections of a volume and
measures segmentation IoU with the heuristic off vs on.
"""

import numpy as np

from repro.core.pipeline import ZenesisPipeline
from repro.core.temporal import TemporalConfig, refine_box_sequences
from repro.eval.experiments import DEFAULT_PROMPT
from repro.metrics.overlap import iou


def _corrupt(per_slice_boxes, h, w, rng):
    """Inject Fig.-7-style failures: giant boxes + a dropped slice."""
    corrupted = [b.copy() for b in per_slice_boxes]
    giant = np.array([[0.0, 0.0, float(w), float(h)]])
    for z in (3, 6):
        corrupted[z] = np.concatenate([corrupted[z], giant]) if len(corrupted[z]) else giant
    corrupted[8] = np.zeros((0, 4))  # grounding failure: empty slice
    return corrupted


def test_fig7_temporal_refinement(setup, artifact_dir):
    pipeline = ZenesisPipeline()
    sample = setup.dataset.crystalline
    voxels = sample.volume.voxels
    n = voxels.shape[0]
    h, w = voxels.shape[1:]

    adapted, detections = [], []
    for z in range(n):
        det_img, seg_img = pipeline.adapt(voxels[z])
        adapted.append(seg_img)
        detections.append(pipeline.ground(det_img, DEFAULT_PROMPT))

    rng = np.random.default_rng(0)
    corrupted = _corrupt([d.boxes for d in detections], h, w, rng)

    def run(per_slice_boxes):
        ious = []
        for z in range(n):
            mask, _, _ = pipeline.segment_with_boxes(adapted[z], detections[z], per_slice_boxes[z])
            ious.append(iou(mask, sample.catalyst_mask[z]))
        return ious

    raw_ious = run(corrupted)
    refined_boxes, report = refine_box_sequences(corrupted, TemporalConfig(), image_shape=(h, w))
    refined_ious = run(refined_boxes)

    lines = [
        f"slice {z}: corrupted {a:.3f} -> refined {b:.3f}"
        for z, (a, b) in enumerate(zip(raw_ious, refined_ious))
    ]
    lines.append(f"replacements: {report.n_replaced}")
    lines.append(f"mean corrupted {np.mean(raw_ious):.3f} -> refined {np.mean(refined_ious):.3f}")
    text = "\n".join(lines)
    print("\nFig. 7 — temporal heuristic under injected grounding failures")
    print(text)
    (artifact_dir / "fig7_temporal.txt").write_text(text)

    assert report.n_replaced >= 3, "giant boxes and the empty slice must be caught"
    assert np.mean(refined_ious) > np.mean(raw_ious), "refinement must recover quality"
    # The injected empty slice must get boxes back.
    assert len(refined_boxes[8]) >= 1


def test_fig7_refinement_latency(benchmark, rng_boxes=None):
    """Wall time of the heuristic itself on a 100-slice synthetic sequence."""
    rng = np.random.default_rng(1)
    seq = []
    for _ in range(100):
        n = rng.integers(1, 8)
        x0 = rng.uniform(0, 200, n)
        y0 = rng.uniform(0, 200, n)
        seq.append(np.stack([x0, y0, x0 + rng.uniform(10, 40, n), y0 + rng.uniform(10, 40, n)], axis=1))
    benchmark(refine_box_sequences, seq)
