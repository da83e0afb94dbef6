"""Table 2: SAM-only — average performance metrics.

Paper (crystalline row partially garbled in the source; prose gives IoU
0.100 / Dice 0.173):
    Crystalline  IoU 0.100            Dice 0.173±0.137
    Amorphous    accuracy 0.499±0.160 IoU 0.405±0.088  Dice 0.571±0.087

Reproduced shape: unprompted SAM latches onto the sharp-edged black
background on crystalline samples (IoU ≈ 0, total failure) while the
feature-rich amorphous samples pull some predictions onto catalyst
aggregates — moderate mean IoU with large variance.
"""

from repro.baselines.sam_only import SamOnlyBaseline, SamOnlyConfig
from repro.eval.experiments import PAPER_REFERENCE
from repro.eval.report import paper_table
from .conftest import assert_full_run_golden, check_paper_shape


def test_table2_sam_only_rows(table_evaluations, artifact_dir):
    ev = table_evaluations["sam_only"]
    print()
    print(paper_table(ev, title="Table 2 — SAM-only: Average Performance Metrics"))
    for kind in ("crystalline", "amorphous"):
        for line in check_paper_shape(ev.summary(kind), PAPER_REFERENCE["sam_only"][kind], note=f"({kind})"):
            print(line)
    (artifact_dir / "table2_sam_only.txt").write_text(paper_table(ev))

    # SAM-only fails entirely on crystalline (IoU 0.0); amorphous does
    # (much) better (0.223).
    assert_full_run_golden(ev)
    amo = ev.summary("amorphous")
    assert amo["iou"].std > 0.08, "amorphous SAM-only is high-variance (paper: ±0.088)"


def test_table2_sam_only_latency(benchmark, setup):
    """Wall time of one SAM-only automatic-mode prediction (256² slice)."""
    baseline = SamOnlyBaseline(SamOnlyConfig(points_per_side=8))
    raw = setup.dataset.slices[0].image.pixels
    benchmark.pedantic(baseline.segment, args=(raw,), rounds=2, iterations=1)
