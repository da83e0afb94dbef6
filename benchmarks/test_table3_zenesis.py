"""Table 3: Zenesis — average performance metrics (the headline result).

Paper:
    Crystalline  accuracy 0.987±0.005  IoU 0.857±0.029  Dice 0.923±0.017
    Amorphous    accuracy 0.947±0.005  IoU 0.858±0.015  Dice 0.923±0.009

Reproduced shape: Zenesis dominates both baselines on both sample kinds by
a wide margin, with accuracy ≈ 0.97 and amorphous IoU 0.828 (crystalline
lands at 0.719 on the synthetic substrate — the blur apron on thin needles
bounds it; see EXPERIMENTS.md).  Every mean is pinned to the full run.
"""

from repro.core.pipeline import ZenesisPipeline
from repro.eval.experiments import DEFAULT_PROMPT, PAPER_REFERENCE
from repro.eval.report import comparison_table, paper_table
from .conftest import assert_full_run_golden, check_paper_shape


def test_table3_zenesis_rows(table_evaluations, artifact_dir, benchmark):
    ev = table_evaluations["zenesis"]
    print()
    print(paper_table(ev, title="Table 3 — Zenesis: Average Performance Metrics"))
    for kind in ("crystalline", "amorphous"):
        for line in check_paper_shape(ev.summary(kind), PAPER_REFERENCE["zenesis"][kind], note=f"({kind})"):
            print(line)
    print()
    print(comparison_table(table_evaluations, metric="iou"))
    (artifact_dir / "table3_zenesis.txt").write_text(paper_table(ev))
    (artifact_dir / "comparison_iou.txt").write_text(comparison_table(table_evaluations, metric="iou"))

    # Crystalline IoU is rescued far above the 0.16 trap (0.719); amorphous
    # reaches the paper's ~0.86 band (0.828).
    assert_full_run_golden(ev)
    # Winner structure: Zenesis beats both baselines everywhere.
    for kind in ("crystalline", "amorphous"):
        zen = ev.summary(kind)["iou"].mean
        for other in ("otsu", "sam_only"):
            assert zen > table_evaluations[other].summary(kind)["iou"].mean + 0.2


def test_table3_zenesis_latency(benchmark, setup):
    """Wall time of one full Zenesis inference (adapt + ground + segment)."""
    pipeline = ZenesisPipeline()
    sl = setup.dataset.slices[0]
    benchmark.pedantic(
        pipeline.segment_image, args=(sl.image, DEFAULT_PROMPT), rounds=3, iterations=1
    )
