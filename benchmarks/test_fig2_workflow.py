"""Fig. 2: the interactive DINO-SAM workflow, traced stage by stage.

Regenerates the figure's content as a per-stage latency table for one
interactive segmentation, read from the ``repro_stage_seconds`` histograms
that every stage span feeds.
"""

from repro.cache import export_cache_metrics, reset_cache
from repro.core.pipeline import ZenesisPipeline
from repro.eval.experiments import DEFAULT_PROMPT
from repro.observability import format_profile, reset_registry, stage_rows


def test_fig2_workflow_stage_profile(setup, artifact_dir, benchmark):
    reset_cache()  # cold: the table runs may already have adapted this slice
    reset_registry()
    pipeline = ZenesisPipeline()
    sl = setup.dataset.slices[0]
    result = pipeline.segment_image(sl.image, DEFAULT_PROMPT)
    export_cache_metrics(pipeline.cache)
    table = format_profile()
    print("\nFig. 2 — per-stage wall time of one interactive segmentation")
    print(table)
    (artifact_dir / "fig2_workflow.txt").write_text(table)

    stages = {r["stage"] for r in stage_rows()}
    # Every workflow stage from the figure must have executed.
    assert {
        "adapt.normalize",
        "adapt.denoise",
        "adapt.detector_branch",
        "adapt.segmenter_branch",
        "dino.ground",
        "sam.set_image",
        "sam.box_prompts",
        "gate.relevance",
    } <= stages
    assert result.detection.n_boxes > 0


def test_fig2_grounding_latency(benchmark, setup):
    """Wall time of the grounding stage alone (text -> boxes)."""
    pipeline = ZenesisPipeline()
    det_img, _ = pipeline.adapt(setup.dataset.slices[0].image)
    benchmark(pipeline.dino.ground, det_img, DEFAULT_PROMPT)
