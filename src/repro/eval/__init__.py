"""Mode C evaluation: evaluator, paper tables, experiments, HTML dashboard."""

from .dashboard import render_dashboard
from .evaluator import (
    ALL_METRICS,
    PAPER_METRICS,
    Evaluator,
    MethodEvaluation,
    SampleEvaluation,
    evaluate_mask,
)
from .experiments import (
    DEFAULT_PROMPT,
    PAPER_REFERENCE,
    ExperimentSetup,
    build_methods,
    evaluate_benchmark,
    run_all_tables,
    run_table,
)
from .report import comparison_table, paper_table

__all__ = [
    "ALL_METRICS",
    "DEFAULT_PROMPT",
    "Evaluator",
    "ExperimentSetup",
    "MethodEvaluation",
    "PAPER_METRICS",
    "PAPER_REFERENCE",
    "SampleEvaluation",
    "build_methods",
    "comparison_table",
    "evaluate_benchmark",
    "evaluate_mask",
    "paper_table",
    "render_dashboard",
    "run_all_tables",
    "run_table",
]
