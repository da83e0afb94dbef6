"""Tests for the Mode C evaluation framework, reports, and dashboard."""

import numpy as np
import pytest

from repro.baselines.otsu import otsu_segment
from repro.errors import EvaluationError
from repro.eval.dashboard import render_dashboard
from repro.eval.evaluator import PAPER_METRICS, Evaluator, evaluate_mask
from repro.eval.experiments import (
    DEFAULT_PROMPT,
    PAPER_REFERENCE,
    ExperimentSetup,
    build_methods,
    evaluate_benchmark,
    run_table,
)
from repro.eval.report import comparison_table, paper_table


@pytest.fixture(scope="module")
def otsu_eval(request):
    mini = request.getfixturevalue("mini_dataset")
    ev = Evaluator({"otsu": lambda img: otsu_segment(img)})
    return ev.evaluate(mini.slices)["otsu"]


class TestEvaluateMask:
    def test_all_metrics_present(self, rng):
        pred = rng.random((16, 16)) > 0.5
        gt = rng.random((16, 16)) > 0.5
        m = evaluate_mask(pred, gt)
        assert set(m) == {"accuracy", "iou", "dice", "precision", "recall", "boundary_f1"}
        assert all(0.0 <= v <= 1.0 for v in m.values())


class TestEvaluator:
    def test_needs_methods(self):
        with pytest.raises(EvaluationError):
            Evaluator({})

    def test_per_kind_summaries(self, otsu_eval):
        assert set(otsu_eval.kinds()) == {"crystalline", "amorphous"}
        s = otsu_eval.summary("crystalline", PAPER_METRICS)
        assert set(s) == set(PAPER_METRICS)

    def test_sample_count(self, otsu_eval, mini_dataset):
        assert len(otsu_eval.samples) == len(mini_dataset)

    def test_unknown_method_rejected(self, mini_dataset):
        ev = Evaluator({"otsu": lambda img: otsu_segment(img)})
        with pytest.raises(EvaluationError, match="unknown methods"):
            ev.evaluate(mini_dataset.slices, method_names=["nope"])

    def test_shape_mismatch_caught(self, mini_dataset):
        ev = Evaluator({"bad": lambda img: np.zeros((3, 3), dtype=bool)})
        with pytest.raises(EvaluationError, match="shape"):
            ev.evaluate(mini_dataset.slices)

    def test_no_slices_rejected(self):
        ev = Evaluator({"otsu": lambda img: otsu_segment(img)})
        with pytest.raises(EvaluationError):
            ev.evaluate([])

    def test_wall_time_recorded(self, otsu_eval):
        assert all(s.wall_s >= 0 for s in otsu_eval.samples)
        assert otsu_eval.mean_wall_s() >= 0


class TestReports:
    def test_paper_table_structure(self, otsu_eval):
        table = paper_table(otsu_eval)
        assert "Average Performance Metrics" in table
        assert "Crystalline" in table and "Amorphous" in table
        assert "±" in table

    def test_comparison_table(self, otsu_eval):
        table = comparison_table({"otsu": otsu_eval}, metric="iou")
        assert "otsu" in table


class TestDashboard:
    def test_renders_html(self, otsu_eval):
        html = render_dashboard({"otsu": otsu_eval})
        assert html.startswith("<!DOCTYPE html>")
        assert "Method: otsu" in html
        assert "crystalline" in html
        # Per-sample rows present.
        assert html.count("<tr>") >= len(otsu_eval.samples)

    def test_escapes_html(self, otsu_eval):
        html = render_dashboard({"<script>": otsu_eval})
        assert "<script>" not in html.replace("&lt;script&gt;", "")


class TestExperiments:
    def test_paper_reference_complete(self):
        for method in ("otsu", "sam_only", "zenesis"):
            for kind in ("crystalline", "amorphous"):
                assert set(PAPER_REFERENCE[method][kind]) == {"accuracy", "iou", "dice"}

    def test_build_methods_names(self, mini_dataset):
        setup = ExperimentSetup(dataset=mini_dataset)
        methods = build_methods(setup)
        assert set(methods) == {"otsu", "sam_only", "zenesis"}

    def test_run_table_unknown(self):
        with pytest.raises(KeyError):
            run_table("table9")

    def test_run_table1_shape_holds_mini(self, mini_dataset):
        # Even at 96² the Otsu trap ordering must hold: amorphous IoU is
        # materially above crystalline IoU.
        setup = ExperimentSetup(dataset=mini_dataset)
        ev = run_table("table1", setup)
        cry = ev.summary("crystalline", ["iou"])["iou"].mean
        amo = ev.summary("amorphous", ["iou"])["iou"].mean
        assert amo > cry

    def test_evaluate_benchmark_rejects_unknown_before_running(self):
        ran: list[str] = []
        with pytest.raises(EvaluationError, match="unknown methods"):
            evaluate_benchmark(
                ["otsu", "bogus"],
                shape=(32, 32),
                n_slices=1,
                on_method=lambda done, name: ran.append(name),
            )
        assert ran == []

    def test_default_prompt(self):
        assert DEFAULT_PROMPT == "catalyst particles"
