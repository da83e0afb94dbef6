"""Fig. 8: the segmentation performance dashboard.

Regenerates the dashboard over all three methods (Mode C on the 20-slice
benchmark) as standalone HTML plus a metric bar-chart PNG.  The committed
``fig8_dashboard.html`` holds no wall-clock content, so regenerating it
changes its bytes only when a metric moves; the dashboard with the latency,
cache and resilience cards goes to ``fig8_dashboard_timed.html``, which is
not committed.
"""

from repro.cache import export_cache_metrics
from repro.eval.dashboard import render_dashboard
from repro.observability import get_registry
from repro.io.png import write_png
from repro.viz.plots import bar_chart


def test_fig8_dashboard_html(table_evaluations, artifact_dir):
    html = render_dashboard(table_evaluations)
    out = artifact_dir / "fig8_dashboard.html"
    out.write_text(html)
    print(f"\nFig. 8 dashboard written to {out} ({len(html)} bytes)")
    for method in ("otsu", "sam_only", "zenesis"):
        assert f"Method: {method}" in html
    assert "wall time" not in html
    # 20 per-sample rows per method.
    assert html.count("slice0") >= 3
    assert out.stat().st_size > 5_000

    export_cache_metrics()
    timed = render_dashboard(table_evaluations, metrics=get_registry())
    (artifact_dir / "fig8_dashboard_timed.html").write_text(timed)
    assert "mean wall time per slice" in timed
    assert "Inference cache" in timed
    assert "repro_cache_entries" in timed


def test_fig8_metric_chart(table_evaluations, artifact_dir):
    groups = {}
    for method, ev in table_evaluations.items():
        for kind in ev.kinds():
            s = ev.summary(kind, ["accuracy", "iou", "dice"])
            groups[f"{method[:4]}-{kind[:4]}"] = {m: s[m].mean for m in ("accuracy", "iou", "dice")}
    chart = bar_chart(groups)
    out = artifact_dir / "fig8_metrics.png"
    write_png(out, chart)
    print(f"Fig. 8 chart written to {out}")
    assert out.stat().st_size > 1_000


def test_fig8_dashboard_render_latency(benchmark, table_evaluations):
    benchmark(render_dashboard, table_evaluations)
