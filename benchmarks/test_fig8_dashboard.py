"""Fig. 8: the segmentation performance dashboard.

Regenerates the dashboard over all three methods (Mode C on the 20-slice
benchmark) as standalone HTML plus a metric bar-chart PNG.
"""

from repro.cache import export_cache_metrics
from repro.eval.dashboard import render_dashboard
from repro.observability import get_registry
from repro.io.png import write_png
from repro.viz.plots import bar_chart


def test_fig8_dashboard_html(table_evaluations, artifact_dir, benchmark):
    export_cache_metrics()
    html = render_dashboard(table_evaluations, metrics=get_registry())
    out = artifact_dir / "fig8_dashboard.html"
    out.write_text(html)
    print(f"\nFig. 8 dashboard written to {out} ({len(html)} bytes)")
    for method in ("otsu", "sam_only", "zenesis"):
        assert f"Method: {method}" in html
    assert "Inference cache" in html
    assert "repro_cache_entries" in html
    # 20 per-sample rows per method.
    assert html.count("slice0") >= 3
    assert out.stat().st_size > 5_000


def test_fig8_metric_chart(table_evaluations, artifact_dir, benchmark):
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
