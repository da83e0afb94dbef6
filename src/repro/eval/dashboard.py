"""The evaluation dashboard (paper Fig. 8), rendered as standalone HTML.

The real platform shows per-sample and dataset-level metric cards with bar
charts; this renderer produces the same content as a self-contained HTML
document (inline CSS, no external assets) that the platform's Mode C
endpoint serves and the Fig. 8 bench writes to disk.
"""

from __future__ import annotations

import html
from typing import Mapping

from ..observability.metrics import Histogram, MetricsRegistry, stage_rows
from ..resilience.events import event_count
from .evaluator import ALL_METRICS, PAPER_METRICS, MethodEvaluation

__all__ = ["render_dashboard"]

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2em; background: #fafafa; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.8em 0; background: #fff; }
th, td { border: 1px solid #ccc; padding: 0.35em 0.8em; text-align: right; }
th { background: #eee; } td.name { text-align: left; }
.bar { display: inline-block; height: 0.8em; background: #4a90d9; vertical-align: middle; }
.cards { display: flex; gap: 1em; flex-wrap: wrap; }
.card { background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: 0.8em 1.2em; }
.card .value { font-size: 1.6em; font-weight: 600; }
.small { color: #777; font-size: 0.85em; }
"""


def _bar(value: float, scale: float = 120.0) -> str:
    width = max(0.0, min(1.0, value)) * scale
    return f'<span class="bar" style="width:{width:.0f}px"></span>'


def _method_section(name: str, ev: MethodEvaluation) -> list[str]:
    parts = [f"<h2>Method: {html.escape(name)}</h2>"]
    # Dataset-level cards.
    parts.append('<div class="cards">')
    for kind in ev.kinds():
        summary = ev.summary(kind, PAPER_METRICS)
        cells = "".join(
            f"<div><span class='small'>{m}</span><div class='value'>{summary[m].mean:.3f}</div>"
            f"<span class='small'>±{summary[m].std:.3f}</span></div>"
            for m in PAPER_METRICS
        )
        parts.append(
            f"<div class='card'><b>{html.escape(kind)}</b> "
            f"<span class='small'>({summary['iou'].count} slices)</span>{cells}</div>"
        )
    parts.append("</div>")
    # Per-sample table.
    parts.append("<table><tr><th>sample</th>" + "".join(f"<th>{m}</th>" for m in ALL_METRICS) + "<th>iou</th></tr>")
    for s in ev.samples:
        row = f"<tr><td class='name'>{html.escape(s.sample_name)}</td>"
        row += "".join(f"<td>{s.metrics[m]:.3f}</td>" for m in ALL_METRICS)
        row += f"<td>{_bar(s.metrics['iou'])}</td></tr>"
        parts.append(row)
    parts.append("</table>")
    return parts


def _series_rows(registry: MetricsRegistry, prefix: str) -> list[str]:
    """Table rows of every counter/gauge whose name starts with ``prefix``."""
    rows = []
    for m in registry.metrics():
        if m.name.startswith(prefix) and not isinstance(m, Histogram):
            value = int(m.value) if float(m.value).is_integer() else m.value
            rows.append(f"<tr><td class='name'>{html.escape(m.key)}</td><td>{value}</td></tr>")
    return rows


def _cache_section(registry: MetricsRegistry) -> list[str]:
    """Inference-cache card: hit rate plus every ``repro_cache_*`` series."""
    hits = misses = 0
    for m in registry.metrics():
        if m.name == "repro_cache_ns_hits_total":
            hits += int(m.value)
        elif m.name == "repro_cache_ns_misses_total":
            misses += int(m.value)
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    parts = ["<h2>Inference cache</h2>", '<div class="cards">']
    parts.append(
        f"<div class='card'><span class='small'>hit rate</span>"
        f"<div class='value'>{rate:.1%}</div>"
        f"<span class='small'>{hits} hits / {lookups} lookups</span></div>"
    )
    parts.append("</div>")
    parts.append("<table><tr><th>series</th><th>value</th></tr>")
    parts.extend(_series_rows(registry, "repro_cache_"))
    parts.append("</table>")
    return parts


def _latency_section(rows: list, evaluations: Mapping[str, MethodEvaluation]) -> list[str]:
    """Latency card: each method's mean wall time per slice, then per-stage
    p50/p95/p99 wall time."""
    parts = ["<h2>Stage latency percentiles</h2>"]
    for name, ev in evaluations.items():
        parts.append(
            f"<p class='small'>{html.escape(name)}: mean wall time per slice {ev.mean_wall_s():.3f}s</p>"
        )
    if not rows:
        parts.append("<p class='small'>no stage latencies recorded this run</p>")
        return parts
    worst = max(rows, key=lambda r: r["p95_s"])
    parts.append('<div class="cards">')
    parts.append(
        f"<div class='card'><span class='small'>slowest stage (p95)</span>"
        f"<div class='value'>{worst['p95_s']:.3f}s</div>"
        f"<span class='small'>{html.escape(str(worst['stage']))}</span></div>"
    )
    parts.append("</div>")
    parts.append(
        "<table><tr><th>stage</th><th>calls</th><th>p50[s]</th><th>p95[s]</th><th>p99[s]</th></tr>"
    )
    for r in rows:
        parts.append(
            f"<tr><td class='name'>{html.escape(str(r['stage']))}</td><td>{r['calls']}</td>"
            f"<td>{r['p50_s']:.4f}</td><td>{r['p95_s']:.4f}</td><td>{r['p99_s']:.4f}</td></tr>"
        )
    parts.append("</table>")
    return parts


def _resilience_section(registry: MetricsRegistry) -> list[str]:
    """Resilience card: recovery-event counts (retries, quarantines, resumes)."""

    def total(name: str) -> int:
        return event_count(name, registry)

    cards = [
        ("grounding retries", total("grounding.retries"), f"{total('grounding.recovered')} recovered"),
        ("quarantined cache entries", total("cache.quarantined"), "moved to .bad/, never re-read"),
        ("resumed slices", total("checkpoint.resumed_slices"), f"{total('checkpoint.saved_slices')} checkpointed"),
    ]
    parts = ["<h2>Resilience</h2>", '<div class="cards">']
    for label, value, note in cards:
        parts.append(
            f"<div class='card'><span class='small'>{html.escape(label)}</span>"
            f"<div class='value'>{value}</div>"
            f"<span class='small'>{html.escape(note)}</span></div>"
        )
    parts.append("</div>")
    rows = _series_rows(registry, "repro_resilience_")
    if rows:
        parts.append("<table><tr><th>series</th><th>value</th></tr>")
        parts.extend(rows)
        parts.append("</table>")
    else:
        parts.append("<p class='small'>no recovery events recorded this run</p>")
    return parts


def _serving_section(serving: Mapping) -> list[str]:
    """Serving card: inflight/shed, breaker states, session occupancy."""
    admission = serving.get("admission", {})
    sessions = serving.get("sessions")
    cap = serving.get("session_cap")
    evicted = int(serving.get("sessions_evicted_ttl", 0)) + int(
        serving.get("sessions_evicted_capacity", 0)
    )
    cards = [
        ("in flight", admission.get("inflight", 0), f"cap {admission.get('max_inflight', '—')}"),
        ("requests shed", serving.get("shed_total", 0), "429 + Retry-After"),
        ("degraded responses", serving.get("degraded_requests", 0), "breaker fallbacks"),
        (
            "sessions evicted",
            evicted,
            f"{serving.get('sessions_evicted_ttl', 0)} ttl / "
            f"{serving.get('sessions_evicted_capacity', 0)} capacity",
        ),
    ]
    if sessions is not None:
        cards.insert(1, ("live sessions", sessions, f"cap {cap if cap is not None else '—'}"))
    parts = ["<h2>Serving</h2>", '<div class="cards">']
    for label, value, note in cards:
        parts.append(
            f"<div class='card'><span class='small'>{html.escape(label)}</span>"
            f"<div class='value'>{value}</div>"
            f"<span class='small'>{html.escape(str(note))}</span></div>"
        )
    for name, snap in sorted(serving.get("breakers", {}).items()):
        parts.append(
            f"<div class='card'><span class='small'>breaker: {html.escape(name)}</span>"
            f"<div class='value'>{html.escape(str(snap.get('state', '?')))}</div>"
            f"<span class='small'>{snap.get('consecutive_failures', 0)} consecutive "
            f"failure(s), {snap.get('rejected_total', 0)} rejected</span></div>"
        )
    parts.append("</div>")
    return parts


def _jobs_section(jobs: Mapping) -> list[str]:
    """Background-jobs card: queue depth, states, and the recent jobs table."""
    by_state = dict(jobs.get("by_state", {}))
    cards = [
        ("jobs total", jobs.get("total", 0), "everything the journal remembers"),
        ("queued", by_state.get("queued", 0), "waiting for a worker lease"),
        ("running", by_state.get("running", 0) + by_state.get("leased", 0), "leased or executing"),
        (
            "terminal",
            by_state.get("succeeded", 0) + by_state.get("failed", 0) + by_state.get("cancelled", 0),
            f"{by_state.get('succeeded', 0)} ok / {by_state.get('failed', 0)} failed / "
            f"{by_state.get('cancelled', 0)} cancelled",
        ),
    ]
    parts = ["<h2>Background jobs</h2>", '<div class="cards">']
    for label, value, note in cards:
        parts.append(
            f"<div class='card'><span class='small'>{html.escape(label)}</span>"
            f"<div class='value'>{value}</div>"
            f"<span class='small'>{html.escape(str(note))}</span></div>"
        )
    parts.append("</div>")
    recent = jobs.get("jobs", [])
    if recent:
        parts.append(
            "<table><tr><th>job</th><th>kind</th><th>state</th><th>attempt</th>"
            "<th>progress</th></tr>"
        )
        for j in recent:
            progress = j.get("progress", {})
            done, total = progress.get("done"), progress.get("total")
            frac = f"{done}/{total} {_bar(done / total)}" if total else "—"
            parts.append(
                f"<tr><td class='name'>{html.escape(str(j.get('job_id')))}</td>"
                f"<td class='name'>{html.escape(str(j.get('kind')))}</td>"
                f"<td class='name'>{html.escape(str(j.get('state')))}</td>"
                f"<td>{j.get('attempt', 0)}/{j.get('max_attempts', 0)}</td>"
                f"<td>{frac}</td></tr>"
            )
        parts.append("</table>")
    else:
        parts.append("<p class='small'>no jobs submitted this run</p>")
    return parts


def render_dashboard(
    evaluations: Mapping[str, MethodEvaluation],
    *,
    title: str = "Zenesis Evaluation Dashboard",
    metrics: MetricsRegistry | None = None,
    serving: Mapping | None = None,
    jobs: Mapping | None = None,
) -> str:
    """Render all evaluated methods into one HTML document.

    Without ``metrics`` the document holds no wall-clock content, so the
    same evaluations render to the same bytes on any machine.
    ``metrics`` (a :class:`~repro.observability.MetricsRegistry`, usually
    the global one after :func:`~repro.cache.export_cache_metrics`) adds
    three cards read from its series: the Fig. 8 latency card (each
    method's mean wall time per slice, then per-stage p50/p95/p99 from
    ``repro_stage_seconds``), the
    inference-cache card (hit rate and every ``repro_cache_*`` series) and
    the resilience card (``repro_resilience_*``), so retries, quarantines
    and checkpoint resumes are visible — recoveries should
    never be silent.  ``serving``
    (``repro.resilience.serving.serving_snapshot()``) adds the serving
    card: in-flight/shed counts, breaker states, session occupancy and
    evictions.  ``jobs`` (``repro.jobs.JobService.snapshot()``) adds the
    background-jobs card: queue depth by state plus the recent jobs table
    with per-job progress bars.
    """
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        "<p class='small'>accuracy / IoU / Dice at sample and dataset granularity (paper Fig. 8)</p>",
    ]
    for name, ev in evaluations.items():
        parts.extend(_method_section(name, ev))
    if metrics is not None:
        parts.extend(_latency_section(stage_rows(metrics), evaluations))
        parts.extend(_cache_section(metrics))
        parts.extend(_resilience_section(metrics))
    if serving is not None:
        parts.extend(_serving_section(serving))
    if jobs is not None:
        parts.extend(_jobs_section(jobs))
    parts.append("</body></html>")
    return "".join(parts)
