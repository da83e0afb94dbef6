"""Run reports read from the metrics registry: manifests and ``--profile``.

Every ``segment``/``evaluate`` CLI run can emit a ``run.json`` capturing
the config fingerprint, the git SHA (when the working tree is a git
checkout), per-stage latency summaries *and* percentiles, a full metrics
snapshot, and the recovery events that fired — enough to compare two runs
(``repro metrics diff a/run.json b/run.json``) without re-running either.
``--profile`` prints the same stage rows and series as a text table.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Mapping

from .metrics import Histogram, MetricsRegistry, get_registry, stage_rows

__all__ = [
    "SCHEMA_VERSION",
    "build_manifest",
    "format_profile",
    "write_manifest",
    "load_manifest",
    "diff_manifests",
    "git_sha",
]

SCHEMA_VERSION = 1


def git_sha(root: Path | str | None = None) -> str | None:
    """The checkout's HEAD SHA, or None outside git / without the binary."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _jsonable_config(config: Any) -> dict | None:
    if config is None:
        return None
    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    if isinstance(config, Mapping):
        return {k: _coerce(v) for k, v in config.items()}
    return {"repr": repr(config)}


def _coerce(value: Any):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {k: _coerce(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _coerce(v) for k, v in asdict(value).items()}
    if isinstance(value, (list, tuple, set)):
        return [_coerce(v) for v in value]
    return repr(value)


def build_manifest(
    command: str,
    *,
    config: Any = None,
    registry: MetricsRegistry | None = None,
    argv: list[str] | None = None,
    extra: Mapping | None = None,
) -> dict:
    """Assemble the manifest dict for one finished run from the registry."""
    from ..cache import export_cache_metrics
    from ..cache.keys import config_fingerprint

    reg = registry or get_registry()
    export_cache_metrics(registry=reg)
    snapshot = reg.snapshot()
    counters = snapshot["counters"]
    manifest = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "created_unix": time.time(),
        # The SHA of the *code* checkout (not the caller's cwd).
        "git_sha": git_sha(Path(__file__).resolve().parent),
        "config": _jsonable_config(config),
        "config_fingerprint": config_fingerprint(config) if config is not None else None,
        "stages": stage_rows(reg),
        "counters": dict(counters),
        "resilience": {k: v for k, v in counters.items() if k.startswith("repro_resilience_")},
        "metrics": snapshot,
    }
    if extra:
        manifest.update(dict(extra))
    return manifest


def format_profile(registry: MetricsRegistry | None = None) -> str:
    """The ``--profile`` table: stage rows, largest total first; then every
    counter and gauge in the registry."""
    reg = registry or get_registry()
    rows = stage_rows(reg)
    series = [m for m in reg.metrics() if not isinstance(m, Histogram)]
    if not rows and not series:
        return "(no stages recorded)"
    lines: list[str] = []
    if rows:
        header = (
            f"{'stage':<28}{'calls':>7}{'total[s]':>11}{'mean[s]':>11}{'p50[s]':>11}{'p95[s]':>11}"
        )
        lines += [header, "-" * len(header)]
        for r in rows:
            lines.append(
                f"{r['stage']:<28}{r['calls']:>7}{r['total_s']:>11.4f}"
                f"{r['mean_s']:>11.4f}{r['p50_s']:>11.4f}{r['p95_s']:>11.4f}"
            )
    if series:
        if lines:
            lines.append("")
        chead = f"{'counter':<64}{'value':>15}"
        lines += [chead, "-" * len(chead)]
        for m in series:
            lines.append(f"{m.key:<64}{_num(m.value):>15}")
    return "\n".join(lines)


def write_manifest(path: Path | str, manifest: Mapping) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=repr))
    return path


def load_manifest(path: Path | str) -> dict:
    return json.loads(Path(path).read_text())


def _fmt_delta(a: float | None, b: float | None, unit: str = "") -> str:
    if a is None or b is None:
        return f"{_fmt(a)}{unit} -> {_fmt(b)}{unit}"
    sign = "+" if b >= a else ""
    return f"{_fmt(a)}{unit} -> {_fmt(b)}{unit} ({sign}{b - a:.4g}{unit})"


def _fmt(v: float | None) -> str:
    return "n/a" if v is None else f"{v:.4g}"


def _num(v: float | None) -> str:
    """A series value: exact when it is a whole number (counts, bytes)."""
    if v is None:
        return "n/a"
    return str(int(v)) if float(v).is_integer() else f"{v:.4g}"


def diff_manifests(a: Mapping, b: Mapping) -> str:
    """Human-readable comparison of two run manifests (A → B)."""
    lines: list[str] = []
    for field in ("command", "git_sha", "config_fingerprint"):
        va, vb = a.get(field), b.get(field)
        marker = "  " if va == vb else "! "
        lines.append(f"{marker}{field}: {va} -> {vb}")

    stages_a = {s["stage"]: s for s in a.get("stages", ())}
    stages_b = {s["stage"]: s for s in b.get("stages", ())}
    names = sorted(set(stages_a) | set(stages_b))
    if names:
        lines.append("")
        lines.append(f"{'stage':<28}{'total[s] A->B':>36}{'p95[s] A->B':>34}")
        for name in names:
            sa, sb = stages_a.get(name, {}), stages_b.get(name, {})
            lines.append(
                f"{name:<28}"
                f"{_fmt_delta(sa.get('total_s'), sb.get('total_s')):>36}"
                f"{_fmt_delta(sa.get('p95_s'), sb.get('p95_s')):>34}"
            )

    counters_a = dict(a.get("counters", {}))
    counters_b = dict(b.get("counters", {}))
    changed = sorted(
        k for k in set(counters_a) | set(counters_b) if counters_a.get(k) != counters_b.get(k)
    )
    if changed:
        lines.append("")
        lines.append(f"{'counter':<64}{'A':>12}{'B':>12}")
        for key in changed:
            lines.append(f"{key:<64}{_num(counters_a.get(key)):>12}{_num(counters_b.get(key)):>12}")
    if len(lines) == 3 and not changed:
        lines.append("")
        lines.append("(no stage or counter differences)")
    return "\n".join(lines)
