"""End-to-end, layer-by-layer benchmark of the Zenesis reproduction (see README.md)."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
