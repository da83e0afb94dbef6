"""Model registry: named configurations and builders.

The paper's deployment uses GroundingDINO **Swin-T** and SAM **ViT-H**;
this registry exposes those names plus the scaled-down variants the
single-core benchmarks run on (``vit_t`` is the default — identical
architecture, smaller dims).  Exact paper-scale dims are available but slow
in pure NumPy; the analytic grounding makes output quality independent of
encoder width, so benches use ``vit_t`` (documented in DESIGN.md).
"""

from __future__ import annotations

from ..errors import ModelConfigError
from .dino import DinoConfig, GroundingDino
from .sam.analytic import AnalyticMaskHead
from .sam.model import Sam, SamConfig

__all__ = ["SAM_CONFIGS", "DINO_CONFIGS", "build_sam", "build_dino", "DEFAULT_SAM", "DEFAULT_DINO"]

DEFAULT_SAM = "vit_t"
DEFAULT_DINO = "swin_t"

SAM_CONFIGS: dict[str, SamConfig] = {
    # Paper-scale (SAM ViT-H: 1280-dim, 32 blocks, 16 heads).
    "vit_h": SamConfig(name="vit_h", patch_size=16, encoder_dim=1280, encoder_depth=32, encoder_heads=16, encoder_window=14, prompt_dim=256, decoder_depth=2, decoder_heads=8),
    "vit_l": SamConfig(name="vit_l", patch_size=16, encoder_dim=1024, encoder_depth=24, encoder_heads=16, encoder_window=14, prompt_dim=256, decoder_depth=2, decoder_heads=8),
    "vit_b": SamConfig(name="vit_b", patch_size=16, encoder_dim=768, encoder_depth=12, encoder_heads=12, encoder_window=14, prompt_dim=256, decoder_depth=2, decoder_heads=8),
    # Benchmark-scale surrogate (same architecture, laptop-friendly dims).
    "vit_t": SamConfig(name="vit_t", patch_size=16, encoder_dim=96, encoder_depth=4, encoder_heads=4, prompt_dim=64, decoder_depth=2, decoder_heads=4),
}

DINO_CONFIGS: dict[str, DinoConfig] = {
    # Named after the paper's Swin-T/Swin-B detectors; no image backbone
    # runs (``stride`` is the patch feature bank's).  The names stay: they
    # are ``dino_name`` values inside cache and checkpoint keys.
    "swin_t": DinoConfig(stride=4, embed_dim=64, text_depth=2, text_heads=4),
    "swin_b": DinoConfig(stride=4, embed_dim=128, text_depth=4, text_heads=8),
}


def build_sam(name: str = DEFAULT_SAM, *, seed: int = 0, analytic: AnalyticMaskHead | None = None) -> Sam:
    """Build a SAM surrogate by config name."""
    if name not in SAM_CONFIGS:
        raise ModelConfigError(f"unknown SAM config {name!r}; known: {sorted(SAM_CONFIGS)}")
    cfg = SAM_CONFIGS[name]
    if seed != cfg.seed:
        from dataclasses import replace

        cfg = replace(cfg, seed=seed)
    return Sam(cfg, analytic=analytic)


def build_dino(name: str = DEFAULT_DINO, *, seed: int = 0, cache=None, **overrides) -> GroundingDino:
    """Build a GroundingDINO surrogate by config name."""
    if name not in DINO_CONFIGS:
        raise ModelConfigError(f"unknown DINO config {name!r}; known: {sorted(DINO_CONFIGS)}")
    cfg = DINO_CONFIGS[name]
    if overrides or seed != cfg.seed:
        from dataclasses import replace

        cfg = replace(cfg, seed=seed, **overrides)
    return GroundingDino(cfg, cache=cache)
