"""Lightweight multi-modal adaptation: bit depth, contrast, denoise, channels, readiness."""

from .bitdepth import nominal_range, robust_normalize, to_float01
from .channels import gray_to_multichannel
from .contrast import clahe, stretch_contrast
from .denoise import denoise_bilateral, denoise_gaussian, denoise_median, denoise_nlm
from .pipeline import (
    STEP_LIBRARY,
    AdaptStep,
    AdaptationPipeline,
    default_fibsem_pipeline,
)
from .readiness import READY_THRESHOLD, ReadinessReport, score_readiness

__all__ = [
    "AdaptStep",
    "AdaptationPipeline",
    "READY_THRESHOLD",
    "ReadinessReport",
    "STEP_LIBRARY",
    "clahe",
    "default_fibsem_pipeline",
    "denoise_bilateral",
    "denoise_gaussian",
    "denoise_median",
    "denoise_nlm",
    "gray_to_multichannel",
    "nominal_range",
    "robust_normalize",
    "score_readiness",
    "stretch_contrast",
    "to_float01",
]
