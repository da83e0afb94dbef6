"""Foundation-model surrogates: GroundingDINO (text → boxes) and SAM (prompts → masks)."""

from .clipseg import ClipSegConfig, ClipSegSurrogate
from .dino import Detection, DinoConfig, GroundingDino
from .tuning import CalibrationResult, calibrate_concept, register_calibrated_concept
from .features import FEATURE_NAMES, FeatureGrid, PatchFeatureExtractor, compute_feature_maps
from .registry import (
    DEFAULT_DINO,
    DEFAULT_SAM,
    DINO_CONFIGS,
    SAM_CONFIGS,
    build_dino,
    build_sam,
)
from .sam import (
    AnalyticMaskHead,
    Sam,
    SamAutomaticMaskGenerator,
    SamConfig,
    SamPredictor,
)
from .text import ConceptLexicon, TextEncoding, default_lexicon, tokenize

__all__ = [
    "AnalyticMaskHead",
    "CalibrationResult",
    "ClipSegConfig",
    "ClipSegSurrogate",
    "ConceptLexicon",
    "DEFAULT_DINO",
    "DEFAULT_SAM",
    "DINO_CONFIGS",
    "Detection",
    "DinoConfig",
    "FEATURE_NAMES",
    "FeatureGrid",
    "GroundingDino",
    "PatchFeatureExtractor",
    "SAM_CONFIGS",
    "Sam",
    "SamAutomaticMaskGenerator",
    "SamConfig",
    "SamPredictor",
    "TextEncoding",
    "build_dino",
    "calibrate_concept",
    "register_calibrated_concept",
    "build_sam",
    "compute_feature_maps",
    "default_lexicon",
    "tokenize",
]
