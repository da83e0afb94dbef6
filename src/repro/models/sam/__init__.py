"""SAM surrogate: ViT encoder, prompt encoder, two-way decoder, analytic head."""

from .analytic import DEFAULT_SCORE_WEIGHTS, AnalyticContext, AnalyticMaskHead, MaskHypothesis
from .automatic import SamAutomaticMaskGenerator
from .image_encoder import ImageEncoderViT
from .mask_decoder import DecoderOutput, MaskDecoder
from .model import Sam, SamConfig, SamPredictor
from .prompt_encoder import PromptEncoder

__all__ = [
    "AnalyticContext",
    "AnalyticMaskHead",
    "DEFAULT_SCORE_WEIGHTS",
    "DecoderOutput",
    "ImageEncoderViT",
    "MaskDecoder",
    "MaskHypothesis",
    "PromptEncoder",
    "Sam",
    "SamAutomaticMaskGenerator",
    "SamConfig",
    "SamPredictor",
]
