"""From-scratch NumPy neural-network primitives (inference only)."""

from . import kernels
from .attention import MultiHeadAttention, attention_scores
from .embeddings import (
    PatchEmbed,
    RandomFourierPositionEncoding,
    clear_sincos_cache,
    sincos_position_embedding,
)
from .init import ParamFactory
from .layers import LayerNorm, Linear, Mlp, gelu
from .transformer import TransformerBlock, TransformerEncoder, TwoWayBlock

__all__ = [
    "LayerNorm",
    "Linear",
    "Mlp",
    "MultiHeadAttention",
    "ParamFactory",
    "PatchEmbed",
    "RandomFourierPositionEncoding",
    "TransformerBlock",
    "TransformerEncoder",
    "TwoWayBlock",
    "attention_scores",
    "clear_sincos_cache",
    "gelu",
    "kernels",
    "sincos_position_embedding",
]
