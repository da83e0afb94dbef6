"""From-scratch NumPy neural-network primitives (inference only)."""

from . import kernels
from .attention import MultiHeadAttention, attention_scores
from .embeddings import (
    PatchEmbed,
    RandomFourierPositionEncoding,
    TokenEmbedding,
    clear_sincos_cache,
    sincos_position_embedding,
)
from .init import ParamFactory
from .layers import LayerNorm, Linear, Mlp, gelu, relu, softmax
from .transformer import TransformerBlock, TransformerEncoder, TwoWayBlock

__all__ = [
    "LayerNorm",
    "Linear",
    "Mlp",
    "MultiHeadAttention",
    "ParamFactory",
    "PatchEmbed",
    "RandomFourierPositionEncoding",
    "TokenEmbedding",
    "TransformerBlock",
    "TransformerEncoder",
    "TwoWayBlock",
    "attention_scores",
    "clear_sincos_cache",
    "gelu",
    "kernels",
    "relu",
    "sincos_position_embedding",
    "softmax",
]
