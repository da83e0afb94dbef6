"""Transformer blocks: pre-norm encoder blocks and SAM's two-way blocks."""

from __future__ import annotations

import numpy as np

from .attention import MultiHeadAttention
from .init import ParamFactory
from .layers import LayerNorm, Mlp

__all__ = ["TransformerBlock", "TransformerEncoder", "TwoWayBlock"]


class TransformerBlock:
    """Standard pre-norm block: x += MHA(LN(x)); x += MLP(LN(x))."""

    def __init__(self, params: ParamFactory, name: str, dim: int, n_heads: int, *, mlp_ratio: float = 4.0) -> None:
        self.norm1 = LayerNorm(params, f"{name}.norm1", dim)
        self.attn = MultiHeadAttention(params, f"{name}.attn", dim, n_heads)
        self.norm2 = LayerNorm(params, f"{name}.norm2", dim)
        self.mlp = Mlp(params, f"{name}.mlp", dim, int(dim * mlp_ratio))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # Residual adds accumulate into the fresh sub-layer outputs (IEEE
        # addition commutes, so h + x is bit-identical to x + h); the
        # caller's array is never mutated.
        h = self.attn(self.norm1(x))
        h += x
        out = self.mlp(self.norm2(h))
        out += h
        return out


class TransformerEncoder:
    """A stack of :class:`TransformerBlock` with a final layer norm."""

    def __init__(self, params: ParamFactory, name: str, dim: int, depth: int, n_heads: int, *, mlp_ratio: float = 4.0) -> None:
        self.blocks = [
            TransformerBlock(params, f"{name}.block{i}", dim, n_heads, mlp_ratio=mlp_ratio)
            for i in range(depth)
        ]
        self.norm = LayerNorm(params, f"{name}.norm", dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for block in self.blocks:
            x = block(x)
        return self.norm(x)


class TwoWayBlock:
    """SAM mask-decoder block: queries attend to image tokens and back.

    Four sub-steps, as in the SAM paper: (1) self-attention on the (sparse)
    query tokens, (2) cross-attention queries→image, (3) MLP on queries,
    (4) cross-attention image→queries.  Positional codes are re-added to
    queries/keys at every step.
    """

    def __init__(self, params: ParamFactory, name: str, dim: int, n_heads: int, *, mlp_ratio: float = 2.0, downsample_rate: int = 2) -> None:
        self.self_attn = MultiHeadAttention(params, f"{name}.self", dim, n_heads)
        self.norm1 = LayerNorm(params, f"{name}.norm1", dim)
        self.cross_q2i = MultiHeadAttention(params, f"{name}.q2i", dim, n_heads, downsample_rate=downsample_rate)
        self.norm2 = LayerNorm(params, f"{name}.norm2", dim)
        self.mlp = Mlp(params, f"{name}.mlp", dim, int(dim * mlp_ratio))
        self.norm3 = LayerNorm(params, f"{name}.norm3", dim)
        self.cross_i2q = MultiHeadAttention(params, f"{name}.i2q", dim, n_heads, downsample_rate=downsample_rate)
        self.norm4 = LayerNorm(params, f"{name}.norm4", dim)

    def __call__(
        self,
        queries: np.ndarray,
        image_tokens: np.ndarray,
        query_pe: np.ndarray,
        image_pe: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        q = queries + self.self_attn(queries + query_pe)
        q = self.norm1(q)
        q = q + self.cross_q2i(q + query_pe, image_tokens + image_pe, image_tokens)
        q = self.norm2(q)
        q = q + self.mlp(q)
        q = self.norm3(q)
        img = image_tokens + self.cross_i2q(image_tokens + image_pe, q + query_pe, q)
        img = self.norm4(img)
        return q, img
