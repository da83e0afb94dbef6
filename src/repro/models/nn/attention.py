"""Multi-head scaled-dot-product attention (self and cross).

Implements exactly the operator the paper writes out:

    Attention(Q, K, V) = softmax(Q K^T / sqrt(d)) V

with multi-head projection/recombination.  Shapes are ``(..., tokens, dim)``;
queries and keys/values may have different token counts (cross-attention
between text tokens and image patches is the core of GroundingDINO).

The heavy lifting lives in :mod:`repro.models.nn.kernels`: self-attention
projects Q/K/V through one fused gemm, and the softmax·V product routes
through the L2-blocked kernel.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .init import ParamFactory
from .layers import Linear

__all__ = ["MultiHeadAttention", "attention_scores"]


def attention_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Raw scaled attention logits ``Q K^T / sqrt(d)`` (no softmax).

    Exposed separately because GroundingDINO's grounding head thresholds
    these relevance scores directly (text/box thresholds).  Scaling happens
    on the cheaper side when that is errorless — see
    :func:`repro.models.nn.kernels.scaled_scores`; the result stays
    bit-compatible with the historical divide-the-logits form.
    """
    return kernels.scaled_scores(q, k)


class MultiHeadAttention:
    """Multi-head attention; supports self- and cross-attention.

    ``downsample_rate`` shrinks the per-head internal dimension (used by
    SAM's two-way decoder blocks to keep cross-attention cheap).
    """

    def __init__(
        self,
        params: ParamFactory,
        name: str,
        dim: int,
        n_heads: int,
        *,
        kv_dim: int | None = None,
        downsample_rate: int = 1,
    ) -> None:
        if dim % (n_heads * downsample_rate) != 0:
            raise ValueError(f"dim {dim} not divisible by heads*downsample {n_heads * downsample_rate}")
        kv_dim = kv_dim if kv_dim is not None else dim
        self.dim = dim
        self.n_heads = n_heads
        self.inner = dim // downsample_rate
        self.head_dim = self.inner // n_heads
        self.q_proj = Linear(params, f"{name}.q", dim, self.inner)
        self.k_proj = Linear(params, f"{name}.k", kv_dim, self.inner)
        self.v_proj = Linear(params, f"{name}.v", kv_dim, self.inner)
        self.out_proj = Linear(params, f"{name}.out", self.inner, dim)
        # Self-attention runs Q/K/V as ONE gemm against the column-fused
        # weight; possible whenever queries and keys share the input dim.
        # fuse_linear COPIES the Linear weights (np.concatenate) at
        # construction time — Linear parameters are immutable after init
        # (no in-place loading path exists), so the copy cannot go stale;
        # anyone adding one must re-fuse here.  Parameter names/values are
        # untouched, so checkpoints and fingerprints are unaffected.
        self._w_qkv: np.ndarray | None = None
        self._b_qkv: np.ndarray | None = None
        if kv_dim == dim:
            self._w_qkv, self._b_qkv = kernels.fuse_linear(
                [self.q_proj.weight, self.k_proj.weight, self.v_proj.weight],
                [self.q_proj.bias, self.k_proj.bias, self.v_proj.bias],
            )

    def _split(self, x: np.ndarray) -> np.ndarray:
        # (..., T, inner) -> (..., heads, T, head_dim)
        *lead, t, _ = x.shape
        x = x.reshape(*lead, t, self.n_heads, self.head_dim)
        return np.swapaxes(x, -2, -3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        # (..., heads, T, head_dim) -> (..., T, inner)
        x = np.swapaxes(x, -2, -3)
        *lead, t, h, d = x.shape
        return x.reshape(*lead, t, h * d)

    def _project_qkv(
        self, queries: np.ndarray, keys: np.ndarray | None, values: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if keys is None and values is None and self._w_qkv is not None:
            qkv = np.asarray(queries, dtype=np.float32) @ self._w_qkv
            if self._b_qkv is not None:
                qkv += self._b_qkv
            inner = self.inner
            q = qkv[..., :inner]
            k = qkv[..., inner : 2 * inner]
            v = qkv[..., 2 * inner :]
        else:
            keys = queries if keys is None else keys
            values = keys if values is None else values
            q = self.q_proj(queries)
            k = self.k_proj(keys)
            v = self.v_proj(values)
        return self._split(q), self._split(k), self._split(v)

    def __call__(
        self,
        queries: np.ndarray,
        keys: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply attention.  ``keys``/``values`` default to ``queries`` (self)."""
        q, k, v = self._project_qkv(queries, keys, values)
        return self.out_proj(self._merge(kernels.attention(q, k, v)))
