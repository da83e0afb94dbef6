"""Core NN layers in NumPy: linear, layer norm, GELU, MLP.

Inference-only (no autograd).  All math is float32 batched matmul on
C-contiguous arrays — the hot path of every transformer in this library —
per the cache-effects guidance in the HPC guide.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .init import ParamFactory

__all__ = ["Linear", "LayerNorm", "gelu", "Mlp"]


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU with the tanh approximation used by ViT/SAM.

    Delegates to the in-place kernel (``x*x*x`` cubic on a private copy);
    every consumer shares one op sequence, so serial/batched/blocked paths
    agree bitwise within a version.
    """
    return kernels.gelu(x)


class Linear:
    """Affine map ``y = x @ W + b`` over the last axis."""

    def __init__(self, params: ParamFactory, name: str, d_in: int, d_out: int, *, bias: bool = True) -> None:
        self.weight = params.xavier(f"{name}.weight", (d_in, d_out))
        self.bias = params.zeros(f"{name}.bias", (d_out,)) if bias else None
        self.d_in = d_in
        self.d_out = d_out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(x, dtype=np.float32) @ self.weight
        if self.bias is not None:
            y += self.bias
        return y


class LayerNorm:
    """Layer normalisation over the last axis."""

    def __init__(self, params: ParamFactory, name: str, dim: int, *, eps: float = 1e-5) -> None:
        self.gamma = params.ones(f"{name}.gamma", (dim,))
        self.beta = params.zeros(f"{name}.beta", (dim,))
        self.eps = np.float32(eps)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.layernorm(x, self.gamma, self.beta, self.eps)


class Mlp:
    """Transformer feed-forward block: Linear → GELU → Linear."""

    def __init__(self, params: ParamFactory, name: str, dim: int, hidden: int) -> None:
        self.fc1 = Linear(params, f"{name}.fc1", dim, hidden)
        self.fc2 = Linear(params, f"{name}.fc2", hidden, dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # fc1's output is a fresh array, so the GELU can run in place.
        return self.fc2(kernels.gelu_(self.fc1(x)))
