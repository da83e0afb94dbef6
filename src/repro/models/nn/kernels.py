"""Fused/blocked NumPy kernels for the transformer hot path.

This module is the leaf of the NN stack (imports only NumPy);
``layers.py`` / ``attention.py`` build on it.  Every kernel is bit-exact
fp32: each fused or in-place form performs the same per-element arithmetic
as the expression it replaces.  Three kernel families live here:

* **Scaled attention** — :func:`scaled_scores`, :func:`naive_attention`,
  :func:`blocked_attention`, and :func:`attention`, which is the blocked
  path.  Blocking tiles over the *leading* (batch × windows × heads) axis
  only: on this BLAS, slicing a gemm along the reduction-visible row axis
  changes low bits, but batched-matmul per-slice results are bit-identical
  to the full stacked call — so leading-axis tiles keep ``blocked ==
  naive`` exactly while the logits tile stays L2-resident.
  :func:`naive_attention` is the test reference.
* **In-place activations** — :func:`gelu_` and :func:`layernorm_` rewrite
  the multi-temporary expressions in ``layers.py`` as in-place ufunc
  chains.  ``np.power(x, 3)`` in the old GELU went through the generic pow
  path and dominated encoder time; ``x*x*x`` is the same polynomial ~35×
  faster.  In-place ufuncs (``out=``) are bit-identical to their
  out-of-place forms, so every code path that shares these kernels keeps
  within-version bit parity.
* **Fused projections** — :func:`fuse_linear` concatenates Q/K/V weights
  column-wise so one gemm replaces three; column slices of the fused
  product are bit-identical to the separate products.

Attention tiles fit half the detected L2 cache.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "L2_BYTES",
    "attention",
    "attention_tile",
    "blocked_attention",
    "fuse_linear",
    "gelu",
    "gelu_",
    "layernorm",
    "layernorm_",
    "naive_attention",
    "scaled_scores",
    "softmax_",
]

_SQRT_2_OVER_PI = np.float32(math.sqrt(2.0 / math.pi))
_GELU_COEF = np.float32(0.044715)
_HALF = np.float32(0.5)
_ONE = np.float32(1.0)


# -- cache geometry -----------------------------------------------------------


def _read_l2_bytes() -> int:
    for index in ("index2", "index1"):
        path = f"/sys/devices/system/cpu/cpu0/cache/{index}/size"
        try:
            with open(path) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        try:
            if text.endswith("K"):
                return int(text[:-1]) << 10
            if text.endswith("M"):
                return int(text[:-1]) << 20
            return int(text)
        except ValueError:
            continue
    return 1 << 21  # assume 2 MiB when sysfs is unavailable


#: Detected L2 size; tiles are budgeted to half of it so the logits tile and
#: the streaming K/V operands coexist without thrashing.
L2_BYTES = _read_l2_bytes()
_TILE_BUDGET = max(L2_BYTES // 2, 1 << 18)


def attention_tile(t_q: int, t_k: int) -> int:
    """Leading-axis tile (slices per block) sized so the logits fit the budget."""
    per_slice = max(t_q * t_k * 4, 1)
    return max(1, _TILE_BUDGET // per_slice)


# -- scaled attention ---------------------------------------------------------


def _pow2_sqrt(d: int) -> bool:
    # True when sqrt(d) is an exact power of two, i.e. scaling by
    # 1/sqrt(d) is an errorless float operation (exponent shift only).
    root = math.isqrt(int(d))
    return root * root == d and root & (root - 1) == 0


def _f32(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def scaled_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``Q K^T / sqrt(d)``, scaling the cheaper side.

    When ``sqrt(d)`` is a power of two the scale is errorless, so
    pre-scaling ``q`` (the smaller operand, one pass) is bit-identical to
    dividing the full logits matrix and always taken.  Otherwise the
    historical divide runs in place on the fresh matmul output.
    """
    q = _f32(q)
    k = _f32(k)
    d = q.shape[-1]
    k_t = np.swapaxes(k, -1, -2)
    if _pow2_sqrt(d):
        return (q * np.float32(1.0 / math.sqrt(d))) @ k_t
    out = q @ k_t
    np.divide(out, np.float32(np.sqrt(d)), out=out)
    return out


def softmax_(x: np.ndarray) -> np.ndarray:
    """In-place numerically-stable softmax over the last axis.

    Subtract the row max, exp, divide by the row sum — the textbook stable
    op sequence, run in place; ``x`` must be a fresh float32 array the
    caller owns.
    """
    np.subtract(x, x.max(axis=-1, keepdims=True), out=x)
    np.exp(x, out=x)
    np.divide(x, x.sum(axis=-1, keepdims=True), out=x)
    return x


def _as_3d(x: np.ndarray) -> np.ndarray:
    # (..., T, D) -> (L, T, D); copies when the input is a strided view,
    # which does not change matmul results (verified bit-identical).
    return x.reshape(-1, x.shape[-2], x.shape[-1])


def naive_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reference path: full logits materialised in one stacked matmul."""
    weights = softmax_(scaled_scores(q, k))
    return weights @ _f32(v)


def blocked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, *, tile: int | None = None) -> np.ndarray:
    """Leading-axis blocked attention, bit-identical to :func:`naive_attention`.

    Slices the flattened leading (batch × heads) axis into tiles whose
    logits fit in L2; every per-tile gemm and in-place softmax performs the
    same per-slice arithmetic as the stacked naive call, so the result is
    bit-exact — including ragged final tiles.
    """
    q, k, v = _f32(q), _f32(k), _f32(v)
    lead = q.shape[:-2]
    q3, k3, v3 = _as_3d(q), _as_3d(k), _as_3d(v)
    n_lead, t_q, _ = q3.shape
    t_k = k3.shape[-2]
    d_v = v3.shape[-1]
    step = tile if tile is not None else attention_tile(t_q, t_k)
    out = np.empty((n_lead, t_q, d_v), dtype=np.float32)
    for s in range(0, n_lead, step):
        e = min(s + step, n_lead)
        logits = scaled_scores(q3[s:e], k3[s:e])
        softmax_(logits)
        np.matmul(logits, v3[s:e], out=out[s:e])
    return out.reshape(*lead, t_q, d_v)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention through the blocked kernel."""
    return blocked_attention(q, k, v)


# -- fused projections --------------------------------------------------------


def fuse_linear(
    weights: list[np.ndarray], biases: list[np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Column-concatenate per-projection weights/biases into one gemm operand.

    ``x @ fused`` sliced column-wise is bit-identical to the separate
    ``x @ w_i`` products (each output column is the same dot product), so
    fusing Q/K/V is bit-exact.  All weights must share ``d_in``.

    The result is a COPY, not a view: mutating the source weights in place
    afterwards (e.g. a future checkpoint-loading path) would silently
    desynchronise the fused and per-projection paths — such a path must
    re-fuse.  Today Linear parameters are immutable after construction.
    """
    fused_w = np.ascontiguousarray(np.concatenate(weights, axis=1))
    if any(b is None for b in biases):
        return fused_w, None
    return fused_w, np.ascontiguousarray(np.concatenate(biases))


# -- in-place activations -----------------------------------------------------


def gelu_(x: np.ndarray) -> np.ndarray:
    """In-place tanh-GELU on a float32 array the caller owns.

    The cubic goes through ``x*x*x`` (same polynomial as ``x**3`` but on
    the fast multiply path) and a single scratch array replaces the five
    temporaries of the naive expression.
    """
    u = x * x
    np.multiply(u, x, out=u)
    np.multiply(u, _GELU_COEF, out=u)
    np.add(u, x, out=u)
    np.multiply(u, _SQRT_2_OVER_PI, out=u)
    np.tanh(u, out=u)
    np.add(u, _ONE, out=u)
    np.multiply(u, _HALF, out=u)
    np.multiply(x, u, out=x)
    return x


def gelu(x: np.ndarray) -> np.ndarray:
    """Out-of-place GELU (copies, then applies :func:`gelu_`)."""
    arr = np.array(x, dtype=np.float32)
    # 0-d arrays break in-place ufuncs; mutate through a 1-d view instead.
    gelu_(np.atleast_1d(arr))
    return arr


def layernorm_(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: np.float32) -> np.ndarray:
    """In-place layer norm over the last axis of a float32 array.

    Mirrors the historical two-pass mean/var expression op for op
    (bit-identical).
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    np.subtract(x, mu, out=x)
    np.divide(x, np.sqrt(var + eps), out=x)
    np.multiply(x, gamma, out=x)
    np.add(x, beta, out=x)
    return x


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: np.float32) -> np.ndarray:
    """Out-of-place layer norm (copies, then applies :func:`layernorm_`)."""
    return layernorm_(np.array(x, dtype=np.float32), gamma, beta, eps)
