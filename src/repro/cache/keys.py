"""Content-addressed cache keys.

A cache entry is addressed by *what went in*, never by identity: the SHA-1
of the input array's bytes (dtype and shape included, so a float32 image
and its float64 twin never collide) combined with a fingerprint of every
model/config knob that influences the output.  Two arrays with identical
content but different strides — a view, a Fortran-ordered copy, a
transposed-then-transposed-back buffer — hash identically because hashing
always happens over the C-contiguous byte stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["array_content_key", "config_fingerprint", "combine_keys"]


def array_content_key(arr) -> str:
    """SHA-1 of an array's logical content: dtype ⊕ shape ⊕ C-order bytes."""
    a = np.asarray(arr)
    h = hashlib.sha1()
    h.update(a.dtype.str.encode())
    h.update(repr(a.shape).encode())
    if not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    h.update(a)  # zero-copy over the buffer protocol
    return h.hexdigest()


def _canonical(obj):
    """Reduce a config-like object to a deterministic, repr-stable form."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__, [(f.name, _canonical(getattr(obj, f.name))) for f in fields(obj)])
    if isinstance(obj, np.ndarray):
        return ("ndarray", array_content_key(obj))
    if isinstance(obj, dict):
        return [(k, _canonical(v)) for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if obj is None or isinstance(obj, (str, bytes, int, float, bool)):
        return obj
    # Plain objects with simple attribute dicts (e.g. AnalyticMaskHead).
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, [(k, _canonical(v)) for k, v in sorted(vars(obj).items())])
    return repr(obj)


def config_fingerprint(*objs) -> str:
    """Stable SHA-1 fingerprint of one or more configuration objects.

    Any change to a field value (a different seed, dim, threshold, …)
    produces a different fingerprint, which invalidates every cache entry
    keyed with it — the content-addressing answer to "is this result still
    valid under my current model?".

    The trailing ``"precision=exact"`` literal is the term a since-removed
    precision-tier option appended for its bit-exact tier, which is now the
    only numeric path.  Keeping it leaves every cache key, checkpoint
    fingerprint and durable-job identity byte-identical, so disk-tier
    entries and checkpoints written before the option went stay valid.
    """
    return hashlib.sha1(
        repr([_canonical(o) for o in objs] + ["precision=exact"]).encode()
    ).hexdigest()


def combine_keys(*parts: str) -> str:
    """Join key components into one address."""
    return "|".join(parts)
