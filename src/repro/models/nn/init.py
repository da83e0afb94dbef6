"""Deterministic parameter initialisation.

Pretrained SAM/GroundingDINO weights are unavailable offline, so every
parameter tensor is drawn from a seeded stream keyed by its qualified name.
The same (seed, name) always yields the same tensor — across processes and
module-construction orders — which keeps surrogate-model outputs exactly
reproducible across processes.
"""

from __future__ import annotations

import numpy as np

from ...utils.rng import derive_seed

__all__ = ["ParamFactory"]


class ParamFactory:
    """Creates named, deterministically-initialised float32 parameters."""

    def __init__(self, seed: int, scope: str = "") -> None:
        self.seed = int(seed)
        self.scope = scope

    def child(self, name: str) -> "ParamFactory":
        """A factory for a sub-module; names compose with '/'."""
        scope = f"{self.scope}/{name}" if self.scope else name
        return ParamFactory(self.seed, scope)

    def _rng(self, name: str) -> np.random.Generator:
        full = f"{self.scope}/{name}" if self.scope else name
        return np.random.default_rng(derive_seed(self.seed, "param", full))

    def normal(self, name: str, shape: tuple[int, ...], *, std: float = 0.02) -> np.ndarray:
        """Gaussian init (transformer default)."""
        return (self._rng(name).normal(scale=std, size=shape)).astype(np.float32)

    def xavier(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Xavier/Glorot uniform init for (fan_in, fan_out) matrices."""
        fan_in, fan_out = shape[0], shape[-1]
        bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
        return self._rng(name).uniform(-bound, bound, size=shape).astype(np.float32)

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        del name  # deterministic regardless; keeps the API uniform
        return np.zeros(shape, dtype=np.float32)

    def ones(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        del name
        return np.ones(shape, dtype=np.float32)
