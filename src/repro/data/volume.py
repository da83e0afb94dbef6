"""The :class:`ScientificVolume` container for 3-D stacks.

Volumes are ordered (Z, Y, X).  FIB-SEM stacks are typically anisotropic —
the milling step (Z) is coarser than the imaging pixel (Y, X) — which the
container records as ``voxel_size_nm`` and reports as ``anisotropy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator

import numpy as np

from ..errors import ValidationError
from ..utils.validation import ensure_3d
from .image import MODALITIES, Modality, ScientificImage, infer_bit_depth

__all__ = ["ScientificVolume"]


@dataclass(frozen=True)
class ScientificVolume:
    """A 3-D scientific volume plus acquisition provenance.

    ``voxels`` is ``(Z, Y, X)``; ``voxel_size_nm`` is (z, y, x) in nanometres.
    """

    voxels: np.ndarray
    modality: Modality = "unknown"
    voxel_size_nm: tuple[float, float, float] | None = None
    bit_depth: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    history: tuple[str, ...] = ()

    def __post_init__(self):
        arr = ensure_3d(self.voxels, "voxels")
        if self.modality not in MODALITIES:
            raise ValidationError(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "voxels", arr)
        if self.bit_depth is None:
            object.__setattr__(self, "bit_depth", infer_bit_depth(arr))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.voxels.shape  # type: ignore[return-value]

    @property
    def n_slices(self) -> int:
        return int(self.voxels.shape[0])

    @property
    def anisotropy(self) -> float | None:
        """Z spacing divided by in-plane Y spacing (1.0 means isotropic)."""
        if self.voxel_size_nm is None:
            return None
        z, y, _x = self.voxel_size_nm
        return float(z / y)

    def slice_image(self, index: int) -> ScientificImage:
        """Extract slice ``index`` as a :class:`ScientificImage` (view, not copy)."""
        if not -self.n_slices <= index < self.n_slices:
            raise ValidationError(f"slice index {index} out of range for {self.n_slices} slices")
        pixel_size = None
        if self.voxel_size_nm is not None:
            pixel_size = (self.voxel_size_nm[1], self.voxel_size_nm[2])
        return ScientificImage(
            pixels=self.voxels[index],
            modality=self.modality,
            pixel_size_nm=pixel_size,
            bit_depth=self.bit_depth,
            metadata={**self.metadata, "slice_index": int(index % self.n_slices)},
            history=self.history,
        )

    def iter_slices(self) -> Iterator[ScientificImage]:
        """Iterate slices in Z order as images."""
        for i in range(self.n_slices):
            yield self.slice_image(i)

    def with_voxels(self, voxels: np.ndarray, step: str) -> "ScientificVolume":
        """Return a copy with new voxel data and ``step`` appended to history."""
        return replace(self, voxels=np.asarray(voxels), bit_depth=None, history=self.history + (step,))

    def describe(self) -> dict[str, Any]:
        """A JSON-safe summary used by the platform's preview endpoint."""
        arr = self.voxels
        return {
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "bit_depth": self.bit_depth,
            "modality": self.modality,
            "voxel_size_nm": list(self.voxel_size_nm) if self.voxel_size_nm else None,
            "anisotropy": self.anisotropy,
            "min": float(arr.min()),
            "max": float(arr.max()),
            "history": list(self.history),
        }
