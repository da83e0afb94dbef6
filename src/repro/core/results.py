"""Result containers for slice- and volume-level segmentation."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, ValidationError
from ..models.dino import Detection
from .masks import rle_encode

__all__ = ["SliceResult", "VolumeResult", "StreamResult"]


@dataclass(frozen=True)
class SliceResult:
    """Segmentation output for one image/slice."""

    mask: np.ndarray  # (H, W) bool — the predicted target phase
    detection: Detection  # the grounding stage output (boxes, relevance)
    per_box_masks: tuple[np.ndarray, ...] = ()  # mask chosen for each box
    per_box_kinds: tuple[str, ...] = ()  # analytic hypothesis kind per box
    prompt: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def n_boxes(self) -> int:
        return self.detection.n_boxes

    @property
    def coverage(self) -> float:
        """Fraction of the image covered by the predicted mask."""
        return float(self.mask.mean())

    def to_record(self) -> dict:
        """JSON-safe export (mask as RLE) for the platform API."""
        return {
            "prompt": self.prompt,
            "mask_rle": rle_encode(self.mask),
            "boxes": self.detection.boxes.tolist(),
            "box_scores": self.detection.scores.tolist(),
            "phrases": list(self.detection.phrases),
            "coverage": self.coverage,
            "metadata": dict(self.metadata),
        }


@dataclass(frozen=True)
class VolumeResult:
    """Segmentation output for a volume (Mode B)."""

    masks: np.ndarray  # (Z, H, W) bool
    slice_results: tuple[SliceResult, ...]
    prompt: str = ""
    refinement_report: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.masks.ndim != 3:
            raise ValidationError(f"masks must be (Z, H, W), got shape {self.masks.shape}")
        if len(self.slice_results) != self.masks.shape[0]:
            raise ValidationError(
                f"{len(self.slice_results)} slice results for {self.masks.shape[0]} slices"
            )

    @property
    def n_slices(self) -> int:
        return int(self.masks.shape[0])

    def volume_fraction(self) -> float:
        """Segmented-phase volume fraction (a materials-science deliverable)."""
        return float(self.masks.mean())


@dataclass(frozen=True)
class StreamResult:
    """Segmentation output for a *streamed* volume (Mode B, out-of-core).

    The masks never exist as one (Z, H, W) array — that is the point of the
    streaming path.  They live as checkpoint shards under ``checkpoint_dir``
    (one ``slice_*.npy`` per slice, bit-identical to what the eager path
    would have produced); :meth:`load_mask` reads one back and
    :meth:`assemble_masks` materializes the stack for callers who *know*
    it fits in memory.
    """

    n_slices: int
    slice_shape: tuple[int, int]
    checkpoint_dir: str
    prompt: str = ""
    per_slice_coverage: tuple[float, ...] = ()
    degraded: dict[int, str] = field(default_factory=dict)
    refinement_report: dict = field(default_factory=dict)
    io_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValidationError(f"n_slices must be >= 1, got {self.n_slices}")
        if self.per_slice_coverage and len(self.per_slice_coverage) != self.n_slices:
            raise ValidationError(
                f"{len(self.per_slice_coverage)} coverage entries for {self.n_slices} slices"
            )

    def shard_path(self, z: int) -> Path:
        return Path(self.checkpoint_dir) / f"slice_{int(z):05d}.npy"

    def load_mask(self, z: int) -> np.ndarray:
        """Read one slice mask shard back as a bool array."""
        path = self.shard_path(z)
        try:
            return np.asarray(np.load(path, allow_pickle=False), dtype=bool)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read mask shard {path}: {exc}") from exc

    def iter_masks(self):
        """Yield ``(z, mask)`` in order, one resident slice at a time."""
        for z in range(self.n_slices):
            yield z, self.load_mask(z)

    def assemble_masks(self) -> np.ndarray:
        """Materialize the full (Z, H, W) bool stack.  Caller owns the RAM."""
        masks = np.zeros((self.n_slices, *self.slice_shape), dtype=bool)
        for z, mask in self.iter_masks():
            masks[z] = mask
        return masks

    def volume_fraction(self) -> float:
        """Segmented-phase volume fraction, computed one shard at a time."""
        total = 0.0
        for _, mask in self.iter_masks():
            total += float(mask.mean())
        return total / self.n_slices

    def to_record(self) -> dict:
        """JSON-safe summary for the jobs/platform layers."""
        return {
            "prompt": self.prompt,
            "n_slices": self.n_slices,
            "slice_shape": list(self.slice_shape),
            "checkpoint_dir": self.checkpoint_dir,
            "per_slice_coverage": list(self.per_slice_coverage),
            "degraded": {str(z): r for z, r in sorted(self.degraded.items())},
            "refinement_report": dict(self.refinement_report),
            "io_stats": dict(self.io_stats),
        }
