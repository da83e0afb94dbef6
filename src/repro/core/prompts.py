"""Prompt types accepted by the Zenesis pipeline.

The platform's no-code surface is a text prompt plus optional spatial hints;
these dataclasses validate and normalise them once, at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PromptError, ValidationError
from ..utils.validation import ensure_box

__all__ = ["TextPrompt", "SpatialHints"]


@dataclass(frozen=True)
class TextPrompt:
    """A natural-language segmentation request."""

    text: str

    def __post_init__(self):
        if not isinstance(self.text, str) or not self.text.strip():
            raise PromptError("text prompt must be a non-empty string")


@dataclass(frozen=True)
class SpatialHints:
    """Optional user-supplied spatial guidance (Mode A interactions)."""

    boxes: tuple[tuple[float, float, float, float], ...] = ()
    positive_points: tuple[tuple[float, float], ...] = ()  # (x, y)
    negative_points: tuple[tuple[float, float], ...] = ()
    extra: dict = field(default_factory=dict)

    def validated_boxes(self, image_shape: tuple[int, int]) -> list[np.ndarray]:
        return [ensure_box(b, image_shape) for b in self.boxes]

    @property
    def has_points(self) -> bool:
        return bool(self.positive_points or self.negative_points)

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(coords, labels) arrays in SAM convention ((x, y), 1=pos/0=neg).

        A point that is not two numbers raises :class:`ValidationError`;
        negative points without a positive one raise :class:`PromptError`.
        """
        coords = list(self.positive_points) + list(self.negative_points)
        labels = [1] * len(self.positive_points) + [0] * len(self.negative_points)
        try:
            pts = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
            if len(pts) != len(coords):
                raise ValueError
        except (TypeError, ValueError):
            raise ValidationError(f"points must be (x, y) number pairs, got {coords!r}") from None
        if coords and not self.positive_points:
            raise PromptError("point prompts need at least one positive point")
        return pts, np.asarray(labels)
