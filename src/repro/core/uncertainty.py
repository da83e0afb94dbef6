"""Per-pixel segmentation uncertainty and uncertainty-guided interaction.

The paper's related work highlights uncertainty-aware human-in-the-loop
segmentation (MedUHIP).  The surrogate stack exposes two natural uncertainty
sources, combined here into a per-pixel confidence field:

* **hypothesis disagreement** — the analytic head emits several competing
  masks per prompt; pixels claimed by some hypotheses but not others are
  uncertain (an ensemble-variance analogue of SAM's multimask output);
* **relevance ambiguity** — text-grounded relevance near the box threshold
  is the detector saying "maybe" (distance from the decision boundary).

:func:`uncertainty_map` fuses them; :class:`UncertaintyAnnotator` is a drop-in
replacement for the oracle annotator that clicks where the model is *least
sure* instead of where the most ground truth is missing — the active-learning
flavour of the Fig. 6 loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter

from ..errors import EvaluationError
from .masks import dilate, erode, label
from .results import SliceResult

__all__ = ["uncertainty_map", "UncertaintyAnnotator", "mean_confidence"]


def uncertainty_map(
    result: SliceResult,
    *,
    relevance_weight: float = 0.5,
    threshold: float | None = None,
) -> np.ndarray:
    """Per-pixel uncertainty in [0, 1] for a slice result.

    Hypothesis disagreement: among the per-box candidate masks, the vote
    fraction ``v`` of a pixel yields ``4·v·(1-v)`` (max at an even split).
    Relevance ambiguity: ``exp(-(|relevance - t| / 0.15)²)`` peaks where the
    grounding sits on its own decision boundary ``t``.
    """
    if not 0.0 <= relevance_weight <= 1.0:
        raise EvaluationError(f"relevance_weight must be in [0, 1], got {relevance_weight}")
    h, w = result.mask.shape
    # Vote field over per-box masks (fall back to the final mask alone).
    # Each mask only "votes" within its own bounding region — a pixel far
    # from a hypothesis is not evidence against it, so the electorate is
    # local (masks whose extent covers the pixel).
    masks = result.per_box_masks if result.per_box_masks else (result.mask,)
    votes = np.zeros((h, w), dtype=np.float32)
    support = np.zeros((h, w), dtype=np.float32)
    for m in masks:
        ys, xs = np.nonzero(m)
        if ys.size == 0:
            continue
        y0, y1 = int(ys.min()), int(ys.max()) + 1
        x0, x1 = int(xs.min()), int(xs.max()) + 1
        votes[y0:y1, x0:x1] += m[y0:y1, x0:x1]
        support[y0:y1, x0:x1] += 1.0
    v = np.where(support > 0, votes / np.maximum(support, 1.0), 0.0)
    disagreement = 4.0 * v * (1.0 - v)
    # Smooth a little: single-pixel vote noise is not actionable.
    disagreement = uniform_filter(disagreement, size=3, mode="nearest")

    rel = result.detection.relevance
    t = threshold if threshold is not None else 0.35
    ambiguity = np.exp(-(((rel - t) / 0.15) ** 2)).astype(np.float32)

    combined = (1.0 - relevance_weight) * disagreement + relevance_weight * ambiguity
    return np.clip(combined, 0.0, 1.0)


def mean_confidence(result: SliceResult) -> float:
    """Scalar confidence for the dashboard: 1 - mean uncertainty over the mask
    boundary band (interior and far background are trivially confident)."""
    unc = uncertainty_map(result)
    m = result.mask
    band = dilate(m, 3) & ~erode(m, 3)
    if not band.any():
        return 1.0
    return float(1.0 - unc[band].mean())


@dataclass
class UncertaintyAnnotator:
    """Clicks where the model is least certain (active-learning HITL).

    Unlike :class:`~repro.core.hitl.SimulatedAnnotator` this needs no ground
    truth — it is deployable with real users, proposing where to look next.
    ``min_region_area`` suppresses single-pixel noise; visited regions are
    masked out so successive clicks explore.
    """

    min_region_area: int = 20
    uncertainty_floor: float = 0.35
    visited: np.ndarray | None = field(default=None)
    clicks: list[tuple[float, float]] = field(default_factory=list)

    def next_click(self, result: SliceResult) -> tuple[float, float] | None:
        unc = uncertainty_map(result)
        if self.visited is None:
            self.visited = np.zeros(unc.shape, dtype=bool)
        hot = (unc >= self.uncertainty_floor) & ~self.visited
        labels, n = label(hot)
        if n == 0:
            return None
        # Largest uncertain region wins.
        areas = np.bincount(labels.ravel())
        areas[0] = 0
        best = int(np.argmax(areas))
        if areas[best] < self.min_region_area:
            return None
        ys, xs = np.nonzero(labels == best)
        # Click the most uncertain pixel of that region.
        peak = int(np.argmax(unc[ys, xs]))
        click = (float(xs[peak]), float(ys[peak]))
        self.visited |= labels == best
        self.clicks.append(click)
        return click
