"""Human-in-the-loop Rectify Segmentation (paper Fig. 6).

When automated grounding misfires, the paper's UI lets the user *generate
random boxes (with criteria such as length or width equal to the image
size) and select the nearest segmentation area of interest* — a weakly
supervised correction loop.

Two pieces live here:

* :class:`RectifySession` — the interactive mechanic: propose random
  candidate boxes, segment each, and accept the candidate segment nearest a
  user click.
* :class:`SimulatedAnnotator` — a benchmark-only oracle that plays the user:
  it clicks the centroid of the largest ground-truth region the current
  mask missed.  This turns the HITL loop into a measurable experiment
  (IoU vs number of interactions) without real humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SessionError
from ..models.sam.model import SamPredictor
from ..utils.rng import as_rng
from .boxes import random_boxes
from .masks import connected_components, label

__all__ = ["RectifyConfig", "RectifyStep", "RectifySession", "SimulatedAnnotator"]


@dataclass(frozen=True)
class RectifyConfig:
    """Candidate-generation parameters."""

    n_candidates: int = 12
    full_extent_axis: str | None = "width"  # the paper's full-width criterion
    min_size: float = 12.0
    max_component_frac: float = 0.08  # candidate segments above this are implausible
    seed: int = 0


@dataclass(frozen=True)
class RectifyStep:
    """One accepted correction."""

    click_xy: tuple[float, float]
    chosen_box: np.ndarray
    added_mask: np.ndarray
    candidate_count: int


class RectifySession:
    """Interactive rectification over one image.

    Drive it with repeated :meth:`rectify` calls; ``mask`` accumulates the
    accepted segments (union semantics, matching the paper's workflow of
    adding missed regions).
    """

    def __init__(
        self,
        predictor: SamPredictor,
        image: np.ndarray,
        initial_mask: np.ndarray | None = None,
        config: RectifyConfig | None = None,
    ) -> None:
        self.config = config or RectifyConfig()
        self.predictor = predictor
        if not predictor.is_image_set:
            predictor.set_image(image)
        self.image = np.asarray(image, dtype=np.float32)
        self.mask = (
            np.zeros(self.image.shape, dtype=bool)
            if initial_mask is None
            else np.asarray(initial_mask, dtype=bool).copy()
        )
        self._rng = as_rng(self.config.seed)
        self.steps: list[RectifyStep] = []

    def propose_boxes(self) -> np.ndarray:
        """Random candidate boxes per the paper's criteria."""
        return random_boxes(
            self.config.n_candidates,
            self.image.shape,
            self._rng,
            full_extent_axis=self.config.full_extent_axis,
            min_size=self.config.min_size,
        )

    def rectify(self, click_xy: tuple[float, float]) -> RectifyStep:
        """One correction round: the user clicks a missed structure.

        Candidate boxes are segmented; among all candidate segments'
        connected components, the one whose centroid is nearest the click
        (and that actually contains structure) is added to the mask.
        """
        cx, cy = click_xy
        h, w = self.image.shape
        if not (0 <= cx < w and 0 <= cy < h):
            raise SessionError(f"click {click_xy} outside image {w}x{h}")
        boxes = self.propose_boxes()
        # Ranking key: (0, area) for components containing the click — the
        # *smallest* containing segment is what a user means when clicking a
        # structure embedded in a larger region — else (1, centroid distance).
        best: tuple[tuple, np.ndarray, np.ndarray] | None = None  # (key, comp, box)
        max_area = self.config.max_component_frac * self.image.size
        iy, ix = int(round(cy)), int(round(cx))
        for box in boxes:
            # Cached per (image, box): repeated rectify rounds re-propose
            # overlapping candidates, and the second visit is free.
            hyps = self.predictor.masks_from_box(box)
            for hyp in hyps:
                if hyp.kind == "dark" or not hyp.window_mask.any():
                    continue
                for comp in connected_components(hyp.mask, min_area=8)[:6]:
                    area = int(comp.sum())
                    if area > max_area:
                        continue  # a user picks a segment, not half the frame
                    if comp[iy, ix]:
                        key = (0, float(area))
                    else:
                        ys, xs = np.nonzero(comp)
                        key = (1, float(np.hypot(ys.mean() - cy, xs.mean() - cx)))
                    if best is None or key < best[0]:
                        best = (key, comp, box)
        if best is None:
            raise SessionError("no candidate segment found; increase n_candidates")
        _, comp, box = best
        self.mask |= comp
        step = RectifyStep(
            click_xy=(float(cx), float(cy)),
            chosen_box=np.asarray(box),
            added_mask=comp,
            candidate_count=int(len(boxes)),
        )
        self.steps.append(step)
        return step


@dataclass
class SimulatedAnnotator:
    """Benchmark oracle standing in for the human (Fig. 6 experiments).

    Strategy: click the centroid of the largest ground-truth component the
    current prediction misses.  ``None`` when nothing is missing (converged).
    """

    gt_mask: np.ndarray
    min_missing_area: int = 30
    clicks: list[tuple[float, float]] = field(default_factory=list)

    def next_click(self, current_mask: np.ndarray) -> tuple[float, float] | None:
        missing = self.gt_mask & ~np.asarray(current_mask, dtype=bool)
        labels, n = label(missing)
        if n == 0:
            return None
        areas = np.bincount(labels.ravel())
        areas[0] = 0
        best = int(np.argmax(areas))
        if areas[best] < self.min_missing_area:
            return None
        ys, xs = np.nonzero(labels == best)
        # Click ON the structure: a component's centroid can fall between
        # its pixels (needle clusters); take the member pixel nearest it —
        # a real user clicks the structure itself.
        cy, cx = ys.mean(), xs.mean()
        nearest = int(np.argmin((ys - cy) ** 2 + (xs - cx) ** 2))
        click = (float(xs[nearest]), float(ys[nearest]))
        self.clicks.append(click)
        return click
