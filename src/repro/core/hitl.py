"""Human-in-the-loop Rectify Segmentation (paper Fig. 6).

When automated grounding misfires, the paper's UI lets the user *generate
random boxes (with criteria such as length or width equal to the image
size) and select the nearest segmentation area of interest* — a weakly
supervised correction loop.

Two pieces live here:

* :class:`RectifySession` — the interactive mechanic: propose random
  candidate boxes, segment each, and accept the candidate segment nearest a
  user click.  Candidates are ranked in window space: each hypothesis is
  labelled once inside its decode window, and only the accepted segment is
  pasted into a full frame.  A box whose window cannot hold a better
  candidate than the current best is not decoded (see
  :meth:`RectifySession.rectify` for the rule and why it is exact).
* :class:`SimulatedAnnotator` — a benchmark-only oracle that plays the user:
  it clicks the centroid of the largest ground-truth region the current
  mask missed.  This turns the HITL loop into a measurable experiment
  (IoU vs number of interactions) without real humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SessionError
from ..models.sam.analytic import MaskHypothesis, box_window
from ..models.sam.model import SamPredictor
from ..utils.rng import as_rng
from .boxes import random_boxes
from .masks import label

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
        (and that actually contains structure) is added to the mask.  A
        click in the last half pixel of an axis counts on the frame's last
        pixel.  ``candidate_count`` is the number of boxes proposed, not
        the number decoded.

        Ranking key: ``(0, area)`` for a component containing the click
        pixel (the *smallest* containing segment is what a user means when
        clicking a structure embedded in a larger region), else
        ``(1, centroid distance)``; the first candidate with the least key
        wins.  Components are ranked in window space
        (:func:`_window_components`) and only the winner is pasted into
        the frame.  A box whose window (:func:`box_window`) cannot hold a
        winner is not decoded: once a component contains the click, a box
        whose window misses the click pixel; while the best is at distance
        ``d``, a box whose window misses the click pixel and lies farther
        than ``d`` from the click.  A component's centroid lies inside its
        window and a tie keeps the earlier candidate, so the skip changes
        no result.
        """
        cx, cy = click_xy
        h, w = self.image.shape
        if not (0 <= cx < w and 0 <= cy < h):
            raise SessionError(f"click {click_xy} outside image {w}x{h}")
        iy, ix = min(int(round(cy)), h - 1), min(int(round(cx)), w - 1)
        boxes = self.propose_boxes()
        max_area = self.config.max_component_frac * self.image.size
        best = None  # (key, window labels, label, window, box)
        for box in boxes:
            wy0, wy1, wx0, wx1 = box_window(box, (h, w))[1]
            if best is not None and not (wy0 <= iy < wy1 and wx0 <= ix < wx1):
                contained, d = best[0]
                if contained == 0 or _distance_to_window(cy, cx, (wy0, wy1, wx0, wx1)) > d:
                    continue
            # Cached per (image, box): repeated rectify rounds re-propose
            # overlapping candidates, and the second visit is free.
            for hyp in self.predictor.masks_from_box(box):
                if hyp.kind == "dark":
                    continue
                labels, ranked = _window_components(hyp, (iy, ix), (cy, cx), max_area)
                for key, lab in ranked:
                    if best is None or key < best[0]:
                        best = (key, labels, lab, hyp.window_slices, box)
        if best is None:
            raise SessionError("no candidate segment found; increase n_candidates")
        _, labels, lab, window, box = best
        comp = np.zeros((h, w), dtype=bool)
        comp[window] = labels == lab
        self.mask |= comp
        step = RectifyStep(
            click_xy=(float(cx), float(cy)),
            chosen_box=np.asarray(box),
            added_mask=comp,
            candidate_count=int(len(boxes)),
        )
        self.steps.append(step)
        return step


def _distance_to_window(cy: float, cx: float, window: tuple[int, int, int, int]) -> float:
    """Distance from ``(cy, cx)`` to the nearest pixel centre of ``window``.

    No centroid of a mask inside the window is nearer: it lies between the
    window's first and last pixel on each axis, and each difference here is
    the same float subtraction the centroid distance does, which rounding
    keeps monotone.
    """
    y0, y1, x0, x1 = window
    dy = y0 - cy if cy < y0 else (cy - (y1 - 1) if cy > y1 - 1 else 0.0)
    dx = x0 - cx if cx < x0 else (cx - (x1 - 1) if cx > x1 - 1 else 0.0)
    return float(np.hypot(dy, dx))


def _window_components(
    hyp: MaskHypothesis,
    click_px: tuple[int, int],
    click_yx: tuple[float, float],
    max_area: float,
) -> tuple[np.ndarray, list[tuple[tuple[int, float], int]]]:
    """The window labels of ``hyp`` and ``(key, label)`` of its ranked components.

    The same components, in the same order and with the same keys, as
    ranking :func:`connected_components` of the pasted frame: labelling
    numbers components in row-major order of their first pixel, which the
    window keeps; the six largest of at least 8 px are kept, those above
    ``max_area`` dropped.  A centroid is the component's exact integer
    row and column sums (offset by the window origin) over its area,
    which is what ``np.nonzero(comp)[k].mean()`` computes, bit for bit.
    """
    labels, n = label(hyp.window_mask)
    if n == 0:
        return labels, []
    wy0, _, wx0, _ = hyp.window
    flat = labels.ravel()
    areas = np.bincount(flat)
    rows, cols = np.indices(labels.shape)
    row_sums = np.bincount(flat, weights=rows.ravel())
    col_sums = np.bincount(flat, weights=cols.ravel())
    iy, ix = click_px[0] - wy0, click_px[1] - wx0
    hy, hx = labels.shape
    clicked = labels[iy, ix] if 0 <= iy < hy and 0 <= ix < hx else 0
    cy, cx = click_yx
    ranked = []
    order = [i + 1 for i in np.argsort(-areas[1:]) if areas[i + 1] >= 8][:6]
    for lab in order:
        area = int(areas[lab])
        if area > max_area:
            continue  # a user picks a segment, not half the frame
        if lab == clicked:
            key = (0, float(area))
        else:
            my = (row_sums[lab] + area * wy0) / area
            mx = (col_sums[lab] + area * wx0) / area
            key = (1, float(np.hypot(my - cy, mx - cx)))
        ranked.append((key, lab))
    return labels, ranked


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
