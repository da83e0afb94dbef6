"""Heuristic temporal refinement of per-slice detections (paper Fig. 7).

For multi-slice volumes, GroundingDINO occasionally produces outlier boxes —
sudden appearance changes, milling artifacts, or plain grounding failures.
The paper's remedy: *compute mean width/height across a fallback window of
adjacent slices; boxes exceeding a height or width factor are replaced by
the average box of previous slices.*

:class:`BoxRefiner` implements exactly that rule one slice at a time (it
is causal: only previous slices feed it), and :func:`refine_box_sequences`
runs it over a list of per-slice box arrays, returning the corrected
sequence plus a report of every replacement (slice index, offending box,
replacement source).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .boxes import as_boxes

__all__ = [
    "TemporalConfig",
    "RefinementReport",
    "BoxRefiner",
    "refine_box_sequences",
]


@dataclass(frozen=True)
class TemporalConfig:
    """Parameters of the sliding-window outlier rule."""

    window: int = 3  # how many previous slices feed the fallback statistics
    size_factor: float = 1.5  # width/height beyond factor × window max → outlier
    min_history: int = 1  # replacements need at least this many prior slices
    recenter: bool = True  # keep the outlier's centre, fix only its size
    # Absolute guard: a box is only treated as a grounding failure when it
    # ALSO spans most of the frame (failures are frame-scale; legitimate
    # cluster boxes are not).  Requires image_shape at call time; without it
    # the pure relative rule applies.
    absolute_size_frac: float = 0.75

    def __post_init__(self):
        if self.window < 1:
            raise ValidationError("window must be >= 1")
        if self.size_factor <= 1.0:
            raise ValidationError("size_factor must be > 1")


@dataclass
class RefinementReport:
    """What the heuristic changed."""

    n_slices: int = 0
    n_boxes_in: int = 0
    n_replaced: int = 0
    replacements: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n_slices": self.n_slices,
            "n_boxes_in": self.n_boxes_in,
            "n_replaced": self.n_replaced,
            "replacements": list(self.replacements),
        }


def _window_max_dims(history: list[np.ndarray], window: int) -> tuple[float, float] | None:
    """Max (width, height) over the last ``window`` non-empty slices.

    The outlier test compares against the window *maximum*, not the mean:
    legitimate detections vary in size slice to slice, but a grounding
    failure produces boxes beyond anything recently seen (typically the
    whole frame).  Testing against the mean triggers on legitimate large
    clusters and cascades (each false replacement shrinks the statistics,
    triggering more replacements); the maximum is stable.
    """
    recent = [h for h in history[-window:] if len(h)]
    if not recent:
        return None
    allb = np.concatenate(recent, axis=0)
    return float((allb[:, 2] - allb[:, 0]).max()), float((allb[:, 3] - allb[:, 1]).max())


def _window_mean_box(history: list[np.ndarray], window: int) -> np.ndarray | None:
    """Average box over the last ``window`` non-empty slices."""
    recent = [h for h in history[-window:] if len(h)]
    if not recent:
        return None
    return np.concatenate(recent, axis=0).mean(axis=0)


class BoxRefiner:
    """The sliding-window outlier rule, fed one slice at a time.

    The rule is causal (slice z's boxes depend only on slices 0..z), so a
    volume loop refines each slice as it is grounded.  :meth:`step` maps one
    slice's raw boxes to its refined boxes; ``report`` accumulates every
    replacement.  Only the last ``window`` refined slices are kept.
    """

    def __init__(
        self, config: TemporalConfig | None = None, *, image_shape: tuple[int, int] | None = None
    ) -> None:
        self.config = config or TemporalConfig()
        self.image_shape = image_shape
        self.report = RefinementReport()
        self._recent: deque[np.ndarray] = deque(maxlen=self.config.window)
        self._n_nonempty = 0  # non-empty refined slices so far (min_history)

    def step(self, raw: np.ndarray) -> np.ndarray:
        """Refine the next slice's boxes; see :func:`refine_box_sequences`."""
        out = self._refine(raw)
        self._recent.append(out)
        self._n_nonempty += bool(len(out))
        return out

    def _refine(self, raw: np.ndarray) -> np.ndarray:
        cfg, report, image_shape = self.config, self.report, self.image_shape
        z = report.n_slices
        report.n_slices += 1
        history = list(self._recent)
        boxes = as_boxes(raw) if len(raw) else np.zeros((0, 4))
        report.n_boxes_in += len(boxes)
        dims = _window_max_dims(history, cfg.window)
        mean_box = _window_mean_box(history, cfg.window)
        have_history = self._n_nonempty >= cfg.min_history

        if len(boxes) == 0:
            if have_history and mean_box is not None:
                report.n_replaced += 1
                report.replacements.append(
                    {"slice": z, "reason": "empty", "replacement": mean_box.tolist()}
                )
                return mean_box[None, :].copy()
            return boxes

        if not have_history or dims is None or mean_box is None:
            return boxes

        max_w, max_h = dims
        out = boxes.copy()
        widths = out[:, 2] - out[:, 0]
        heights = out[:, 3] - out[:, 1]
        bad = np.zeros(len(out), dtype=bool)
        if max_w > 0:
            bad |= widths > cfg.size_factor * max_w
        if max_h > 0:
            bad |= heights > cfg.size_factor * max_h
        if image_shape is not None:
            # Legitimate cluster boxes are often frame-wide (the film spans
            # the image) but never frame-tall as well; a grounding failure
            # is frame-scale in BOTH dimensions.
            ih, iw = image_shape
            frame_scale = (widths >= cfg.absolute_size_frac * iw) & (
                heights >= cfg.absolute_size_frac * ih
            )
            bad &= frame_scale
        for i in np.nonzero(bad)[0]:
            if cfg.recenter:
                # "Replaced by the average box of previous slices": take the
                # window-mean *size* but keep the detection's centre, so the
                # correction regularises scale without discarding position.
                cx = (out[i, 0] + out[i, 2]) / 2.0
                cy = (out[i, 1] + out[i, 3]) / 2.0
                half_w = (mean_box[2] - mean_box[0]) / 2.0
                half_h = (mean_box[3] - mean_box[1]) / 2.0
                replacement = np.array([cx - half_w, cy - half_h, cx + half_w, cy + half_h])
            else:
                replacement = mean_box.copy()
            if image_shape is not None:
                # A recentred replacement near the frame edge can poke
                # outside the image; clamp it.  The decoder clips boxes
                # anyway (box_window in masks_from_box), so this never
                # changes a mask — it keeps the *reported* boxes within
                # bounds for downstream consumers.
                ih, iw = image_shape
                replacement = np.clip(replacement, 0.0, [iw, ih, iw, ih])
            report.n_replaced += 1
            report.replacements.append(
                {
                    "slice": z,
                    "reason": "oversize",
                    "original": out[i].tolist(),
                    "replacement": replacement.tolist(),
                }
            )
            out[i] = replacement
        if bad.any():
            # Replacing several outliers with the same fallback box creates
            # duplicates; collapse them.
            out = np.unique(out, axis=0)
        return out


def refine_box_sequences(
    per_slice_boxes: list[np.ndarray],
    config: TemporalConfig | None = None,
    *,
    image_shape: tuple[int, int] | None = None,
) -> tuple[list[np.ndarray], RefinementReport]:
    """Apply the sliding-window outlier rule to a Z-ordered box sequence.

    Each element of ``per_slice_boxes`` is an ``(N_z, 4)`` XYXY array (N_z
    may vary, including 0).  A box whose width or height exceeds
    ``size_factor`` times the corresponding window-maximum dimension is
    replaced by the window-mean box (recentred on the outlier by default);
    slices with *no* boxes inherit the window-mean box too
    (a grounding failure is the extreme outlier).  The input history used
    for statistics is the already-refined prefix, so a run of bad slices
    does not poison its own correction.
    """
    refiner = BoxRefiner(config, image_shape=image_shape)
    refined = [refiner.step(raw) for raw in per_slice_boxes]
    return refined, refiner.report
