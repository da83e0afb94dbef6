"""Automatic ("segment everything") mask generation — SAM's unprompted mode.

A regular grid of positive point prompts is pushed through the predictor;
candidate masks are filtered by predicted IoU and stability, then de-duplicated
with greedy mask NMS.  The output format matches upstream SAM's list of
record dicts so downstream tooling (and the SAM-only baseline) can consume it
unchanged.
"""

from __future__ import annotations

import numpy as np

from ...core.boxes import box_iou, mask_to_box
from ...core.masks import masks_iou, stability_score
from ...errors import PromptError
from .model import Sam, SamPredictor

__all__ = ["SamAutomaticMaskGenerator"]


class SamAutomaticMaskGenerator:
    """Grid-prompted automatic mask generation."""

    def __init__(
        self,
        sam: Sam | None = None,
        *,
        points_per_side: int = 8,
        pred_iou_thresh: float = 0.45,
        stability_score_thresh: float = 0.6,
        nms_iou_thresh: float = 0.7,
        min_mask_area: int = 40,
    ) -> None:
        if points_per_side < 1:
            raise PromptError("points_per_side must be >= 1")
        self.predictor = SamPredictor(sam)
        self.points_per_side = points_per_side
        self.pred_iou_thresh = pred_iou_thresh
        self.stability_score_thresh = stability_score_thresh
        self.nms_iou_thresh = nms_iou_thresh
        self.min_mask_area = min_mask_area

    def _point_grid(self, shape: tuple[int, int]) -> np.ndarray:
        h, w = shape
        n = self.points_per_side
        ys = (np.arange(n) + 0.5) * h / n
        xs = (np.arange(n) + 0.5) * w / n
        gx, gy = np.meshgrid(xs, ys)
        return np.stack([gx.ravel(), gy.ravel()], axis=1)  # (n², 2) as (x, y)

    def generate(self, image: np.ndarray) -> list[dict]:
        """Generate mask records for ``image`` (float [0,1] grayscale).

        Each record has ``segmentation`` (bool HxW), ``area``, ``bbox``
        (XYXY), ``predicted_iou``, ``stability_score``, ``point_coords``.
        Records are sorted by ``predicted_iou`` descending.
        """
        self.predictor.set_image(image)
        candidates: list[dict] = []
        for point in self._point_grid(np.asarray(image).shape[:2]):
            hyps = self.predictor.masks_from_points(point[None, :], np.array([1]))
            for hyp in sorted(hyps, key=lambda hh: -hh.score):
                mask, score = hyp.mask, np.float32(hyp.score)
                area = int(mask.sum())
                if area < self.min_mask_area:
                    continue
                if score < self.pred_iou_thresh:
                    continue
                stab = stability_score(mask)
                if stab < self.stability_score_thresh:
                    continue
                bbox = mask_to_box(mask)
                if bbox is None:
                    continue
                candidates.append(
                    {
                        "segmentation": mask,
                        "area": area,
                        "bbox": bbox,
                        "predicted_iou": float(score),
                        "stability_score": float(stab),
                        "point_coords": point.tolist(),
                    }
                )
        return self._deduplicate(candidates)

    def _deduplicate(self, candidates: list[dict]) -> list[dict]:
        """Greedy NMS on masks (box IoU prefilter, exact mask IoU confirm)."""
        if not candidates:
            return []
        candidates.sort(key=lambda r: -r["predicted_iou"])
        kept: list[dict] = []
        boxes = np.stack([c["bbox"] for c in candidates])
        for i, cand in enumerate(candidates):
            duplicate = False
            for kept_rec in kept:
                if box_iou(boxes[i : i + 1], kept_rec["bbox"][None])[0, 0] < self.nms_iou_thresh * 0.5:
                    continue
                if masks_iou(cand["segmentation"], kept_rec["segmentation"]) >= self.nms_iou_thresh:
                    duplicate = True
                    break
            if not duplicate:
                kept.append(cand)
        return kept
