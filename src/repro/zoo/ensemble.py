"""ENSEMBLE mode: K preset variants per volume, fused by weighted voting.

Variants are a deterministic grid of DINO threshold sweeps × analytic-head
``band_k`` settings (the reproduction's stand-in for SAM multimask outputs),
each tagged as ``zoo:<preset>@<fp>:mNN`` so cache and checkpoint identities
never collide across members.

Fusion is IoU-weighted voting: each member's weight is its mean pairwise IoU
against the other members (consensus members count for more, outliers for
less), and a voxel enters the fused mask when the weighted vote reaches
``vote_floor`` of the total weight.  Tie-breaking is deterministic — members
are evaluated in fixed index order and the floor comparison includes an
epsilon so exact-floor votes land *inside* the mask on every run.

Before voting, a semantic-verification pass (after SAM-I-Am, PAPERS.md)
rejects members whose masks latch onto the background: a member is kept only
if its masks overlap the grounding relevance map (≥ its own box threshold)
by at least ``min_relevance_overlap``.  Members that segment nothing are
rejected as ``"empty"``; members that segment the wrong phase are rejected
as ``"background_latch"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cache import array_content_key
from ..core.pipeline import ZenesisConfig
from ..errors import ZooError
from ..jobs.runner import _memo_pipeline
from ..metrics.overlap import iou
from ..observability.metrics import get_registry
from .registry import TaskPreset

__all__ = [
    "EnsembleConfig",
    "EnsembleResult",
    "ensemble_variants",
    "fuse_masks",
    "member_weights",
    "segment_volume_ensemble",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """Shape of the variant grid and the fusion/verification rules."""

    size: int = 4  # number of members (grid is trimmed to this)
    threshold_spread: float = 0.3  # DINO thresholds sweep down to (1 - spread)×
    band_ks: tuple[float, ...] = (2.0, 1.4)  # analytic-head multimask variants
    min_relevance_overlap: float = 0.35  # semantic-verification floor
    vote_floor: float = 0.5  # fraction of total weight required per voxel

    def __post_init__(self):
        if self.size < 1:
            raise ZooError(f"ensemble size must be >= 1, got {self.size}")
        if not 0.0 <= self.threshold_spread < 1.0:
            raise ZooError(f"threshold_spread must be in [0, 1), got {self.threshold_spread}")
        if not self.band_ks:
            raise ZooError("band_ks must be non-empty")
        if not 0.0 < self.vote_floor <= 1.0:
            raise ZooError(f"vote_floor must be in (0, 1], got {self.vote_floor}")

    @classmethod
    def from_params(cls, params: dict | None) -> "EnsembleConfig":
        if not params:
            return cls()
        kwargs = dict(params)
        if "band_ks" in kwargs:
            kwargs["band_ks"] = tuple(kwargs["band_ks"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ZooError(f"malformed ensemble params: {exc}") from exc


@dataclass(frozen=True)
class EnsembleResult:
    """Fused output plus the per-member audit trail."""

    fused_masks: np.ndarray  # (Z, H, W) bool
    members: tuple[dict, ...]  # one report per member (accepted or not)
    weights: tuple[float, ...]  # weights of accepted members, member order
    fallback: bool  # True when every member was rejected
    prompt: str = ""
    preset_fingerprint: str = ""

    def to_record(self) -> dict:
        return {
            "prompt": self.prompt,
            "preset_fingerprint": self.preset_fingerprint,
            "fallback": self.fallback,
            "weights": list(self.weights),
            "members": [dict(m) for m in self.members],
        }


def ensemble_variants(
    preset: TaskPreset,
    ensemble: EnsembleConfig | None = None,
    *,
    pixel_size_nm: float | None = None,
) -> list[ZenesisConfig]:
    """The deterministic member grid for one preset.

    Threshold factors sweep from 1.0 down to ``1 - threshold_spread`` (more
    permissive grounding), crossed with the ``band_ks`` analytic variants;
    the grid is walked threshold-major and trimmed to ``size`` members.
    Every member forces ``temporal_mode="meanbox"`` — ensemble fusion needs
    per-slice detections for semantic verification, which the propagation
    engine only produces at keyframes.
    """
    ens = ensemble or EnsembleConfig()
    base = preset.build_config(pixel_size_nm=pixel_size_nm)
    n_tiers = max(1, -(-ens.size // len(ens.band_ks)))  # ceil division
    factors = [
        1.0 - ens.threshold_spread * (tier / max(n_tiers - 1, 1)) if n_tiers > 1 else 1.0
        for tier in range(n_tiers)
    ]
    configs: list[ZenesisConfig] = []
    for factor in factors:
        for band_k in ens.band_ks:
            if len(configs) >= ens.size:
                break
            i = len(configs)
            configs.append(
                preset.build_config(
                    pixel_size_nm=pixel_size_nm,
                    member=f"m{i:02d}",
                    box_threshold=round(base.box_threshold * factor, 6),
                    text_threshold=round(base.text_threshold * factor, 6),
                    band_k=float(band_k),
                    temporal_mode="meanbox",
                )
            )
    return configs


def member_weights(masks: list[np.ndarray]) -> list[float]:
    """Consensus weight per member: mean pairwise IoU against the others."""
    if len(masks) == 1:
        return [1.0]
    weights = []
    for i, mask in enumerate(masks):
        ious = [iou(mask, other) for j, other in enumerate(masks) if j != i]
        weights.append(float(np.mean(ious)))
    return weights


def fuse_masks(
    masks: list[np.ndarray], weights: list[float], *, vote_floor: float = 0.5
) -> np.ndarray:
    """Weighted vote in fixed member order; exact-floor ties vote IN."""
    if not masks:
        raise ZooError("fuse_masks needs at least one mask")
    if len(masks) != len(weights):
        raise ZooError(f"{len(masks)} masks for {len(weights)} weights")
    votes = np.zeros(masks[0].shape, dtype=np.float64)
    for mask, weight in zip(masks, weights):
        votes += weight * mask
    total = float(sum(weights))
    if total <= 0:
        return np.zeros(masks[0].shape, dtype=bool)
    return votes >= vote_floor * total - 1e-12


def _relevance_overlap(result, box_threshold: float) -> tuple[float, int]:
    """(overlap fraction, total mask voxels) across a VolumeResult's slices."""
    mask_total = 0
    hit_total = 0
    for sr in result.slice_results:
        mask = np.asarray(sr.mask, dtype=bool)
        mask_total += int(mask.sum())
        relevant = np.asarray(sr.detection.relevance) >= box_threshold
        hit_total += int(np.logical_and(mask, relevant).sum())
    if mask_total == 0:
        return 0.0, 0
    return hit_total / mask_total, mask_total


def segment_volume_ensemble(
    voxels: np.ndarray,
    preset: TaskPreset,
    *,
    ensemble: EnsembleConfig | None = None,
    pixel_size_nm: float | None = None,
    checkpoint_dir: Path | str | None = None,
    resume: bool = False,
    on_member=None,
) -> EnsembleResult:
    """Run every ensemble member and fuse the surviving masks.

    Each member segments with its own checkpoint sub-directory
    (``member_00/`` …), so a SIGKILL mid-ensemble resumes member-by-member
    bit-identically.  ``on_member(index, total)`` is called after each member
    completes — the jobs runner uses it for progress heartbeats and
    cooperative cancellation.
    """
    ens = ensemble or EnsembleConfig()
    configs = ensemble_variants(preset, ens, pixel_size_nm=pixel_size_nm)
    registry = get_registry()
    members: list[dict] = []
    accepted_masks: list[np.ndarray] = []
    for i, config in enumerate(configs):
        pipeline = _memo_pipeline(config)
        member_ckpt = None
        if checkpoint_dir is not None:
            member_ckpt = Path(checkpoint_dir) / f"member_{i:02d}"
        result = pipeline.segment_volume(
            voxels,
            preset.prompt,
            temporal=True,
            checkpoint_dir=member_ckpt,
            resume=resume,
        )
        registry.counter("repro_zoo_members_run_total", preset=preset.name).inc()
        overlap, mask_voxels = _relevance_overlap(result, config.box_threshold)
        report = {
            "member": f"m{i:02d}",
            "variant": config.variant,
            "box_threshold": config.box_threshold,
            "text_threshold": config.text_threshold,
            "band_k": config.band_k,
            "coverage": float(result.masks.mean()),
            "relevance_overlap": round(float(overlap), 4),
            "masks_key": array_content_key(result.masks),
            "accepted": True,
            "rejected_reason": None,
        }
        if mask_voxels == 0:
            report["accepted"] = False
            report["rejected_reason"] = "empty"
        elif overlap < ens.min_relevance_overlap:
            report["accepted"] = False
            report["rejected_reason"] = "background_latch"
        if report["accepted"]:
            accepted_masks.append(result.masks)
        else:
            registry.counter(
                "repro_zoo_members_rejected_total",
                preset=preset.name,
                reason=report["rejected_reason"],
            ).inc()
        members.append(report)
        if on_member is not None:
            on_member(i + 1, len(configs))

    fallback = not accepted_masks
    if fallback:
        shape = voxels.shape if voxels.ndim == 3 else (1, *voxels.shape)
        fused = np.zeros(shape, dtype=bool)
        weights: list[float] = []
    else:
        weights = member_weights(accepted_masks)
        fused = fuse_masks(accepted_masks, weights, vote_floor=ens.vote_floor)
        registry.counter("repro_zoo_members_fused_total", preset=preset.name).inc(
            len(accepted_masks)
        )
    registry.counter("repro_zoo_ensembles_total", preset=preset.name).inc()
    return EnsembleResult(
        fused_masks=fused,
        members=tuple(members),
        weights=tuple(weights),
        fallback=fallback,
        prompt=preset.prompt,
        preset_fingerprint=preset.fingerprint(),
    )
