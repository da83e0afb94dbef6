"""Seeded benchmark inputs: the paper's two volumes, re-acquired per seed.

The scene (particle layout and so the ground truth) and the optics of the
acquisition (defocus, curtaining, gain drift) are the library's reference
ones, drawn from :data:`LAYOUT_SEED` with ``repro.data.datasets.make_sample``
and the library's artifact models.  ``--seed`` draws the detector noise
(shot and read noise) of every slice.  Every seed therefore gives different
pixels (cold caches, different detections) while the amount of work per
slice stays nearly constant.  Resampling the layout per seed instead moves
``slices_per_s`` by an interquartile 20% across ten seeds, which would
swamp every bound (README.md, "Seeds").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import make_sample
from repro.data.synthesis.artifacts import (
    add_charging,
    add_curtaining,
    add_poisson_gaussian_noise,
    apply_defocus,
    apply_drift,
)
from repro.utils.rng import spawn_rng

LAYOUT_SEED = 0
SHAPE = (256, 256)
N_SLICES = 8
KINDS = ("crystalline", "amorphous")
PROMPT = "catalyst particles"
SECOND_PROMPT = "bright particles"


@dataclass(frozen=True)
class Volume:
    """One acquired volume and its ground-truth catalyst mask."""

    kind: str
    voxels: np.ndarray  # (Z, H, W) uint16, as the detector records it
    gt: np.ndarray  # (Z, H, W) bool


def _acquire(sample, seed: int, stream: str) -> np.ndarray:
    """The artifact chain of ``synthesize_fibsem_volume``; ``seed`` draws the noise."""
    cfg = sample.config
    optics = spawn_rng(LAYOUT_SEED, "bench", "optics", cfg.catalyst)
    noise = spawn_rng(seed, "bench", stream, cfg.catalyst)
    out = np.empty(sample.clean.shape, dtype=np.float64)
    for z in range(out.shape[0]):
        img = add_charging(sample.clean[z], sample.film_mask[z], strength=cfg.charging_strength)
        img = apply_defocus(img, sigma=optics.uniform(*cfg.defocus_sigma))
        img = add_curtaining(img, optics, strength=cfg.curtaining_strength)
        img = add_poisson_gaussian_noise(img, noise, dose=cfg.dose, read_sigma=cfg.read_sigma)
        out[z] = apply_drift(img, gain=optics.uniform(*cfg.drift_gain))
    coded = np.clip(cfg.intensity_offset + cfg.intensity_scale * out, 0.0, 1.0)
    return np.round(coded * 65535.0).astype(np.uint16)


def make_volumes(seed: int, *, stream: str = "measure", n_slices: int = N_SLICES) -> list[Volume]:
    """Both volumes (crystalline, amorphous) of the reference scene for ``seed``."""
    volumes = []
    for kind in KINDS:
        sample = make_sample(kind, seed=LAYOUT_SEED, shape=SHAPE, n_slices=n_slices)
        volumes.append(Volume(kind, _acquire(sample, seed, stream), sample.catalyst_mask.copy()))
    return volumes


def warmup_volume(seed: int) -> Volume:
    """A two-slice volume acquired from a stream disjoint from the measured one."""
    return make_volumes(seed, stream="warmup", n_slices=2)[0]
