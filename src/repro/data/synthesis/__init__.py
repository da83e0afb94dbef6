"""Synthetic scientific-image generation: FIB-SEM scenes, artifacts, phantoms."""

from .artifacts import (
    add_charging,
    add_curtaining,
    add_poisson_gaussian_noise,
    apply_defocus,
    apply_drift,
)
from .fibsem import CATALYST_KINDS, FibsemConfig, FibsemSample, synthesize_fibsem_volume
from .modalities import synthesize_edx_map, synthesize_stm_topography, synthesize_xrd_pattern
from .phantoms import checkerboard, disk_phantom, needles_phantom, two_phase_phantom
from .scenarios import (
    ANCHOR_BASE,
    SCENARIO_KINDS,
    ScenarioConfig,
    ScenarioSample,
    synthesize_scenario_volume,
)
from .shapes import (
    raster_band_below,
    raster_blob,
    raster_needle,
    smooth_noise_1d,
    smooth_noise_2d,
)

__all__ = [
    "ANCHOR_BASE",
    "CATALYST_KINDS",
    "FibsemConfig",
    "FibsemSample",
    "SCENARIO_KINDS",
    "ScenarioConfig",
    "ScenarioSample",
    "add_charging",
    "add_curtaining",
    "add_poisson_gaussian_noise",
    "apply_defocus",
    "apply_drift",
    "checkerboard",
    "disk_phantom",
    "needles_phantom",
    "raster_band_below",
    "raster_blob",
    "raster_needle",
    "smooth_noise_1d",
    "smooth_noise_2d",
    "synthesize_edx_map",
    "synthesize_fibsem_volume",
    "synthesize_scenario_volume",
    "synthesize_stm_topography",
    "synthesize_xrd_pattern",
    "two_phase_phantom",
]
