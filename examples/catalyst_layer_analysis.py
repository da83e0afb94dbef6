"""Catalyst-layer morphology analysis — the paper's motivating workload.

The dataset behind the paper exists to quantify *catalyst loading and
ionomer distribution* in PEM electrolyzer catalyst layers.  This example
runs that analysis end to end on both sample types:

1. synthesize crystalline and amorphous FIB-SEM volumes;
2. segment the catalyst phase with Mode B batch processing (temporal
   heuristic on);
3. derive the materials-science numbers: catalyst volume fraction,
   per-slice loading profile, and a specific-surface-area proxy
   (boundary-to-volume ratio — the paper notes crystalline IrO2 has ~2x the
   specific surface area of amorphous IrOx, which the needle morphology
   reproduces);
4. export masks alongside the raw volume as a TIFF stack + npz bundle.

Run:  python examples/catalyst_layer_analysis.py
"""

import time
from pathlib import Path

import numpy as np

from repro import make_sample
from repro.core.masks import mask_boundary
from repro.core.pipeline import ZenesisPipeline
from repro.io.volume_io import export_volume_tiff, save_volume_bundle
from repro.metrics.overlap import iou

OUT = Path(__file__).parent / "_output"
PROMPT = "catalyst particles"


def surface_to_volume(masks: np.ndarray) -> float:
    """Boundary-pixel count over mask-pixel count: a surface-area proxy."""
    boundary = sum(int(mask_boundary(masks[z]).sum()) for z in range(masks.shape[0]))
    volume = int(masks.sum())
    return boundary / volume if volume else 0.0


def analyse(kind: str) -> dict:
    sample = make_sample(kind, seed=11)
    t0 = time.perf_counter()
    masks = ZenesisPipeline().segment_volume(sample.volume, PROMPT).masks
    wall_s = time.perf_counter() - t0
    per_slice_loading = masks.reshape(masks.shape[0], -1).mean(axis=1)
    ious = [iou(masks[z], sample.catalyst_mask[z]) for z in range(masks.shape[0])]

    out_tiff = OUT / f"{kind}_masks.tif"
    export_volume_tiff(out_tiff, masks.astype(np.uint8) * 255, voxel_size_nm=(5.0, 5.0))
    out_bundle = OUT / f"{kind}_analysis.npz"
    save_volume_bundle(
        out_bundle,
        sample.volume.voxels,
        masks,
        {"prompt": PROMPT, "kind": kind, "mean_iou": float(np.mean(ious))},
    )
    return {
        "kind": kind,
        "volume_fraction": float(masks.mean()),
        "true_fraction": float(sample.catalyst_mask.mean()),
        "loading_profile": per_slice_loading,
        "surface_to_volume": surface_to_volume(masks),
        "mean_iou": float(np.mean(ious)),
        "wall_s": wall_s,
    }


def main() -> None:
    OUT.mkdir(exist_ok=True)
    results = [analyse("crystalline"), analyse("amorphous")]
    for r in results:
        print(f"\n=== {r['kind']} sample ===")
        print(f"  segmentation IoU (vs ground truth): {r['mean_iou']:.3f}")
        print(f"  catalyst volume fraction: {r['volume_fraction']:.3f} (true {r['true_fraction']:.3f})")
        print("  per-slice loading: " + " ".join(f"{v:.2f}" for v in r["loading_profile"]))
        print(f"  surface/volume proxy: {r['surface_to_volume']:.3f}")
        print(f"  Mode B wall time: {r['wall_s']:.1f}s")

    cry, amo = results
    ratio = cry["surface_to_volume"] / amo["surface_to_volume"]
    print(f"\ncrystalline/amorphous surface-area ratio: {ratio:.2f}")
    print("(needle-like crystalline IrO2 shows the higher specific surface area, as in the paper)")
    assert ratio > 1.2, "needles must expose more surface per volume than blobs"


if __name__ == "__main__":
    main()
