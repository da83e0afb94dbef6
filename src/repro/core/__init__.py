"""The Zenesis core: pipeline, prompts, HITL, temporal/hierarchical refinement."""

from .boxes import (
    as_boxes,
    box_area,
    box_iou,
    clip_boxes,
    mask_to_box,
    merge_overlapping,
    pad_box,
    random_boxes,
)
from .hierarchy import SegmentNode, further_segment
from .hitl import RectifyConfig, RectifySession, RectifyStep, SimulatedAnnotator
from .multiobject import MultiClassResult, segment_multi
from .propagation import PropagationConfig, propagate_volume
from .masks import (
    clean_mask,
    component_containing,
    connected_components,
    mask_boundary,
    masks_iou,
    rle_decode,
    rle_encode,
    stability_score,
)
from .pipeline import ZenesisConfig, ZenesisPipeline
from .prompts import SpatialHints, TextPrompt
from .results import SliceResult, VolumeResult
from .temporal import RefinementReport, TemporalConfig, refine_box_sequences

__all__ = [
    "RectifyConfig",
    "RectifySession",
    "RectifyStep",
    "RefinementReport",
    "SegmentNode",
    "SimulatedAnnotator",
    "MultiClassResult",
    "PropagationConfig",
    "SliceResult",
    "SpatialHints",
    "TemporalConfig",
    "TextPrompt",
    "VolumeResult",
    "ZenesisConfig",
    "ZenesisPipeline",
    "as_boxes",
    "box_area",
    "box_iou",
    "clean_mask",
    "clip_boxes",
    "component_containing",
    "connected_components",
    "further_segment",
    "mask_boundary",
    "mask_to_box",
    "masks_iou",
    "merge_overlapping",
    "pad_box",
    "random_boxes",
    "refine_box_sequences",
    "rle_decode",
    "rle_encode",
    "propagate_volume",
    "segment_multi",
    "stability_score",
]
