"""Visualisation: colormaps, overlays, contact sheets, chart rasteriser."""

from .colormap import LABEL_COLORS, apply_colormap, gray_to_rgb_u8, label_color
from .contact_sheet import contact_sheet
from .overlay import draw_boxes, extract_segment, overlay_mask
from .plots import Canvas, bar_chart, draw_text

__all__ = [
    "Canvas",
    "LABEL_COLORS",
    "apply_colormap",
    "bar_chart",
    "contact_sheet",
    "draw_boxes",
    "draw_text",
    "extract_segment",
    "gray_to_rgb_u8",
    "label_color",
    "overlay_mask",
]
