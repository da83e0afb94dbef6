"""Tests for colormaps, overlays, contact sheets, and the chart rasteriser."""

import numpy as np
import pytest

from repro.viz.colormap import LABEL_COLORS, apply_colormap, gray_to_rgb_u8, label_color
from repro.viz.contact_sheet import contact_sheet
from repro.viz.overlay import draw_boxes, extract_segment, overlay_mask
from repro.viz.plots import Canvas, bar_chart, draw_text


class TestColormap:
    def test_gray_to_rgb(self, rng):
        img = rng.random((8, 8)).astype(np.float32)
        rgb = gray_to_rgb_u8(img)
        assert rgb.shape == (8, 8, 3) and rgb.dtype == np.uint8

    def test_apply_colormap_endpoints(self):
        vals = np.array([[0.0, 1.0]])
        rgb = apply_colormap(vals)
        assert rgb.shape == (1, 2, 3)
        assert not np.array_equal(rgb[0, 0], rgb[0, 1])

    def test_colormap_monotone_green_channel(self):
        vals = np.linspace(0, 1, 32)[None, :]
        rgb = apply_colormap(vals).astype(int)
        assert (np.diff(rgb[0, :, 1]) >= 0).all()  # viridis G increases

    def test_vmax_validated(self):
        with pytest.raises(ValueError):
            apply_colormap(np.zeros((2, 2)), vmin=1.0, vmax=0.0)

    def test_label_colors_cycle(self):
        assert label_color(0) == label_color(len(LABEL_COLORS))


class TestOverlay:
    def test_mask_overlay_tints_only_mask(self, rng):
        img = np.full((16, 16), 0.5, dtype=np.float32)
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:8, 4:8] = True
        out = overlay_mask(img, mask, color=(255, 0, 0), alpha=0.5)
        assert out[5, 5, 0] > out[5, 5, 2]  # red-shifted inside
        assert (out[0, 0] == out[0, 0, 0]).all()  # gray outside

    def test_draw_boxes_outline(self):
        img = np.zeros((20, 20), dtype=np.float32)
        out = draw_boxes(img, [[2, 3, 10, 12]], color=(255, 255, 0))
        assert (out[3, 5] == (255, 255, 0)).all()  # top edge
        assert (out[7, 7] == 0).all()  # interior untouched

    def test_extract_segment(self, rng):
        img = rng.random((8, 8)).astype(np.float32)
        mask = np.zeros((8, 8), dtype=bool)
        mask[2, 2] = True
        out = extract_segment(img, mask)
        assert out[2, 2] == img[2, 2]
        assert out[0, 0] == 0.0


class TestContactSheet:
    def test_grid_layout(self, rng):
        panels = [[rng.random((16, 16)), rng.random((16, 24))], [rng.random((20, 16))]]
        sheet = contact_sheet(panels, captions=[["a", "b"], ["c"]])
        assert sheet.ndim == 3 and sheet.dtype == np.uint8
        assert sheet.shape[0] > 36 and sheet.shape[1] > 40

    def test_mixed_dtypes(self, rng):
        float_panel = rng.random((8, 8))
        rgb_panel = (rng.random((8, 8, 3)) * 255).astype(np.uint8)
        sheet = contact_sheet([[float_panel, rgb_panel]])
        assert sheet.dtype == np.uint8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            contact_sheet([])


class TestPlots:
    def test_canvas_primitives(self):
        c = Canvas(32, 32)
        c.fill_rect(4, 4, 8, 8, (255, 0, 0))
        assert (c.array[5, 5] == (255, 0, 0)).all()
        c.hline(16, 0, 32)
        assert (c.array[16, 10] == (40, 40, 40)).all()

    def test_draw_text_changes_pixels(self):
        canvas = np.full((16, 64, 3), 255, dtype=np.uint8)
        draw_text(canvas, 2, 2, "0.95")
        assert (canvas != 255).any()

    def test_bar_chart(self):
        groups = {
            "otsu": {"iou": 0.16, "dice": 0.27},
            "zenesis": {"iou": 0.73, "dice": 0.84},
        }
        img = bar_chart(groups)
        assert img.ndim == 3 and img.dtype == np.uint8
        # Some colored bars must be present.
        assert (img != 255).any()

    def test_bar_chart_empty(self):
        with pytest.raises(ValueError):
            bar_chart({})
