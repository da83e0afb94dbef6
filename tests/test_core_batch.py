"""Tests for Mode B batch volume segmentation (``repro batch`` / pooled decode)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.pipeline import ZenesisPipeline
from repro.errors import GroundingError
from repro.io.tiff import write_tiff
from repro.io.volume_io import load_volume_bundle


class TestBatch:
    def test_2d_rejected(self):
        # The batch path is segment_volume with pooled decode; a 2-D input
        # is refused before any worker is started.
        with pytest.raises(GroundingError):
            ZenesisPipeline().segment_volume(np.zeros((16, 16)), "catalyst", n_workers=2)

    def test_matches_mode_b_session_path(self, amorphous_sample, tmp_path, capsys):
        # `repro batch` with one worker writes the same masks as the
        # pipeline's segment_volume with the temporal heuristic on.
        path = tmp_path / "vol.tif"
        out = tmp_path / "vol.masks.npz"
        write_tiff(path, amorphous_sample.volume.voxels)
        direct = ZenesisPipeline().segment_volume(amorphous_sample.volume, "catalyst particles")
        assert main(["batch", str(path), "catalyst particles", "--workers", "1", "--out", str(out)]) == 0
        _, batched, meta = load_volume_bundle(out)
        assert meta["prompt"] == "catalyst particles"
        assert np.array_equal(direct.masks, batched)
