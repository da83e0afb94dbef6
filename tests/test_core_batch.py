"""Tests for Mode B batch volume segmentation (``repro batch``)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.pipeline import ZenesisPipeline
from repro.errors import GroundingError
from repro.io.tiff import write_tiff
from repro.io.volume_io import load_volume_bundle


class TestBatch:
    def test_2d_rejected(self):
        # The batch path is segment_volume; a 2-D input is refused before
        # any slice is read.
        with pytest.raises(GroundingError):
            ZenesisPipeline().segment_volume(np.zeros((16, 16)), "catalyst")

    def test_matches_mode_b_session_path(self, amorphous_sample, tmp_path, capsys):
        # `repro batch` writes the same masks as the pipeline's
        # segment_volume with the temporal heuristic on.
        path = tmp_path / "vol.tif"
        out = tmp_path / "vol.masks.npz"
        write_tiff(path, amorphous_sample.volume.voxels)
        direct = ZenesisPipeline().segment_volume(amorphous_sample.volume, "catalyst particles")
        assert main(["batch", str(path), "catalyst particles", "--out", str(out)]) == 0
        _, batched, meta = load_volume_bundle(out)
        assert meta["prompt"] == "catalyst particles"
        assert np.array_equal(direct.masks, batched)

    @pytest.mark.parametrize(
        "argv",
        [
            "batch vol.tif catalyst --workers 2",
            "jobs --jobs-dir jobs submit segment_volume --path vol.tif --prompt catalyst --workers 2",
        ],
    )
    def test_workers_flag_is_gone(self, argv, capsys):
        # Mode B decodes in one process; the decode-worker flag is an
        # unknown argument now.
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
