"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io.tiff import write_tiff
from repro.io.volume_io import load_volume_bundle


@pytest.fixture()
def volume_file(amorphous_sample, tmp_path):
    path = tmp_path / "vol.tif"
    write_tiff(path, amorphous_sample.volume.voxels)
    return path


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for cmd in ("segment", "batch", "evaluate", "synthesize", "serve", "readiness"):
            args = parser.parse_args(
                {
                    "segment": ["segment", "x.tif", "catalyst"],
                    "batch": ["batch", "x.tif", "catalyst"],
                    "evaluate": ["evaluate"],
                    "synthesize": ["synthesize", "crystalline", "out.npz"],
                    "serve": ["serve"],
                    "readiness": ["readiness", "x.tif"],
                }[cmd]
            )
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--replicas", "2"], ["cluster", "status", "--url", "http://127.0.0.1:8765"]],
        ids=["serve-replicas", "cluster-status"],
    )
    def test_multi_replica_surface_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2  # an argparse usage error
        assert "error:" in capsys.readouterr().err


class TestSegment:
    def test_single_slice(self, volume_file, tmp_path, capsys):
        out = tmp_path / "masks.npz"
        overlay = tmp_path / "overlay.png"
        rc = main(
            [
                "segment",
                str(volume_file),
                "catalyst particles",
                "--slice",
                "0",
                "--out",
                str(out),
                "--overlay",
                str(overlay),
            ]
        )
        assert rc == 0
        with np.load(out) as data:
            assert data["mask"].any()
            assert data["boxes"].shape[1] == 4
        assert overlay.stat().st_size > 500
        assert "coverage" in capsys.readouterr().out

    def test_whole_volume(self, volume_file, tmp_path, capsys):
        out = tmp_path / "vol_masks.npz"
        rc = main(["segment", str(volume_file), "catalyst particles", "--out", str(out)])
        assert rc == 0
        vol, masks, meta = load_volume_bundle(out)
        assert masks is not None and masks.any()
        assert meta["prompt"] == "catalyst particles"

    def test_checkpoint_then_resume(self, volume_file, tmp_path, capsys):
        base = ["segment", str(volume_file), "catalyst particles"]
        ckdir = tmp_path / "ck"
        first = tmp_path / "first.npz"
        assert main([*base, "--out", str(first), "--checkpoint-dir", str(ckdir)]) == 0
        assert (ckdir / "manifest.json").exists()
        capsys.readouterr()
        resumed = tmp_path / "resumed.npz"
        assert main([*base, "--out", str(resumed), "--checkpoint-dir", str(ckdir), "--resume"]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out
        _, m1, _ = load_volume_bundle(first)
        _, m2, _ = load_volume_bundle(resumed)
        assert np.array_equal(m1, m2)

    def test_resume_requires_checkpoint_dir(self, volume_file, capsys):
        rc = main(["segment", str(volume_file), "catalyst particles", "--resume"])
        assert rc == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_stream_resume_uses_default_checkpoint_dir(self, volume_file, capsys):
        from repro.resilience import event_count

        base = ["segment", str(volume_file), "catalyst particles", "--stream"]
        assert main(base) == 0
        assert (volume_file.parent / "vol.tif.ckpt" / "manifest.json").exists()
        before = event_count("checkpoint.resumed_slices")
        assert main([*base, "--resume"]) == 0
        assert event_count("checkpoint.resumed_slices") > before

    @pytest.mark.parametrize(
        "extra, error_type",
        [
            (["--memory-budget-mb", "0"], "ValidationError"),
            (["--memory-budget-mb", "nan"], "ValidationError"),
            ([], "FormatError"),
        ],
        ids=["zero_budget", "nan_budget", "missing_input"],
    )
    def test_stream_errors_print_the_error_record(self, volume_file, capsys, extra, error_type):
        path = volume_file if extra else volume_file.parent / "missing.tif"
        rc = main(["segment", str(path), "catalyst particles", "--stream", *extra])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["ok"] is False and record["type"] == error_type


class TestBatch:
    def test_batch_runs(self, volume_file, tmp_path, capsys):
        out = tmp_path / "b.npz"
        rc = main(["batch", str(volume_file), "catalyst particles", "--out", str(out), "--no-temporal"])
        assert rc == 0
        assert "volume fraction" in capsys.readouterr().out

    def test_batch_rejects_2d(self, tmp_path, rng):
        img = tmp_path / "img.tif"
        write_tiff(img, rng.integers(0, 255, (32, 32)).astype(np.uint8))
        assert main(["batch", str(img), "catalyst"]) == 2


class TestSynthesizeAndReadiness:
    def test_synthesize_npz_with_gt(self, tmp_path, capsys):
        out = tmp_path / "syn.npz"
        rc = main(["synthesize", "crystalline", str(out), "--size", "64", "--slices", "2", "--with-gt"])
        assert rc == 0
        vol, masks, meta = load_volume_bundle(out)
        assert vol.shape == (2, 64, 64)
        assert masks is not None
        assert meta["kind"] == "crystalline"

    def test_synthesize_tiff(self, tmp_path):
        out = tmp_path / "syn.tif"
        rc = main(["synthesize", "amorphous", str(out), "--size", "64", "--slices", "2"])
        assert rc == 0
        from repro.io.tiff import read_tiff

        assert read_tiff(out).shape == (2, 64, 64)

    def test_readiness(self, volume_file, capsys):
        rc = main(["readiness", str(volume_file)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "overall" in report and report["is_ready"] is False


class TestEvaluate:
    def test_evaluate_otsu_small(self, tmp_path, capsys):
        dash = tmp_path / "dash.html"
        rc = main(
            ["evaluate", "--methods", "otsu", "--size", "64", "--slices", "1", "--dashboard", str(dash)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Average Performance Metrics" in out
        assert dash.read_text().startswith("<!DOCTYPE html>")
