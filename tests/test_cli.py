"""End-to-end tests of the command-line interface and file formats."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invdiff
from invdiff import Source
from invdiff.cli import main
from invdiff.tensorio import (
    read_pgm16,
    read_positions_csv,
    read_tensor,
    write_pgm16,
    write_tensor,
    write_truth_csv,
)

SMALL_CFG = """
rows = 48
cols = 48
sigma_boundaries = 0, 2, 5, 8
support_bins = 1, 2, 3
tau_steps = 512
num_sources = 3
source_min_separation = 8
border_margin = 10
noise_sigma = 0.01
bits = 12
lambda = 0.5
max_iters = 40
detect_min_separation = 3
seed = 4242
"""


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.cfg"
    p.write_text(SMALL_CFG)
    return p


@pytest.fixture(scope="module")
def synth_dir(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return out


class TestTensorFile:
    def test_round_trip_ranks(self, tmp_path):
        rng = np.random.default_rng(1)
        for shape in [(7,), (5, 3), (4, 6, 2)]:
            arr = rng.standard_normal(shape)
            path = tmp_path / "t.idf"
            write_tensor(path, arr)
            back = read_tensor(path)
            assert back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)

    def test_write_is_deterministic(self, tmp_path):
        arr = np.random.default_rng(2).random((6, 6))
        write_tensor(tmp_path / "a.idf", arr)
        write_tensor(tmp_path / "b.idf", arr)
        assert (tmp_path / "a.idf").read_bytes() == (tmp_path / "b.idf").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.idf"
        write_tensor(path, np.ones((4, 4)))
        data = path.read_bytes()
        # a file cut short, and a header promising 80 GB over 8 doubles:
        # both are refused without allocating the promised payload
        huge = b"IDF1" + struct.pack("<3I", 2, 100000, 100000) + bytes(64)
        for blob in (data[:-8], huge):
            path.write_bytes(blob)
            with pytest.raises(ValueError, match="payload smaller than header promises"):
                read_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "t.idf"
        write_tensor(path, np.ones(3))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError, match="trailing"):
            read_tensor(path)


class TestPgm16:
    def test_round_trip_with_scale(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.random((12, 10)) * 7.5
        path = tmp_path / "img.pgm"
        write_pgm16(path, img)
        assert (tmp_path / "img.pgm.scale.txt").exists()
        back, scale = read_pgm16(path)
        assert back.shape == img.shape
        assert scale == pytest.approx(img.max() / 65535.0)
        np.testing.assert_allclose(back, img, atol=img.max() / 65535.0)

    def test_zero_image(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm16(path, np.zeros((4, 4)))
        back, scale = read_pgm16(path)
        np.testing.assert_array_equal(back, 0.0)


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        srcs = [
            Source(m=3, n=4, rate=1.5, t_start=0.0, t_stop=100.0),
            Source(m=8, n=1, rate=2.0, t_start=5.0, t_stop=50.0),
        ]
        path = tmp_path / "truth.csv"
        write_truth_csv(path, srcs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,n,rate,t_start,t_stop"
        pos = read_positions_csv(path)
        np.testing.assert_array_equal(pos, [[3, 4], [8, 1]])

    def test_headerless_file_accepted(self, tmp_path):
        path = tmp_path / "pos.csv"
        path.write_text("2,9\n7,7\n")
        np.testing.assert_array_equal(read_positions_csv(path), [[2, 9], [7, 7]])


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        for name in ("psdr.idf", "clean.idf", "sensed.idf", "truth.csv"):
            assert (synth_dir / name).exists()
        psdr = read_tensor(synth_dir / "psdr.idf")
        assert psdr.shape == (48, 48, 3)
        clean = read_tensor(synth_dir / "clean.idf")
        assert clean.shape == (48, 48)
        assert clean.max() > 0

    def test_truth_matches_psdr_support(self, synth_dir):
        psdr = read_tensor(synth_dir / "psdr.idf")
        truths = read_positions_csv(synth_dir / "truth.csv")
        assert truths.shape == (3, 2)
        active = np.argwhere(psdr.sum(axis=2) > 0)
        np.testing.assert_array_equal(
            active[np.lexsort((active[:, 1], active[:, 0]))],
            truths[np.lexsort((truths[:, 1], truths[:, 0]))],
        )

    def test_rerun_is_byte_identical(self, cfg_path, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--config", str(cfg_path), "--out", str(again)]) == 0
        for name in ("psdr.idf", "clean.idf", "sensed.idf", "truth.csv"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_seed_override_changes_noise(self, cfg_path, synth_dir, tmp_path):
        other = tmp_path / "other"
        rc = main(
            ["synth", "--config", str(cfg_path), "--out", str(other), "--seed", "999"]
        )
        assert rc == 0
        assert (other / "sensed.idf").read_bytes() != (synth_dir / "sensed.idf").read_bytes()

    def test_pgm_flag(self, cfg_path, tmp_path):
        out = tmp_path / "pgm"
        rc = main(["synth", "--config", str(cfg_path), "--out", str(out), "--pgm"])
        assert rc == 0
        img, _ = read_pgm16(out / "clean.pgm")
        want = read_tensor(out / "clean.idf")
        np.testing.assert_allclose(img, want, atol=max(want.max(), 1e-300) / 65535.0)


class TestForward:
    def test_matches_synth_clean(self, cfg_path, synth_dir, tmp_path):
        out = tmp_path / "fwd"
        rc = main(
            [
                "forward",
                "--config", str(cfg_path),
                "--input", str(synth_dir / "psdr.idf"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        fwd = read_tensor(out / "forward.idf")
        clean = read_tensor(synth_dir / "clean.idf")
        np.testing.assert_array_equal(fwd, clean)

    def test_rejects_rank_2_input(self, cfg_path, synth_dir, tmp_path, capsys):
        rc = main(
            [
                "forward",
                "--config", str(cfg_path),
                "--input", str(synth_dir / "clean.idf"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSolveDetectEval:
    def test_solve_writes_outputs(self, cfg_path, synth_dir, tmp_path, capsys):
        out = tmp_path / "sol"
        rc = main(
            [
                "solve",
                "--config", str(cfg_path),
                "--input", str(synth_dir / "sensed.idf"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        rec = read_tensor(out / "recovered.idf")
        assert rec.shape == (48, 48, 3)
        assert rec.min() >= 0.0
        trace_lines = (out / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "iter,cost,data,reg,step,restart"
        costs = [float(l.split(",")[1]) for l in trace_lines[1:]]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))
        printed = capsys.readouterr().out
        assert "solve:" in printed and "norm bound " in printed
        assert f"step {float(trace_lines[1].split(',')[4]):.3g}" in printed

    def test_solve_rejects_rank_3(self, cfg_path, synth_dir, tmp_path, capsys):
        rc = main(
            [
                "solve",
                "--config", str(cfg_path),
                "--input", str(synth_dir / "psdr.idf"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "expected a 2D image" in capsys.readouterr().err

    def test_detect_on_tensor_finds_truth(self, cfg_path, synth_dir, tmp_path):
        out = tmp_path / "det"
        rc = main(
            [
                "detect",
                "--config", str(cfg_path),
                "--input", str(synth_dir / "psdr.idf"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        dets = read_positions_csv(out / "detections.csv")
        truths = read_positions_csv(synth_dir / "truth.csv")
        assert dets.shape == truths.shape
        np.testing.assert_array_equal(
            dets[np.lexsort((dets[:, 1], dets[:, 0]))],
            truths[np.lexsort((truths[:, 1], truths[:, 0]))],
        )

    def test_eval_scores_perfectly_on_truth_tensor(
        self, cfg_path, synth_dir, tmp_path, capsys
    ):
        out = tmp_path / "ev"
        rc = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--input", str(synth_dir / "psdr.idf"),
                "--truth", str(synth_dir / "truth.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = (out / "metrics.csv").read_text()
        assert "f1,1.0" in text
        assert "f1 1.0000" in capsys.readouterr().out


class TestKernels:
    def test_kernel_files_and_mass(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "k"
        rc = main(["kernels", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        widths = np.diff([0.0, 2.0, 5.0, 8.0])
        for k in range(1, 4):
            g = read_tensor(out / f"kernel_{k:02d}.idf")
            assert g.ndim == 2
            assert abs(g.sum() - np.sqrt(widths[k - 1])) <= 1e-6
        out_text = capsys.readouterr().out
        assert out_text.count("kernels: bin") == 3


class TestMainPlumbing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "invdiff" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["synth", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("rows = many\n")
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "expected an integer" in err

    def test_defaults_used_without_config(self, tmp_path):
        # kernels works with the built-in defaults (no --config)
        rc = main(["kernels", "--out", str(tmp_path / "defk")])
        assert rc == 0
        assert (tmp_path / "defk" / "kernel_07.idf").exists()


def test_cold_import_skips_unused_scipy_subpackages():
    # a fresh interpreter: the test process may have imported them already
    src = str(Path(invdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, invdiff, invdiff.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.integrate', "
        "'scipy.ndimage') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
