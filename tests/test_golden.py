"""Golden-output regression test for ``invdiff synth`` + ``invdiff solve``.

Three physics setups, shrunk to 48 x 48 scenes with a short solve, run
through the command line; every output file is compared with arrays frozen
under ``tests/data/golden/`` at a relative tolerance of 1e-12 of the
array's peak (of each column's peak for the CSV tables).

A change that is meant to move output values regenerates the data with
``PYTHONPATH=src python tests/test_golden.py`` and shows the new files in its
diff.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from invdiff.cli import main
from invdiff.tensorio import read_tensor

DATA = Path(__file__).resolve().parent / "data" / "golden"
FILES = ("psdr.idf", "clean.idf", "sensed.idf", "truth.csv", "recovered.idf", "trace.csv")
REL_TOL = 1e-12

_SMALL = """
rows = 48
cols = 48
max_iters = 12
power_iters = 20
seed = 2024
"""

CASES = {
    # default physics and wide 7-bin grid, single generation
    "default": _SMALL + """
num_sources = 3
""",
    # short horizon, fast escape: 12 generations, narrow 5-bin grid
    "narrow": _SMALL + """
horizon = 60
kappa_a = 2e-6
kappa_d = 0.05
sigma_boundaries = 0, 2, 4, 6, 8, 10
support_bins = 1, 2, 3, 4, 5
num_sources = 4
source_min_separation = 8
""",
    # slow escape, 10 generations, emitters with distinct windows
    "batch": _SMALL + """
kappa_d = 1e-3
sources = 14:14:1.0:0:3600; 14:33:1.0:300:2900; 33:14:1.0:1200:3600; 33:33:1.0:50:700
""",
}


def _run(config_text: str, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "run.cfg"
    cfg.write_text(config_text)
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    solve = ["solve", "--config", str(cfg), "--input", str(out / "sensed.idf"), "--out", str(out)]
    assert main(solve) == 0


def _values(name: str, path: Path) -> np.ndarray:
    if name.endswith(".idf"):
        return read_tensor(path)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    _run(CASES[case], tmp_path)
    golden = np.load(DATA / f"{case}.npz")
    for name in FILES:
        got = _values(name, tmp_path / name)
        want = golden[name]
        assert got.shape == want.shape, f"{case} {name}: shape {got.shape} != {want.shape}"
        axis = 0 if name.endswith(".csv") else None  # tables: per column
        peak = np.abs(want).max(axis=axis)
        err = np.abs(got - want).max(axis=axis)
        assert (err <= REL_TOL * peak).all(), (
            f"{case} {name}: max |diff| {err} exceeds {REL_TOL:g} of peak {peak}"
        )


def _write_golden(work: Path) -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for case, text in CASES.items():
        _run(text, work / case)
        arrays = {name: _values(name, work / case / name) for name in FILES}
        np.savez_compressed(DATA / f"{case}.npz", **arrays)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_golden(Path(tmp))
