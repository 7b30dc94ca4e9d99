"""Outputs do not depend on the BLAS thread count.

The default kernel bank, its 128 x 128 FFT plan, the ``invdiff kernels``
files, a short cold solve on a 128 x 128 scene, the ``invdiff synth`` files
of a scene with escape (kappa_d = 1e-3) whose emitters have distinct windows,
so each takes its own rest-profile product, and the activity map and
``invdiff detect`` file of that scene's source tensor are computed in two
fresh interpreters, one with ``OPENBLAS_NUM_THREADS=1`` and one with 2, and
compared byte for byte. The thread count must be set before NumPy loads,
hence the subprocesses.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import invdiff

_CHILD = """
import sys
from pathlib import Path

import numpy as np

from invdiff import (
    Observation, SolverConfig, aggregate_map, build_kernel_bank, default_config,
    fista_solve, forward, lambda_max, read_tensor,
)
from invdiff.cli import main

out = Path(sys.argv[1])
cfg = default_config()
bank = build_kernel_bank(cfg.sigma_grid(), cfg.psf_sigma, cfg.quad_order)
arrays = {f"kernel_{k}": g for k, g in enumerate(bank.kernels)}
arrays["ghat"] = bank.plan((128, 128))["ghat"]

rng = np.random.default_rng(11)
truth = np.zeros((128, 128, bank.grid.n_bins))
i, j = rng.integers(10, 118, size=(2, 12))
truth[i, j, rng.integers(0, 3, size=12)] = rng.uniform(1.0, 5.0, size=12)
obs = Observation.plain(forward(truth, bank) + rng.normal(0.0, 0.01, (128, 128)))
solver = SolverConfig(lam=0.1 * lambda_max(obs, bank), max_iters=15, power_iters=5)
recovered, trace = fista_solve(obs, bank, solver)
arrays.update(
    costs=trace.costs, gap=np.float64(trace.gap), op_norm=np.float64(trace.op_norm),
    recovered=recovered.data,
)

(out / "escape.cfg").write_text(
    "kappa_d = 1e-3\\n"
    "sources = 20:30:1:0:3600; 64:64:2:300:2400; 100:40:1.5:900:1800; 40:100:1:1200:3000\\n"
)
escape = ["--config", str(out / "escape.cfg"), "--out", str(out / "files")]
if main(["synth", *escape]) != 0:
    sys.exit(1)
psdr = out / "files" / "psdr.idf"
arrays["activity"] = aggregate_map(read_tensor(psdr), cfg.sigma_grid())
if main(["detect", "--input", str(psdr), *escape]) != 0:
    sys.exit(1)
np.savez(out / "arrays.npz", **arrays)
sys.exit(main(["kernels", "--out", str(out / "files")]))
"""


def _run(threads: int, out: Path) -> dict:
    out.mkdir()
    src = str(Path(invdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads))
    subprocess.run(
        [sys.executable, "-c", _CHILD, str(out)],
        env=env,
        capture_output=True,
        check=True,
    )
    with np.load(out / "arrays.npz") as z:
        got = {name: z[name].tobytes() for name in z.files}
    for f in sorted((out / "files").iterdir()):
        got[f.name] = f.read_bytes()
    return got


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    one = _run(1, tmp_path / "one")
    two = _run(2, tmp_path / "two")
    assert one.keys() == two.keys()
    assert sum(name.startswith("kernel_") and name.endswith(".idf") for name in one) == 7
    synth = {"psdr.idf", "clean.idf", "sensed.idf", "truth.csv", "detections.csv"}
    assert synth <= one.keys()
    differ = sorted(name for name in one if one[name] != two[name])
    assert differ == []
