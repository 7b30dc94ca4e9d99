"""Workloads: scene inputs drawn from the workload seed, and one timed pass.

Every pass synthesizes one scene through ``invdiff synth`` from a config file
that this module writes; the program receives only that file. The solve
workloads then invert the sensed image through the library, as ``invdiff
solve`` does, and detect and score the result. Functions are looked up on the
``invdiff`` package at call time, so the tracer's rebinding is seen.

Iteration caps are far below the acceptance fixture's 300 so that several
passes fit in one run: the benchmark reports medians over passes, and a run
must stay short enough for many seeded repeats. Scene geometry (image size,
scale grid, FFT pad) is kept exactly, since that is what sets the cost of
each operator call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans

WIDE_CONFIG = """\
# default 128x128 scene: 7 bins up to sigma 70 px, 20 emitters, one window
max_iters = 10
power_iters = 20
"""

NARROW_CONFIG = """\
# 192x192, 11 rebinding generations, 5 narrow bins, 45 emitters
rows = 192
cols = 192
horizon = 60
kappa_a = 2e-6
kappa_d = 0.05
sigma_boundaries = 0, 2, 4, 6, 8, 10
support_bins = 1, 2, 3, 4, 5
num_sources = 45
max_iters = 20
power_iters = 20
"""

BATCH_CONFIG = """\
# default wide grid at 128x128, 10 rebinding generations
kappa_d = 1e-3
"""

BATCH_EMITTERS = 40
# config defaults that batch scenes keep: image size, horizon, border margin
# and emitter separation
_BATCH_SHAPE = (128, 128)
_BATCH_HORIZON = 3600
_MARGIN = 12
_MIN_SEPARATION = 10.0

# fresh-process set-ups per run; setup_s is their median
SETUP_REPS = 5
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_time.py"


@dataclass
class PassResult:
    """What one pass measured and produced; checks fill ``problems``."""

    scene: int  # pass index; a pass covers Workload.batch scenes
    traced: bool
    pipeline_s: float = 0.0
    solve_s: float = 0.0
    f1: float = 0.0
    loc_rmse_px: float = 0.0
    iterations: int = 0
    solves: int = 0
    cap_hits: int = 0
    restarts: int = 0
    detections: int = 0
    emitters: int = 0
    bytes_written: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def scene_seed(workload_seed: int, index: int) -> int:
    """Seed of the index-th scene of a run; a pure function of its inputs."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def batch_emitters(seed: int):
    """Distinct emitters: separated positions and pairwise distinct windows.

    Returns (m, n, t_start, t_stop) tuples with whole-second windows, so no
    two emitters share a rest profile.
    """
    rng = np.random.default_rng(seed)
    rows, cols = _BATCH_SHAPE
    horizon = _BATCH_HORIZON
    placed, windows = [], set()
    while len(placed) < BATCH_EMITTERS:
        m = int(rng.integers(_MARGIN, rows - _MARGIN))
        n = int(rng.integers(_MARGIN, cols - _MARGIN))
        if any(np.hypot(m - pm, n - pn) < _MIN_SEPARATION for pm, pn, _, _ in placed):
            continue
        t0 = int(rng.integers(0, horizon * 4 // 5))
        t1 = int(rng.integers(t0 + horizon // 20, horizon + 1))
        if (t0, t1) in windows:
            continue
        windows.add((t0, t1))
        placed.append((m, n, t0, t1))
    return placed


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    kind: str  # "solve" or "synth"
    fracs: tuple = ()  # lambda / lambda_max, solved in order; more than one is a warm path
    batch: int = 1  # scenes per pass

    def scene_config(self, workload_seed: int, index: int) -> str:
        seed = scene_seed(workload_seed, index)
        text = self.config + f"seed = {seed}\n"
        if self.kind == "synth":
            text += "sources = " + "; ".join(
                f"{m}:{n}:1.0:{t0}:{t1}" for m, n, t0, t1 in batch_emitters(seed)
            ) + "\n"
        return text


WORKLOADS = {
    w.name: w
    for w in (
        # cold single-lambda solve; every kernel but bin 1 is wider than the
        # image, so each operator call pays for an 847x847 FFT
        Workload("wide128_solve", WIDE_CONFIG, "solve", fracs=(0.1,)),
        # warm-started lambda path; kernels fit the image (256x256 pad) and
        # bin 1 takes the direct spatial path
        Workload("narrow192_sweep", NARROW_CONFIG, "solve", fracs=(0.1, 0.01, 0.001)),
        # dataset generation: setup plus synthesis per scene, no solver; a
        # pass is a batch of scenes, so a run's median is over batch times
        # and does not flip between the fast and slow spells of a shared host
        Workload("synth_batch", BATCH_CONFIG, "synth", batch=8),
    )
}


def measure_setup(config_text: str, reps: int):
    """Time ``reps`` cold set-ups, each in a fresh interpreter (``setup_time.py``).

    Returns (set-up seconds per repetition, import seconds per repetition,
    geometry of the scene). The processes run one after the other.
    """
    runs = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(SETUP_SCRIPT)], input=config_text,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return [r["setup_s"] for r in runs], [r["import_s"] for r in runs], runs[-1]["geometry"]


def reference_kernels(inv, config_text: str):
    """The scene's kernels, cropped to the image's reach, for the synthesis check.

    Only the cropped copies are kept, so the harness holds no bank or FFT plan
    while the passes run.
    """
    cfg = inv.parse_config_text(config_text)
    bank = inv.build_kernel_bank(cfg.sigma_grid(), cfg.psf_sigma, cfg.quad_order)
    return [g.copy() for g in checks.crop_kernels(bank.kernels, cfg.shape)]


def run_cli(inv, argv) -> None:
    """Call ``invdiff.cli.main`` with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = inv.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"invdiff {argv[0]} exited with {rc}: {buf.getvalue().strip()}")


def lambda_max(inv, obs, bank) -> float:
    """Largest group norm of 2 A^T b: the smallest lambda giving a zero solution."""
    g0 = 2.0 * inv.adjoint(obs.data, obs, bank)[:, :, bank.grid.support_mask]
    return float(np.sqrt(np.einsum("mnk,mnk->mn", g0, g0)).max())


def solve_pass(inv, work: Workload, cfg_path: Path, out: Path, res: PassResult) -> list:
    """Synthesize, invert at each lambda fraction, detect and score.

    Returns the solve traces for the output checks.
    """
    t0 = time.perf_counter()
    run_cli(inv, ["synth", "--config", str(cfg_path), "--out", str(out)])
    cfg = inv.parse_config(cfg_path)
    grid = cfg.sigma_grid()
    sensed = inv.read_tensor(out / "sensed.idf")
    truths = inv.read_positions_csv(out / "truth.csv")
    bank = inv.build_kernel_bank(grid, cfg.psf_sigma, cfg.quad_order)
    obs = inv.Observation.plain(sensed)
    lam_max = lambda_max(inv, obs, bank)
    warm = len(work.fracs) > 1
    t_solve = time.perf_counter()
    op_norm = inv.op_norm_estimate(obs, bank, cfg.power_iters) if warm else None
    res.solve_s += time.perf_counter() - t_solve
    init, traces, best = None, [], None
    for frac in work.fracs:
        scfg = dataclasses.replace(cfg.solver_config(), lam=frac * lam_max)
        t_solve = time.perf_counter()
        sol, trace = inv.fista_solve(obs, bank, scfg, init=init, op_norm=op_norm)
        res.solve_s += time.perf_counter() - t_solve
        traces.append(trace)
        if warm:
            init = sol.data
        activity = inv.aggregate_map(sol.data, grid)
        dets = inv.find_sources(activity, cfg.detect_rel_threshold, cfg.detect_min_separation)
        report = inv.match_and_score(dets, truths, cfg.match_radius)
        res.detections += report.tp  # matched detections
        if best is None or report.f1 > best.f1:
            best = report
    res.pipeline_s = time.perf_counter() - t0
    res.f1 = best.f1
    res.loc_rmse_px = float(np.sqrt(np.mean(best.pairs[:, 4] ** 2))) if best.tp else 0.0
    res.solves = len(traces)
    res.iterations = sum(t.iterations for t in traces)
    res.cap_hits = sum(not t.converged for t in traces)
    res.restarts = sum(int(t.restarts.sum()) for t in traces)
    res.emitters = len(truths)
    res.bytes_written = sum(p.stat().st_size for p in out.glob("*.idf"))
    return traces


def synth_pass(inv, batch, res: PassResult) -> None:
    """``invdiff synth`` once per (config, output dir) of the batch; the pass is the batch."""
    t0 = time.perf_counter()
    for cfg_path, out in batch:
        run_cli(inv, ["synth", "--config", str(cfg_path), "--out", str(out)])
    res.pipeline_s = time.perf_counter() - t0
    res.bytes_written = sum(p.stat().st_size for _, out in batch for p in out.glob("*.idf"))


def check_synth(inv, text: str, out: Path, ref_kernels):
    """Output checks of one synthesized scene; returns (problems, F1 of its truth tensor)."""
    cfg = inv.parse_config_text(text)
    emitters = batch_emitters(cfg.seed)
    psdr = checks.read_idf(out / "psdr.idf")
    problems = checks.check_clean(psdr, checks.read_idf(out / "clean.idf"), ref_kernels)
    problems += checks.check_truth(checks.read_truth_rows(out / "truth.csv"), emitters)
    # detection quality of the dataset's own labels, found on its truth tensor
    dets = inv.find_sources(
        inv.aggregate_map(psdr, cfg.sigma_grid()),
        cfg.detect_rel_threshold, cfg.detect_min_separation,
    )
    report = inv.match_and_score(dets, [e[:2] for e in emitters], cfg.match_radius)
    return problems, report.f1


def run_pass(inv, work, seed, index, traced, tracer, workdir, ref_kernels):
    """Pass ``index`` (scenes index*batch ...), then its output checks; never raises."""
    res = PassResult(scene=index, traced=traced)
    root = workdir / f"pass{index}{'-traced' if traced else ''}"
    try:
        texts, batch = [], []
        for k in range(index * work.batch, (index + 1) * work.batch):
            out = root / f"scene{k}"
            out.mkdir(parents=True)
            texts.append(work.scene_config(seed, k))
            (out / "scene.cfg").write_text(texts[-1])
            batch.append((out / "scene.cfg", out))
        traces = []
        instrument = spans.instrumented(inv, tracer) if traced else contextlib.nullcontext()
        tracer.pass_id = index if traced else spans.NO_PASS
        with instrument, (tracer.span("bench.pass") if traced else contextlib.nullcontext()):
            if work.kind == "solve":
                traces = solve_pass(inv, work, *batch[0], res)
            else:
                synth_pass(inv, batch, res)
        for trace in traces:
            res.problems += checks.check_trace(trace)
        if work.kind == "synth":
            f1s = []
            for text, (_, out) in zip(texts, batch):
                problems, f1 = check_synth(inv, text, out, ref_kernels)
                res.problems += problems
                f1s.append(f1)
            res.f1 = statistics.median(f1s)
            res.emitters = BATCH_EMITTERS * work.batch
    except Exception as exc:  # a broken pass is counted, and the run goes on
        res.problems.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    finally:
        tracer.pass_id = spans.NO_PASS
        shutil.rmtree(root, ignore_errors=True)
    for problem in res.problems:
        print(f"FAILED pass {index}{' (traced)' if traced else ''}: {problem}", file=sys.stderr)
    return res
