"""Acceptance gate: nine pinned end-to-end checks.

Each test prints one visible ``criterion N: PASS/FAIL`` line (bypassing
capture) and then asserts.  Tolerances and runtime budgets are pinned; do
not loosen them.
"""

import time

import numpy as np
import pytest
from scipy import integrate, stats

from invdiff import (
    Observation,
    PhysicalParams,
    SigmaGrid,
    SolverConfig,
    adjoint,
    aggregate_map,
    build_kernel_bank,
    capture_fraction,
    default_config,
    find_sources,
    fista_solve,
    forward,
    lambda_max,
    match_and_score,
    op_norm_estimate,
    parse_config_text,
    phi_general,
    phi_no_desorption,
    prox_group_nonneg,
)
from invdiff.cli import main
from invdiff.operator import _cached_bank
from invdiff.physics import _cached_phi, conv_powers
from invdiff.tensorio import read_positions_csv, read_tensor
from grad_oracle import grad_data
from pde_oracle import pde_oracle


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _announce


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_adjoint_identity(announce):
    t0 = time.perf_counter()
    grid = SigmaGrid(boundaries=(0.0, 2.0, 5.0, 10.0, 20.0), support_set=(1, 2, 3, 4))
    bank = build_kernel_bank(grid)
    rng = np.random.default_rng(101)
    m = n = 32
    worst = 0.0
    for _ in range(20):
        weights = rng.uniform(0.1, 2.0, (m, n))
        mask = (rng.random((m, n)) > 0.15).astype(float)
        obs = Observation(data=np.zeros((m, n)), weights=weights, mask=mask)
        a = rng.random((m, n, 4)) * mask[:, :, None]
        d = rng.standard_normal((m, n))
        lhs = float(np.sum(weights * weights * forward(a, bank) * d))
        rhs = float(np.sum(a * adjoint(d, obs, bank)))
        rel = abs(lhs - rhs) / (np.linalg.norm(a) * np.linalg.norm(d))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    announce(1, ok, f"adjoint identity worst rel {worst:.3e} <= 1e-10 over 20 pairs ({elapsed:.2f} s < 5 s)")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_kernel_mass_and_norm_bound(announce):
    grid = SigmaGrid(boundaries=(0.0, 2.0, 5.0, 10.0, 20.0), support_set=(1, 2, 3, 4))
    bank = build_kernel_bank(grid)
    mass_err = max(
        abs(k.sum() - np.sqrt(w)) for k, w in zip(bank.kernels, grid.widths)
    )
    rng = np.random.default_rng(202)
    bound_ok = True
    worst_ratio = 0.0
    for _ in range(3):
        weights = rng.uniform(0.0, 3.0, (32, 32))
        obs = Observation(
            data=np.zeros((32, 32)), weights=weights, mask=np.ones((32, 32))
        )
        est = op_norm_estimate(obs, bank, iters=60)
        limit = np.sqrt(grid.sigma_max) * weights.max()
        worst_ratio = max(worst_ratio, est / limit)
        bound_ok = bound_ok and est <= limit + 1e-9
    ok = mass_err <= 1e-6 and bound_ok
    announce(
        2,
        ok,
        f"kernel mass err {mass_err:.3e} <= 1e-6; spectral bound ratio {worst_ratio:.3f} <= 1 on 3 weight fields",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_capture_identity_and_reduction(announce):
    sets = [
        (2e-7, 1e-10, 3600.0),
        (1e-6, 1e-10, 1800.0),
        (5e-7, 4e-10, 7200.0),
    ]
    worst = 0.0
    for ka, diff, horizon in sets:
        p = PhysicalParams(
            kappa_a=ka, kappa_d=0.0, diffusion=diff, horizon=horizon, pixel_pitch=1e-5
        )
        quad_val, _ = integrate.quad(
            lambda t: phi_no_desorption(t, p), 0.0, horizon, points=[1e-3], limit=400
        )
        worst = max(worst, abs(quad_val - capture_fraction(horizon, p)))
    p = PhysicalParams(
        kappa_a=2e-7, kappa_d=0.0, diffusion=1e-10, horizon=3600.0, pixel_pitch=1e-5
    )
    phi = phi_general(p, tau_steps=1024)
    exact_reduction = np.array_equal(phi.values, phi_no_desorption(phi.tau_grid, p))
    ok = worst <= 1e-6 and exact_reduction
    announce(
        3,
        ok,
        f"capture identity err {worst:.3e} <= 1e-6 on 3 parameter sets; no-escape reduction exact: {exact_reduction}",
    )


# ---------------------------------------------------------------- criterion 4


def _measured_dropped_tail(params: PhysicalParams, eps: float, tau_steps: int = 2048):
    """Sup over (tau, t) of the series remainder the tabulation drops."""
    phi = phi_general(params, tau_steps=tau_steps, eps=eps)
    kept = phi.n_generations
    horizon = params.horizon
    step = horizon / tau_steps
    edges = np.arange(tau_steps + 1) * step
    cell_avg = np.diff([capture_fraction(e, params) if e > 0 else 0.0 for e in edges]) / step
    tau = phi.tau_grid
    t_grid = np.linspace(0.0, horizon, 64)[1:]
    tail_by_cell = np.zeros((t_grid.size, tau_steps))
    tiny_streak = 0
    powers = conv_powers(cell_avg, step, kept + 400)
    for j in range(kept + 1, kept + 401):
        # the j-fold power of the midpoint-aligned table starts at j * step / 2
        grid = step / 2.0 * j + step * np.arange(tau_steps)
        dens = np.interp(tau, grid, powers[j - 1], left=0.0, right=0.0)
        lam = params.kappa_d * (t_grid[:, None] - tau[None, :])
        with np.errstate(invalid="ignore"):
            term = np.where(lam >= 0, dens[None, :] * stats.poisson.pmf(j - 1, np.maximum(lam, 0.0)), 0.0)
        tail_by_cell += term
        contrib = float(term.max())
        tiny_streak = tiny_streak + 1 if contrib < eps * 1e-6 else 0
        if tiny_streak >= 2:
            break
    sup_tail = float(tail_by_cell.max())
    return sup_tail, phi.j_max, kept


def test_criterion_4_truncation_tail(announce):
    t0 = time.perf_counter()
    horizon = 3600.0
    diff = 1e-10
    regimes = [
        (0.5, np.sqrt(1e-5 * diff)),  # weak binding
        (5.0, np.sqrt(0.5 * diff)),  # strong binding
        (50.0, np.sqrt(0.5 * diff)),
    ]
    lines = []
    ok = True
    for kd_t, ka in regimes:
        p = PhysicalParams(
            kappa_a=ka, kappa_d=kd_t / horizon, diffusion=diff,
            horizon=horizon, pixel_pitch=1e-5,
        )
        for eps in (1e-3, 1e-5):
            tail, j_eps, kept = _measured_dropped_tail(p, eps)
            ok = ok and tail <= eps
            lines.append(f"kdT={kd_t:g}/eps={eps:g}: tail {tail:.2e} <= {eps:g} (J={j_eps}, kept={kept})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    announce(4, ok, "; ".join(lines) + f" ({elapsed:.1f} s < 60 s)")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_transport_oracle_agreement(announce):
    t0 = time.perf_counter()
    lines = []
    ok = True
    for kd in (0.0, 2.0 / 3600.0):
        p = PhysicalParams(
            kappa_a=1e-6, kappa_d=kd, diffusion=1e-10, horizon=3600.0, pixel_pitch=1e-5
        )
        bound_series = phi_general(p, tau_steps=4096).mass()
        bound_pde = pde_oracle(p, n_z=1000).bound_final
        rel = abs(bound_series - bound_pde) / bound_pde
        ok = ok and rel <= 0.02
        lines.append(f"kd={kd:g}: series {bound_series:.5f} vs pde {bound_pde:.5f} (rel {rel:.4f} <= 0.02)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    announce(5, ok, "; ".join(lines) + f" ({elapsed:.1f} s < 120 s)")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_prox_oracle(announce):
    from prox_oracle import prox_oracle

    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        v = rng.standard_normal(6) * rng.uniform(0.5, 3.0)
        thr = float(rng.uniform(0.0, 3.0))
        sup = rng.random(6) < 0.7
        if not sup.any():
            sup[rng.integers(0, 6)] = True
        want = prox_oracle(v, thr, sup)
        got = prox_group_nonneg(v.reshape(1, 1, 6), thr, sup)[0, 0]
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-6
    announce(6, ok, f"group prox vs numerical minimizer worst abs err {worst:.3e} <= 1e-6 over 200 instances")


# ---------------------------------------------------------------- criterion 7


def _sweep(obs, bank, grid, truths, op_norm):
    """Coarse 3-point regularization sweep; returns the best report and trace."""
    lam_max = lambda_max(obs, bank)
    best = None
    for frac in (1e-3, 1e-2, 1e-1):
        cfg = SolverConfig(lam=frac * lam_max, max_iters=300)
        sol, trace = fista_solve(obs, bank, cfg, op_norm=op_norm)
        dets = find_sources(aggregate_map(sol.data, grid), 0.05, 4)
        report = match_and_score(dets, truths, radius=4.0)
        if best is None or report.f1 > best[0].f1:
            best = (report, trace, frac)
    return best


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    # a cold start: the elapsed time includes building the phi table and
    # the kernel bank, as in a fresh process
    _cached_bank.cache_clear()
    _cached_phi.cache_clear()
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("e2e")
    rc = main(["synth", "--out", str(out)])  # built-in defaults: 128x128, 20 emitters
    assert rc == 0
    cfg = default_config()
    grid = cfg.sigma_grid()
    truths = read_positions_csv(out / "truth.csv")
    sensed = read_tensor(out / "sensed.idf")
    clean = read_tensor(out / "clean.idf")
    bank = build_kernel_bank(grid, cfg.psf_sigma, cfg.quad_order)
    obs_noisy = Observation.plain(sensed)
    obs_clean = Observation.plain(clean)
    op_norm = op_norm_estimate(obs_noisy, bank, iters=60)
    noisy_report, noisy_trace, noisy_frac = _sweep(obs_noisy, bank, grid, truths, op_norm)
    clean_report, clean_trace, clean_frac = _sweep(obs_clean, bank, grid, truths, op_norm)
    return {
        "noisy": noisy_report,
        "clean": clean_report,
        "noisy_trace": noisy_trace,
        "clean_trace": clean_trace,
        "noisy_frac": noisy_frac,
        "clean_frac": clean_frac,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_7_end_to_end_detection(announce, e2e):
    noisy, clean = e2e["noisy"], e2e["clean"]
    ok = noisy.f1 >= 0.9 and clean.f1 == 1.0 and e2e["elapsed"] < 600.0

    def stop(trace):
        return f"stop {trace.stop_reason} at gap {trace.gap:.3g}"

    announce(
        7,
        ok,
        (
            f"noisy F1 {noisy.f1:.3f} >= 0.9 (tp {noisy.tp}, fp {noisy.fp}, fn {noisy.fn}, "
            f"lam {e2e['noisy_frac']:g}*lam_max, {stop(e2e['noisy_trace'])}); "
            f"clean F1 {clean.f1:.3f} == 1.0 (lam {e2e['clean_frac']:g}*lam_max, "
            f"{stop(e2e['clean_trace'])}); {e2e['elapsed']:.0f} s < 600 s"
        ),
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_gradient_and_monotone_trace(announce, e2e):
    grid = SigmaGrid(boundaries=(0.0, 1.5, 3.0, 5.0), support_set=(1, 2, 3))
    bank = build_kernel_bank(grid)
    rng = np.random.default_rng(808)
    m = n = 16
    a = rng.random((m, n, 3))
    obs = Observation(
        data=rng.random((m, n)),
        weights=rng.uniform(0.2, 1.8, (m, n)),
        mask=np.ones((m, n)),
    )
    g = grad_data(a, obs, bank)

    def f(t):
        res = forward(t, bank) - obs.data
        return float(np.sum((obs.weights * res) ** 2))

    eps = 1e-6
    worst = 0.0
    for _ in range(30):
        i, j, k = rng.integers(0, m), rng.integers(0, n), rng.integers(0, 3)
        ap, am = a.copy(), a.copy()
        ap[i, j, k] += eps
        am[i, j, k] -= eps
        fd = (f(ap) - f(am)) / (2 * eps)
        worst = max(worst, abs(fd - g[i, j, k]) / max(abs(fd), 1e-12))

    trace = e2e["noisy_trace"]
    diffs = np.diff(trace.costs)
    monotone = bool((diffs <= 1e-10 * max(1.0, trace.costs[0])).all())
    ok = worst <= 1e-5 and monotone
    announce(
        8,
        ok,
        f"gradient vs central differences worst rel {worst:.3e} <= 1e-5; monotone cost trace: {monotone} ({trace.iterations} iterations)",
    )


# ---------------------------------------------------------------- criterion 9


_DET_CFG = """
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
seed = 777
"""


def test_criterion_9_determinism(announce, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_DET_CFG)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["synth", "--config", str(cfg_path), "--out", str(d)]) == 0
        assert (
            main(
                [
                    "solve",
                    "--config", str(cfg_path),
                    "--input", str(d / "sensed.idf"),
                    "--out", str(d),
                ]
            )
            == 0
        )
    names = ["psdr.idf", "clean.idf", "sensed.idf", "truth.csv", "recovered.idf", "trace.csv"]
    same = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in names)
    announce(9, same, f"synth+solve reruns byte-identical across {len(names)} output files: {same}")
