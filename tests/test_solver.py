"""Unit tests for the accelerated proximal-gradient solver.

Oracles: central finite differences for the gradient, a multi-start bounded
quasi-Newton minimization for the proximal map, long-run references and
first-order optimality conditions for the full iteration.
"""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from invdiff import (
    Observation,
    PsdrTensor,
    SigmaGrid,
    SolverConfig,
    SolverDivergenceError,
    adjoint,
    build_kernel_bank,
    cost,
    fista_solve,
    forward,
    group_norm_sum,
    lambda_max,
    op_norm_estimate,
    prox_group_nonneg,
)
from grad_oracle import grad_data

GRID = SigmaGrid(boundaries=(0.0, 1.5, 3.0, 5.0), support_set=(1, 2, 3))


@pytest.fixture(scope="module")
def bank():
    return build_kernel_bank(GRID)


def _instance(bank, m=24, n=24, seed=0, noise=0.02, n_spikes=4):
    """Small synthetic problem: a few spikes, rendered, plus noise."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m, n, GRID.n_bins))
    for _ in range(n_spikes):
        a[rng.integers(4, m - 4), rng.integers(4, n - 4), rng.integers(0, GRID.n_bins)] = (
            rng.uniform(1.0, 3.0)
        )
    img = forward(a, bank)
    img = img + noise * img.max() * rng.standard_normal((m, n)) if noise else img
    obs = Observation.plain(np.maximum(img, 0.0))
    return a, obs


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(lam=0.1)
        assert (cfg.max_iters, cfg.gap_tol, cfg.power_iters) == (500, 1e-3, 60)
        assert [f.name for f in fields(SolverConfig)] == [
            "lam", "max_iters", "gap_tol", "power_iters"
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="lam"):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(lam=0.1, max_iters=0)
        for bad in (-1e-3, np.inf, np.nan):
            with pytest.raises(ValueError, match="gap_tol"):
                SolverConfig(lam=0.1, gap_tol=bad)
        assert SolverConfig(lam=0.1, gap_tol=0.0).gap_tol == 0.0
        with pytest.raises(ValueError, match="power_iters"):
            SolverConfig(lam=0.1, power_iters=0)


class TestCost:
    def test_group_norm_hand_example(self):
        a = np.zeros((1, 1, 3))
        a[0, 0] = [3.0, 4.0, 7.0]  # third bin outside the support
        assert group_norm_sum(a, np.array([True, True, False])) == pytest.approx(5.0)

    def test_cost_composition(self, bank):
        _, obs = _instance(bank, seed=1)
        rng = np.random.default_rng(2)
        a = rng.random((24, 24, 3))
        cfg = SolverConfig(lam=0.7)
        total, dterm, rterm = cost(a, obs, bank, cfg)
        res = forward(a, bank) - obs.data
        assert dterm == pytest.approx(float(np.sum((obs.weights * res) ** 2)), rel=1e-13)
        assert rterm == pytest.approx(group_norm_sum(a, GRID.support_mask), rel=1e-13)
        assert total == pytest.approx(dterm + 0.7 * rterm, rel=1e-13)

    def test_negative_entries_cost_infinity(self, bank):
        _, obs = _instance(bank, seed=1)
        a = np.zeros((24, 24, 3))
        a[0, 0, 0] = -1e-9
        total, dterm, _ = cost(a, obs, bank, SolverConfig(lam=0.1))
        assert total == np.inf
        assert np.isfinite(dterm)

    def test_overflowing_misfit_is_inf_without_warning(self, bank):
        # a diverging iterate must reach SolverDivergenceError as a
        # non-finite objective, not as an overflow warning from the square
        _, obs = _instance(bank, seed=1)
        a = np.zeros((24, 24, 3))
        a[10, 10, 1] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total, dterm, _ = cost(a, obs, bank, SolverConfig(lam=0.1))
        assert total == np.inf
        assert dterm == np.inf


class TestGradient:
    def test_matches_central_differences(self, bank):
        rng = np.random.default_rng(7)
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
        assert worst <= 1e-5

    def test_zero_at_exact_fit(self, bank):
        rng = np.random.default_rng(8)
        a = rng.random((16, 16, 3))
        obs = Observation.plain(forward(a, bank))
        g = grad_data(a, obs, bank)
        assert np.abs(g).max() <= 1e-10 * max(1.0, np.abs(obs.data).max())

    def test_affine_in_observation(self, bank):
        # grad(a; d) = grad(a; 0) + grad(0; d) because the map is affine
        rng = np.random.default_rng(9)
        a = rng.random((12, 12, 3))
        d = rng.random((12, 12))
        w = rng.uniform(0.5, 1.5, (12, 12))
        mk = np.ones((12, 12))
        obs = Observation(data=d, weights=w, mask=mk)
        obs0 = Observation(data=np.zeros((12, 12)), weights=w, mask=mk)
        lhs = grad_data(a, obs, bank)
        rhs = grad_data(a, obs0, bank) + grad_data(np.zeros_like(a), obs, bank)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


SUP6 = np.array([True, True, False, True, True, False])


class TestProx:
    def test_negative_input_clipped(self):
        v = -np.ones((2, 2, 6))
        out = prox_group_nonneg(v, 0.5, SUP6)
        np.testing.assert_array_equal(out, 0.0)

    def test_zero_threshold_is_projection(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 4, 6))
        np.testing.assert_array_equal(
            prox_group_nonneg(v, 0.0, SUP6), np.maximum(v, 0.0)
        )

    def test_small_group_vanishes_unsupported_survives(self):
        v = np.zeros((1, 1, 6))
        v[0, 0] = [0.1, 0.1, 9.0, 0.1, 0.1, -3.0]
        out = prox_group_nonneg(v, 1.0, SUP6)  # supported norm 0.2 < 1
        np.testing.assert_array_equal(out[0, 0, [0, 1, 3, 4]], 0.0)
        assert out[0, 0, 2] == 9.0
        assert out[0, 0, 5] == 0.0

    def test_large_group_shrinks_radially(self):
        v = np.zeros((1, 1, 6))
        v[0, 0] = [3.0, 0.0, 1.0, 4.0, 0.0, 2.0]
        out = prox_group_nonneg(v, 2.5, SUP6)
        clipped = np.array([3.0, 0.0, 4.0, 0.0])  # supported entries after clip
        scale = 1.0 - 2.5 / 5.0
        np.testing.assert_allclose(out[0, 0, [0, 1, 3, 4]], clipped * scale, atol=1e-14)
        assert out[0, 0, 2] == 1.0
        assert out[0, 0, 5] == 2.0

    def test_matches_numerical_minimizer(self):
        from prox_oracle import prox_oracle

        rng = np.random.default_rng(17)
        for _ in range(40):
            v = rng.standard_normal(6) * 2.0
            thr = float(rng.uniform(0.0, 3.0))
            want = prox_oracle(v, thr, SUP6)
            got = prox_group_nonneg(v.reshape(1, 1, 6), thr, SUP6)[0, 0]
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            u = rng.standard_normal((3, 5, 4)) * 3
            v = rng.standard_normal((3, 5, 4)) * 3
            thr = float(rng.uniform(0.0, 2.0))
            mask = np.array([True, False, True, True])
            pu = prox_group_nonneg(u, thr, mask)
            pv = prox_group_nonneg(v, thr, mask)
            lhs = float(np.sum((pu - pv) ** 2))
            rhs = float(np.sum((pu - pv) * (u - v)))
            assert lhs <= rhs + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            prox_group_nonneg(np.zeros((1, 1, 6)), -1.0, SUP6)
        with pytest.raises(ValueError, match="M x N x K"):
            prox_group_nonneg(np.zeros((2, 6)), 1.0, SUP6)
        with pytest.raises(ValueError, match="support_mask length"):
            prox_group_nonneg(np.zeros((1, 1, 4)), 1.0, SUP6)


class TestLambdaMax:
    @staticmethod
    def _observation(bank, seed):
        # weighted, masked and with a few negative data pixels, so that the
        # positive part of the adjoint and the weights both matter
        _, plain = _instance(bank, seed=seed)
        rng = np.random.default_rng(seed)
        data = plain.data - 0.05 * plain.data.max() * (rng.uniform(size=plain.data.shape) < 0.1)
        weights = rng.uniform(0.5, 1.5, data.shape)
        mask = np.ones_like(data)
        mask[:, :3] = 0.0
        return Observation(data, weights, mask)

    def test_first_step_from_zero(self, bank):
        # above lambda_max one step from zero stays at zero, below it does not
        for seed in (0, 5):
            obs = self._observation(bank, seed)
            lam_max = lambda_max(obs, bank)
            g = 2.0 * adjoint(obs.data, obs, bank)
            assert lam_max == pytest.approx(
                np.sqrt((np.maximum(g, 0.0) ** 2).sum(axis=2)).max(), rel=1e-15
            )
            above, trace = fista_solve(obs, bank, SolverConfig(lam=lam_max * (1 + 1e-9), max_iters=1))
            assert not above.data.any()
            assert trace.stop_reason == "fixed_point"
            below, _ = fista_solve(obs, bank, SolverConfig(lam=0.9 * lam_max, max_iters=1))
            assert below.data.any()

    def test_supported_bins_only(self, bank):
        obs = self._observation(bank, 1)
        grid = SigmaGrid(boundaries=GRID.boundaries, support_set=(1, 2))
        narrow = build_kernel_bank(grid)
        g = 2.0 * adjoint(obs.data, obs, narrow)[:, :, :2]
        want = np.sqrt((np.maximum(g, 0.0) ** 2).sum(axis=2)).max()
        assert lambda_max(obs, narrow) == pytest.approx(want, rel=1e-15)


class TestRefusal:
    PARTIAL = SigmaGrid(boundaries=(0.0, 1.5, 3.0, 5.0), support_set=(1, 2))

    def _obs(self, zero_weight):
        w = np.ones((10, 10))
        if zero_weight:
            w[0, 0] = 0.0
        return Observation(data=np.zeros((10, 10)), weights=w, mask=np.ones((10, 10)))

    def test_refuses_unbounded_configuration(self):
        # lam == 0 plus an unweighted pixel plus an unpenalized bin leaves
        # directions the objective cannot see
        partial_bank = build_kernel_bank(self.PARTIAL)
        with pytest.raises(ValueError, match="no minimizer"):
            fista_solve(self._obs(True), partial_bank, SolverConfig(lam=0.0, max_iters=5))

    def test_each_relaxation_is_accepted(self, bank):
        partial_bank = build_kernel_bank(self.PARTIAL)
        sol, _ = fista_solve(
            self._obs(True), partial_bank, SolverConfig(lam=0.1, max_iters=5)
        )
        assert isinstance(sol, PsdrTensor)
        sol, _ = fista_solve(
            self._obs(False), partial_bank, SolverConfig(lam=0.0, max_iters=5)
        )
        assert isinstance(sol, PsdrTensor)
        assert bank.grid.support_mask.all()
        sol, _ = fista_solve(self._obs(True), bank, SolverConfig(lam=0.0, max_iters=5))
        assert isinstance(sol, PsdrTensor)


class TestFistaSolve:
    def test_zero_data_solves_instantly(self, bank):
        obs = Observation.plain(np.zeros((16, 16)))
        sol, trace = fista_solve(obs, bank, SolverConfig(lam=0.5, max_iters=50))
        assert trace.stop_reason == "fixed_point" and trace.converged
        assert trace.gap == 0.0
        assert trace.iterations == 1
        assert sol.data.max() == 0.0
        assert trace.costs[-1] == 0.0

    def test_monotone_costs_with_restart(self, bank):
        _, obs = _instance(bank, seed=4, noise=0.05)
        cfg = SolverConfig(lam=0.3, max_iters=120, gap_tol=0.0)
        _, trace = fista_solve(obs, bank, cfg)
        diffs = np.diff(trace.costs)
        assert (diffs <= 1e-10 * max(1.0, trace.costs[0])).all()
        assert trace.restarts.shape == trace.costs.shape
        assert trace.op_norm > 0 and trace.step > 0

    def test_step_from_certified_norm_bound(self, bank):
        # any power-iteration count bounds ||W A M|| from above, and the
        # step is the exact inverse Lipschitz constant of that bound
        from norm_oracle import dense_norm

        a, _ = _instance(bank, m=16, n=14, seed=18, noise=0.0, n_spikes=2)
        rng = np.random.default_rng(18)
        mask = np.ones((16, 14))
        mask[:, 10:] = 0.0
        obs = Observation(forward(a, bank), rng.uniform(0.1, 2.0, (16, 14)), mask)
        sigma = dense_norm(obs, bank)
        for power_iters in (1, 3):
            cfg = SolverConfig(lam=0.1, max_iters=5, power_iters=power_iters)
            _, trace = fista_solve(obs, bank, cfg)
            assert trace.op_norm >= sigma * (1 - 1e-12)
            assert trace.step == 1 / (2 * trace.op_norm**2)

    def test_close_to_long_run_reference(self, bank):
        _, obs = _instance(bank, m=32, n=32, seed=6, noise=0.03)
        short = SolverConfig(lam=0.5, max_iters=80, gap_tol=0.0)
        long = SolverConfig(lam=0.5, max_iters=800, gap_tol=0.0)
        _, tr_short = fista_solve(obs, bank, short)
        _, tr_long = fista_solve(obs, bank, long)
        ref = tr_long.costs[-1]
        assert abs(tr_short.costs[-1] - ref) <= 1e-4 * abs(ref)

    def test_first_order_optimality_unpenalized(self, bank):
        # at a minimum of the smooth term over the non-negative orthant the
        # gradient must be (almost) non-negative wherever the solution is 0
        _, obs = _instance(bank, m=16, n=16, seed=10, noise=0.0)
        cfg = SolverConfig(lam=0.0, max_iters=600, gap_tol=0.0)
        sol, _ = fista_solve(obs, bank, cfg)
        g = grad_data(sol.data, obs, bank)
        at_zero = sol.data == 0.0
        assert at_zero.any()
        floor = -1e-4 * max(np.abs(g).max(), 1e-30)
        assert g[at_zero].min() >= floor

    def test_noiseless_source_fits_to_high_accuracy(self):
        grid = SigmaGrid(boundaries=(0.0, 2.0, 4.0, 6.0, 8.0), support_set=(1, 2, 3, 4))
        bank4 = build_kernel_bank(grid)
        a = np.zeros((64, 64, 4))
        a[32, 32] = [5.0, 3.0, 2.0, 1.0]
        obs = Observation.plain(forward(a, bank4))
        cfg = SolverConfig(lam=1e-8, max_iters=500, gap_tol=0.0)
        _, trace = fista_solve(obs, bank4, cfg)
        assert trace.data_terms[-1] < 1e-4 * float(np.sum(obs.data**2))

    def test_explicit_op_norm_reproduces_run(self, bank):
        _, obs = _instance(bank, seed=12)
        cfg = SolverConfig(lam=0.4, max_iters=30)
        sol1, tr1 = fista_solve(obs, bank, cfg)
        sol2, tr2 = fista_solve(obs, bank, cfg, op_norm=tr1.op_norm)
        np.testing.assert_array_equal(sol1.data, sol2.data)
        np.testing.assert_array_equal(tr1.costs, tr2.costs)

    def test_cold_solve_calls_forward_once_per_prox_step(self, bank, monkeypatch):
        # a cold start takes forward(0) = 0 without calling forward; a warm
        # start from zeros calls it once more and reaches the same iterates
        import invdiff.solver

        calls = []

        def counted(a, b):
            calls.append(1)
            return forward(a, b)

        monkeypatch.setattr(invdiff.solver, "forward", counted)
        _, obs = _instance(bank, seed=12, noise=0.05)
        op_norm = op_norm_estimate(obs, bank, 20)
        cfg = SolverConfig(lam=0.3, max_iters=60, gap_tol=0.0)
        sol, trace = fista_solve(obs, bank, cfg, op_norm=op_norm)
        assert trace.restarts.any()
        assert len(calls) == trace.iterations + int(trace.restarts.sum())
        calls.clear()
        warm, warm_trace = fista_solve(
            obs, bank, cfg, init=np.zeros(sol.data.shape), op_norm=op_norm
        )
        assert len(calls) == trace.iterations + int(trace.restarts.sum()) + 1
        np.testing.assert_array_equal(warm.data, sol.data)
        np.testing.assert_array_equal(warm_trace.costs, trace.costs)

    def test_divergence_raises_with_trace(self, bank):
        _, obs = _instance(bank, seed=13)
        cfg = SolverConfig(lam=0.1, max_iters=400, gap_tol=0.0)
        with pytest.raises(SolverDivergenceError) as exc:
            fista_solve(obs, bank, cfg, op_norm=1e-100)  # absurdly long step
        assert exc.value.trace.costs.size >= 1
        assert exc.value.trace.stop_reason == "diverged"
        assert not exc.value.trace.converged

    def test_weights_beyond_kernel_reach_of_mask_solve_to_zero(self):
        # the operator is zero (radii 8 and 14, weights on columns 0-3, mask
        # on 40-63), so the bound is exactly 0 and the step stays finite:
        # the unpenalized solve stays at zero with a flat cost trace
        bank2 = build_kernel_bank(SigmaGrid(boundaries=(0.0, 1.0, 2.0), support_set=(1, 2)))
        weights, mask = np.zeros((64, 64)), np.zeros((64, 64))
        weights[:, :4] = 1.0
        mask[:, 40:] = 1.0
        data = np.random.default_rng(0).uniform(0.0, 1.0, (64, 64))
        obs = Observation(data=data, weights=weights, mask=mask)
        sol, trace = fista_solve(obs, bank2, SolverConfig(lam=0.0, max_iters=50))
        assert trace.op_norm == 0.0
        assert np.abs(sol.data).max() <= 1e-12
        assert (np.diff(trace.costs) <= 0.0).all()

    def test_init_validation(self, bank):
        _, obs = _instance(bank, seed=14)
        cfg = SolverConfig(lam=0.1, max_iters=5)
        with pytest.raises(ValueError, match="init shape"):
            fista_solve(obs, bank, cfg, init=np.zeros((5, 5, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            fista_solve(obs, bank, cfg, init=np.full((24, 24, 3), -1.0))
        with pytest.raises(ValueError, match="op_norm"):
            fista_solve(obs, bank, cfg, op_norm=-2.0)
        # mass on a masked-out pixel: its gradient is zero, so an unpenalized
        # bin would keep that mass for good
        mask = np.ones((24, 24))
        mask[:, :8] = 0.0
        holed = Observation(data=obs.data, weights=obs.weights, mask=mask)
        with pytest.raises(ValueError, match="init"):
            fista_solve(holed, bank, cfg, init=np.ones((24, 24, 3)))
        init = np.ones((24, 24, 3)) * mask[:, :, None]
        fista_solve(holed, bank, cfg, init=init)

    def test_warm_start_converges_immediately_at_solution(self, bank):
        _, obs = _instance(bank, seed=15, noise=0.02)
        cfg = SolverConfig(lam=0.6, max_iters=400, gap_tol=1e-9)
        sol, trace = fista_solve(obs, bank, cfg)
        if not trace.converged:
            pytest.skip("fixture did not converge; warm-start check not meaningful")
        cfg2 = SolverConfig(lam=0.6, max_iters=400, gap_tol=1e-9)
        _, trace2 = fista_solve(obs, bank, cfg2, init=sol.data, op_norm=trace.op_norm)
        assert trace2.iterations <= trace.iterations

    def test_trace_csv(self, bank, tmp_path):
        _, obs = _instance(bank, seed=16)
        # a NumPy scalar norm makes a NumPy scalar step, whose repr is not a number
        op_norm = np.float64(op_norm_estimate(obs, bank, 20))
        cfg = SolverConfig(lam=0.4, max_iters=12, gap_tol=0.0)
        _, trace = fista_solve(obs, bank, cfg, op_norm=op_norm)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,cost,data,reg,step,restart"
        assert len(lines) == trace.iterations + 1
        first = lines[1].split(",")
        assert float(first[1]) == trace.costs[0]
        assert float(first[4]) == trace.step


class TestStopRule:
    def test_gap_bounds_the_suboptimality_at_every_stop(self, bank):
        # weak duality: the dual value is a lower bound on the optimum, so
        # the reported gap can only overstate the distance to it
        _, obs = _instance(bank, seed=21, noise=0.05)
        for lam in (0.05, 0.3, 1.0):  # the last is above lambda_max
            _, ref = fista_solve(obs, bank, SolverConfig(lam=lam, max_iters=4000, gap_tol=1e-11))
            assert ref.converged and ref.gap <= 1e-11
            p_star = ref.costs[-1]
            for gap_tol, max_iters in ((1e-1, 500), (1e-3, 500), (1e-5, 500), (0.0, 3), (0.0, 30)):
                cfg = SolverConfig(lam=lam, max_iters=max_iters, gap_tol=gap_tol)
                _, trace = fista_solve(obs, bank, cfg, op_norm=ref.op_norm)
                p = trace.costs[-1]
                assert trace.gap >= 0.0
                assert trace.gap >= (p - p_star) / p - 1e-12
                if trace.stop_reason == "gap":
                    assert trace.gap <= gap_tol

    def test_gap_and_cap_stop_reasons(self, bank):
        # the fixed_point reason is test_zero_data_solves_instantly's
        _, obs = _instance(bank, seed=22, noise=0.0)
        _, trace = fista_solve(obs, bank, SolverConfig(lam=0.1, max_iters=500, gap_tol=1e-2))
        assert trace.stop_reason == "gap" and trace.converged
        assert 0.0 <= trace.gap <= 1e-2
        assert trace.iterations < 500

        _, trace = fista_solve(obs, bank, SolverConfig(lam=0.1, max_iters=5, gap_tol=1e-2))
        assert trace.stop_reason == "max_iters" and not trace.converged
        assert trace.iterations == 5 and trace.gap > 1e-2

    def test_no_certificate_without_a_feasible_dual_point(self, bank):
        # an unpenalized bin with a negative gradient, or lam == 0, leaves
        # only the zero dual point: the gap stays 1 and never stops a solve
        partial = build_kernel_bank(SigmaGrid(boundaries=(0.0, 1.5, 3.0, 5.0), support_set=(1, 2)))
        a = np.zeros((24, 24, 3))
        a[6, 7, 2], a[15, 12, 0], a[18, 18, 2] = 2.0, 1.5, 1.0
        img = forward(a, partial)
        rng = np.random.default_rng(3)
        obs = Observation.plain(img + 0.02 * img.max() * rng.standard_normal(img.shape))
        for solve_bank, lam in ((partial, 0.2), (bank, 0.0)):
            cfg = SolverConfig(lam=lam, max_iters=400, gap_tol=0.5)
            _, trace = fista_solve(obs, solve_bank, cfg)
            assert trace.stop_reason == "max_iters"
            assert trace.gap == 1.0
