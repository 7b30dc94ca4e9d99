"""Unit tests for the surface-binding transport physics.

Independent oracles: closed-form antiderivatives, scipy.integrate quadrature
of the density definitions, norms frozen from high-precision mpmath
quadrature, an explicit finite-difference transport solve, and brute-force
Riemann summation for the emission-window integrals.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats
from scipy.special import erfcx

from invdiff import (
    Observation,
    PhiTable,
    PhysicalParams,
    SigmaGrid,
    Source,
    build_kernel_bank,
    capture_fraction,
    forward,
    phi_general,
    phi_no_desorption,
    phi_norm_sq,
    sensor_model,
    synth_psdr,
    truncation_order,
)
from invdiff.physics import (
    _MAX_PANELS,
    _cached_phi,
    _first_generation_window,
    _gl_panels,
    _panel_count,
    _poisson_pmf_sum,
    _rest_sum,
    _window_rest_profile,
    conv_powers,
)
from pde_oracle import pde_oracle

D = 1e-10
T = 3600.0
PITCH = 1e-5


def params(kappa_a=1e-6, kappa_d=0.0, horizon=T):
    return PhysicalParams(
        kappa_a=kappa_a, kappa_d=kappa_d, diffusion=D, horizon=horizon, pixel_pitch=PITCH
    )


class TestPhysicalParams:
    def test_sigma_max_px(self):
        p = params()
        assert p.sigma_max_px == pytest.approx(np.sqrt(2 * D * T) / PITCH)

    def test_tau_of_sigma_roundtrip(self):
        p = params()
        sig = np.array([0.0, 2.0, 30.0, p.sigma_max_px])
        tau = p.tau_of_sigma_px(sig)
        np.testing.assert_allclose(np.sqrt(2 * D * tau) / PITCH, sig, atol=1e-12)
        assert tau[-1] == pytest.approx(T)

    def test_validation(self):
        with pytest.raises(ValueError):
            params(kappa_a=-1e-7)
        with pytest.raises(ValueError):
            params(kappa_d=-0.1)
        with pytest.raises(ValueError):
            PhysicalParams(1e-6, 0.0, 0.0, T, PITCH)
        with pytest.raises(ValueError):
            PhysicalParams(1e-6, 0.0, D, -1.0, PITCH)
        with pytest.raises(ValueError):
            PhysicalParams(1e-6, 0.0, D, T, 0.0)


class TestSource:
    def test_validation(self):
        Source(m=3, n=4, rate=1.0, t_start=0.0, t_stop=10.0)
        with pytest.raises(ValueError):
            Source(m=3.5, n=4, rate=1.0, t_start=0.0, t_stop=10.0)
        with pytest.raises(ValueError):
            Source(m=3, n=4, rate=-1.0, t_start=0.0, t_stop=10.0)
        with pytest.raises(ValueError):
            Source(m=3, n=4, rate=1.0, t_start=5.0, t_stop=4.0)
        with pytest.raises(ValueError):
            Source(m=3, n=4, rate=1.0, t_start=-1.0, t_stop=4.0)


class TestCaptureDensity:
    def test_integral_matches_closed_form(self):
        # integral of the capture-delay density over (0, t] has the closed
        # antiderivative capture_fraction; cross-check by direct quadrature
        for ka in (1e-7, 1e-6, 5e-6):
            p = params(kappa_a=ka)
            for t_hi in (10.0, 700.0, T):
                val, err = integrate.quad(
                    lambda t: phi_no_desorption(t, p), 0.0, t_hi,
                    points=[min(1e-3, t_hi / 2)], limit=400,
                )
                assert val == pytest.approx(capture_fraction(t_hi, p), abs=5e-9 + 5 * err)

    def test_total_mass_is_one(self):
        # the delay density integrates to 1 over (0, inf)
        p = params(kappa_a=2e-6)
        val, _ = integrate.quad(lambda t: phi_no_desorption(t, p), 0.0, 2e4, limit=400)
        tail = 1.0 - capture_fraction(2e4, p)
        assert val + tail == pytest.approx(1.0, abs=1e-7)

    def test_zero_capture_speed(self):
        p = params(kappa_a=0.0)
        assert phi_no_desorption(5.0, p) == 0.0
        assert capture_fraction(100.0, p) == 0.0
        assert phi_norm_sq(p, 0.1) == 0.0

    def test_monotone_decreasing_density(self):
        p = params()
        tau = np.geomspace(1e-3, T, 300)
        vals = phi_no_desorption(tau, p)
        assert (np.diff(vals) <= 0).all()
        assert (vals >= 0).all()

    def test_rejects_bad_tau(self):
        p = params()
        with pytest.raises(ValueError):
            phi_no_desorption(0.0, p)
        with pytest.raises(ValueError):
            phi_no_desorption(np.array([1.0, -2.0]), p)
        with pytest.raises(ValueError):
            capture_fraction(-1.0, p)

    def test_norm_sq_matches_direct_quadrature(self):
        p = params()
        floor = 0.3
        want, _ = integrate.quad(
            lambda t: phi_no_desorption(t, p) ** 2, floor, np.inf, limit=400
        )
        assert phi_norm_sq(p, floor) == pytest.approx(want, rel=1e-8)

    # (kappa_a, kappa_d, diffusion, horizon), floor horizon / 8192, and the
    # norm from a 60-digit mpmath quadrature of the density's square
    @pytest.mark.parametrize(
        "case, want, rel",
        [
            pytest.param((2e-7, 0.0, 1e-10, 3600.0), 6.6268596629957256e-4, 1e-12, id="default"),
            pytest.param((2e-6, 0.05, 1e-10, 60.0), 6.0102414769050087e-2, 1e-12, id="narrow192"),
            pytest.param((1e-9, 0.0, 1e-10, 3600.0), 5.0003518302859894e-8, 1e-12, id="weak"),
            pytest.param((1.0, 0.0, 1e-12, 1e-9), 1.2803378417702167e11, 1e-12, id="ka_one"),
            # x0 = 4.3e3: cancellation inside 1/sqrt(pi) - x * erfcx(x) bounds it
            pytest.param((0.1, 0.0, 4e-11, 600.0), 2.9668628511843963e-8, 1e-9, id="strong"),
        ],
    )
    def test_norm_sq_matches_reference(self, case, want, rel):
        ka, kd, dif, horizon = case
        p = PhysicalParams(ka, kd, dif, horizon, PITCH)
        assert phi_norm_sq(p, horizon / 8192) == pytest.approx(want, rel=rel, abs=0.0)

    def test_norm_sq_grows_as_floor_shrinks(self):
        # the density is not square integrable at zero, so the norm must
        # increase without bound as the floor tightens
        p = params()
        vals = [phi_norm_sq(p, f) for f in (1.0, 0.1, 0.01)]
        assert vals[0] < vals[1] < vals[2]


class TestTruncationOrder:
    def test_no_escape_is_single_generation(self):
        assert truncation_order(1e-6, params(kappa_d=0.0), 1.5) == 1

    def test_zero_norm_is_single_generation(self):
        assert truncation_order(1e-6, params(kappa_d=1e-3), 0.0) == 1

    def test_loose_eps_is_single_generation(self):
        # eps at or above the norm bound needs no tail at all
        assert truncation_order(0.5, params(kappa_d=1e-3), 0.2) == 1

    def test_more_escape_needs_more_generations(self):
        orders = [
            truncation_order(1e-6, params(kappa_d=lam / T), 0.02) for lam in (0.5, 5.0, 50.0)
        ]
        assert orders[0] < orders[1] < orders[2]

    def test_tighter_eps_needs_more_generations(self):
        p = params(kappa_d=5.0 / T)
        o1 = truncation_order(1e-3, p, 0.02)
        o2 = truncation_order(1e-7, p, 0.02)
        assert o2 >= o1

    def test_definition_holds(self):
        # smallest J >= 1 whose Poisson tail P(N > J) fits the budget
        # eps / norm_sq, including budgets below the float spacing at 1
        rng = np.random.default_rng(91)
        lams = rng.uniform(0.0, 200.0, 300)
        budgets = 10.0 ** rng.uniform(-20.0, 0.0, 300)
        cases = [(lam, 1e-6, 1e-6 / b) for lam, b in zip(lams, budgets)]
        cases += [(lam, 1e-6, 1e11) for lam in (0.0, 1e-6, 3.6, 40.0)]
        for lam, eps, norm_sq in cases:
            j = truncation_order(eps, params(kappa_d=lam / T), norm_sq)
            budget = eps / norm_sq
            assert j >= 1
            assert special.pdtrc(j, lam) <= budget, (lam, norm_sq, j)
            if j > 1:
                assert special.pdtrc(j - 1, lam) > budget, (lam, norm_sq, j)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            truncation_order(0.0, params(), 1.0)
        with pytest.raises(ValueError):
            truncation_order(1e-6, params(), -1.0)


class TestPhiTable:
    def test_no_escape_reduces_to_plain_density(self):
        # with kappa_d == 0 the table must hold the single-generation
        # midpoint samples bit-for-bit
        p = params()
        phi = phi_general(p, tau_steps=512)
        want = phi_no_desorption(phi.tau_grid, p)
        np.testing.assert_array_equal(phi.values, want)
        assert phi.n_generations == 1
        assert phi.j_max == 1

    def test_tiny_tail_budget_tabulates(self):
        # norm 1.3e11 makes eps / norm_sq smaller than the float spacing at 1
        for kd in (0.0, 1e-3):
            p = PhysicalParams(
                kappa_a=1.0, kappa_d=kd, diffusion=1e-12, horizon=1e-9, pixel_pitch=PITCH
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                phi = phi_general(p, 4096)
            assert phi.j_max == 1
            assert np.isfinite(phi.mass())

    def test_checks_and_copies_the_callers_arrays(self):
        grid, values, powers = np.array([0.5, 1.5]), np.ones(2), np.ones((1, 2))
        phi = PhiTable(params(), 1, grid, values, powers)
        for arr in (grid, values, powers):
            arr[..., 0] = 3.0
        assert (phi.tau_grid[0], phi.values[0], phi.powers[0, 0]) == (0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="values must be finite"):
            PhiTable(params(), 1, grid, np.array(["1", "1"]), powers)

    def test_zero_capture_is_zero_table(self):
        for kd in (1e-3, 0.0):
            phi = phi_general(params(kappa_a=0.0, kappa_d=kd), tau_steps=64)
            assert phi.values.max() == 0.0
            assert phi.mass() == 0.0
            srcs = [Source(2, 3, 1.0, 0.0, T), Source(5, 6, 2.0, 600.0, 1800.0)]
            assert not synth_psdr(srcs, GRID, phi, (8, 8)).data.any()

    def test_mass_no_escape_matches_closed_form(self):
        p = params(kappa_a=2e-6)
        phi = phi_general(p, tau_steps=1024)
        assert phi.mass() == pytest.approx(capture_fraction(T, p), rel=1e-10)

    def test_mass_decreases_with_escape(self):
        masses = [
            phi_general(params(kappa_d=kd), tau_steps=1024).mass()
            for kd in (0.0, 1.0 / T, 4.0 / T)
        ]
        assert masses[0] > masses[1] > masses[2]

    def test_mass_grid_convergence_trend(self):
        p = params(kappa_d=2.0 / T)
        masses = {n: phi_general(p, tau_steps=n).mass() for n in (1024, 2048, 4096, 8192)}
        errs = [abs(masses[n] - masses[8192]) for n in (1024, 2048, 4096)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / masses[8192] < 1e-2

    def test_second_generation_against_quadrature(self):
        # generation-2 density is the self-convolution of the capture-delay
        # density; oracle by direct quadrature at exact grid points
        # (symmetric split avoids the endpoint singularity)
        p = params(kappa_d=2.0 / T)
        phi = phi_general(p, tau_steps=2048)
        assert phi.n_generations >= 2
        for tau_near in (100.0, 900.0, 2500.0):
            idx = int(np.argmin(np.abs(phi.tau_grid - tau_near)))
            tau_q = float(phi.tau_grid[idx])
            want, _ = integrate.quad(
                lambda u: phi_no_desorption(u, p) * phi_no_desorption(tau_q - u, p),
                0.0, tau_q / 2.0, points=[min(1.0, tau_q / 4)], limit=400,
            )
            want *= 2.0
            assert phi.powers[1, idx] == pytest.approx(want, rel=3e-3)

    def test_values_are_poisson_mixture_of_generations(self):
        # the table value at each cell is the generation densities weighted
        # by the count distribution of completed release cycles in the
        # remaining bound time; oracle via scipy.stats

        p = params(kappa_d=3.0 / T)
        phi = phi_general(p, tau_steps=512)
        lam = p.kappa_d * (T - phi.tau_grid)
        want = np.zeros_like(phi.tau_grid)
        for j in range(1, phi.n_generations + 1):
            want += phi.powers[j - 1] * stats.poisson.pmf(j - 1, lam)
        np.testing.assert_allclose(phi.values, want, rtol=1e-10, atol=1e-300)

    def test_step_property(self):
        phi = phi_general(params(), tau_steps=128)
        assert phi.step == pytest.approx(T / 128)
        np.testing.assert_allclose(phi.tau_grid[0], phi.step / 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            phi_general(params(), tau_steps=8)
        with pytest.raises(ValueError):
            phi_general(params(), tau_steps=128, eps=0.0)


class TestPhiCache:
    # kappa_a 1.5e-6 and 320 cells are used by no other test, so the base
    # table is built here; kappa_d * H = 3.6 gives it eleven generations
    BASE = dict(
        params=params(kappa_a=1.5e-6, kappa_d=1e-3), tau_steps=320, eps=1e-6
    )

    def test_equal_inputs_share_one_table(self):
        phi = phi_general(**self.BASE)
        p = self.BASE["params"]
        as_np = PhysicalParams(
            *(np.float64(getattr(p, f.name)) for f in dataclasses.fields(p))
        )
        assert phi_general(p, 320, 1e-6) is phi
        assert phi_general(p, 320) is phi
        assert phi_general(tau_steps=320, params=p) is phi
        assert phi_general(as_np, np.int64(320), np.float64(1e-6)) is phi
        assert phi.rest_tables is phi_general(p, 320).rest_tables

    def test_second_call_allocates_almost_nothing(self):
        phi_general(**self.BASE).rest_tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            phi_general(**self.BASE).rest_tables
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4096

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kappa_a", 2e-6),
            ("kappa_d", 2e-3),
            ("diffusion", 2e-10),
            ("horizon", 1800.0),
            ("pixel_pitch", 2e-5),
            ("tau_steps", 256),
            ("eps", 1e-3),
        ],
    )
    def test_each_key_field_gives_its_own_table(self, field, value):
        base = phi_general(**self.BASE)
        args = dict(self.BASE)
        if field in ("tau_steps", "eps"):
            args[field] = value
        else:
            args["params"] = dataclasses.replace(args["params"], **{field: value})
        phi = phi_general(**args)
        assert phi is not base
        assert phi.params == args["params"]
        assert phi.tau_grid.size == args["tau_steps"]
        cold = _cached_phi.__wrapped__(args["params"], args["tau_steps"], args["eps"])
        assert phi.j_max == cold.j_max
        for name in ("tau_grid", "values", "powers"):
            np.testing.assert_array_equal(getattr(phi, name), getattr(cold, name))
        if field != "pixel_pitch":
            # the pitch only converts scales to pixels
            assert not np.array_equal(phi.values, base.values)
        assert phi_general(**self.BASE) is not phi

    def test_shared_arrays_are_read_only(self):
        phi = phi_general(**self.BASE)
        arrays = (phi.tau_grid, phi.values, phi.powers, phi.rest_tables)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            phi.rest_tables[0, 0] = 0.0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(tau_steps=8), "tau_steps"),
            (dict(eps=0.0), "eps"),
            (dict(eps=np.nan), "eps"),
        ],
    )
    def test_invalid_inputs_raise_and_are_not_cached(self, kwargs, match):
        _cached_phi.cache_clear()
        args = dict(self.BASE, **kwargs)
        with pytest.raises(ValueError, match=match):
            phi_general(**args)
        assert _cached_phi.cache_info().currsize == 0


class TestPdeOracle:
    def test_mass_conserved(self):
        res = pde_oracle(params(), n_z=400)
        np.testing.assert_allclose(res.mass, 1.0, atol=2e-6)

    def test_bound_fraction_matches_closed_form_no_escape(self):
        # independent finite-difference transport solve vs the closed-form
        # capture fraction; agreement limited by the O(dz) injection offset
        p = params()
        res = pde_oracle(p, n_z=900)
        assert res.bound_final == pytest.approx(capture_fraction(T, p), rel=1.5e-2)

    def test_refinement_improves_agreement(self):
        p = params()
        truth = capture_fraction(T, p)
        err = [
            abs(pde_oracle(p, n_z=nz).bound_final - truth) / truth for nz in (300, 1200)
        ]
        assert err[1] < err[0]

    def test_bound_monotone_without_escape(self):
        res = pde_oracle(params(), n_z=300)
        assert (np.diff(res.bound) >= -1e-12).all()

    def test_escape_reduces_bound_fraction(self):
        p0, p1 = params(), params(kappa_d=2.0 / T)
        b0 = pde_oracle(p0, n_z=400).bound_final
        b1 = pde_oracle(p1, n_z=400).bound_final
        assert b1 < b0

    def test_rejects_wall_inside_diffusion_range(self):
        with pytest.raises(ValueError, match="diffusion range"):
            pde_oracle(params(), z_max=1e-5)

    def test_rejects_unstable_stepping(self):
        with pytest.raises(ValueError, match="unstable"):
            pde_oracle(params(), n_z=400, n_t=10)


class TestGammaincRows:
    # With one density per generation, f_j = 1 for a single j, the cumulative
    # rows are F_k = [k >= j] and the rest sum is S(x) = P(j, x). The pmf
    # orders come from exp(-x) by the recurrence, seeded afresh at
    # k = 8, 16, ... where x > k; scipy's series for gammainc forms
    # x^j e^-x / j! in log space, with a relative error of a few
    # |j log x| * eps. On this grid the two differ by up to 8.7e-14
    # (j = 38, x = 1.8e-3). Toward x = 1e-6 scipy's own error, measured
    # against a 40-digit reference, reaches 1.6e-13, so the grid starts at
    # 1e-3.
    X = np.concatenate(([0.0, 1.0, 50.0, 1e3], np.geomspace(1e-3, 1e4, 300)))

    @pytest.mark.parametrize("j_max", [1, 2, 3, 12, 40])
    def test_matches_scipy_gammainc(self, j_max):
        cum = np.cumsum(np.eye(j_max - 1)[:, :, None], axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _rest_sum(cum, self.X)
        assert got.shape == (j_max - 1, self.X.size)
        for j, row in zip(range(2, j_max + 1), got):
            want = special.gammainc(j, self.X)
            big = want > 1e-290
            np.testing.assert_allclose(row[big], want[big], rtol=1e-13, atol=0.0, err_msg=f"{j=}")
            assert np.abs(row[~big]).max(initial=0.0) <= 1e-289
        assert (got[:, self.X == 0.0] == 0.0).all()


class TestWindowRestProfile:
    @staticmethod
    def _per_generation(phi, t0, t1, n_cells):
        # the previous formulation as the reference: one window factor per
        # generation, (P(j, x_hi) - P(j, x_lo)) / kappa_d clipped at 0 on
        # every cell, weighted by that generation's density and summed. Where
        # P(j, x_lo) > 1/2 the factor is taken as the equal
        # Q(j, x_lo) - Q(j, x_hi) of scipy's gammaincc: at kappa_d * H = 1000
        # the difference of two P close to 1 is off by up to half its value
        # on the leading cells of the (1200, 1800) window, against a
        # 50-digit mpmath sum
        p = phi.params
        tau = phi.tau_grid[:n_cells]
        x_hi = np.maximum(p.kappa_d * ((T - t0) - tau), 0.0)
        x_lo = np.minimum(np.maximum(p.kappa_d * ((T - t1) - tau), 0.0), x_hi)
        js = np.arange(2, phi.n_generations + 1, dtype=np.float64)[:, None]
        p_lo = special.gammainc(js, x_lo)
        win = np.where(
            p_lo > 0.5,
            special.gammaincc(js, x_lo) - special.gammaincc(js, x_hi),
            special.gammainc(js, x_hi) - p_lo,
        ) / p.kappa_d
        return np.einsum("jn,jn->n", phi.powers[1:, :n_cells], np.maximum(win, 0.0))

    @pytest.mark.parametrize(
        "kd_h, tau_steps", [(3.6, 4096), (50.0, 1024), (1000.0, 32)]
    )
    def test_matches_per_generation_sum(self, kd_h, tau_steps):
        # kappa_d * H = 3.6 is the dataset-generation physics; at 1000 the
        # small grid has x > 745 on most cells, where exp(-x) underflows.
        # Windows ending at H have an empty low end; the ones that stop
        # early take the window-increment form on their leading cells, where
        # x_lo > 0. Errors against the reference are at most 2.1e-15 of the
        # peak.
        p = params(kappa_d=kd_h / T)
        phi = phi_general(p, tau_steps=tau_steps)
        assert phi.n_generations > 1
        n_all = phi.tau_grid.size
        windows = [(0.0, T), (300.0, T), (300.0, 2900.0), (1200.0, 1800.0), (3500.0, 3580.0)]
        increment_cells = 0
        for t0, t1 in windows:
            x_lo = p.kappa_d * ((T - t1) - phi.tau_grid)
            increment_cells += int(np.count_nonzero(x_lo > 0.0))
            want = self._per_generation(phi, t0, t1, n_all)
            for n_cells in (n_all, n_all // 3):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = _window_rest_profile(phi, t0, t1, n_cells)
                np.testing.assert_allclose(
                    got, want[:n_cells], rtol=0.0, atol=1e-14 * want.max(),
                    err_msg=f"{kd_h=} {t0=} {t1=} {n_cells=}",
                )
        assert increment_cells > 0
        x_hi = p.kappa_d * (T - phi.tau_grid)
        assert (x_hi > 745.0).any() == (kd_h > 745.0)

    @pytest.mark.parametrize(
        "kd_h, tau_steps, window, cells, want",
        [
            pytest.param(3.6, 4096, (2000.0, 2010.0), [0, 1, 273, 728, 1183, 1638, 1819], [
                0.037943213045535586, 0.033376083540938066, 0.004979932707025235,
                0.0016168124296428324, 0.0006070653349886523, 0.00012668688018515747,
                2.5733371029369606e-08,
            ], id="3.6-10s"),
            pytest.param(3.6, 4096, (1200.0, 1800.0), [0, 25, 409, 1092, 1775, 2457, 2730], [
                1.8554046964000757, 0.9396749224792765, 0.22986210497029014,
                0.06820033735749725, 0.020873017303766835, 0.0013602506530014265,
                4.5896516877651174e-10,
            ], id="3.6-600s"),
            pytest.param(50.0, 1024, (2000.0, 2010.0), [68, 182, 295, 316, 346, 409, 454], [
                1.1648136136289173e-05, 0.0003425998380286652, 0.0012503031835265524,
                0.0013732860202329419, 0.0014459581031829281, 0.001026458934224567,
                2.382278750994189e-06,
            ], id="50-10s"),
            pytest.param(50.0, 1024, (1200.0, 1800.0), [102, 273, 386, 443, 459, 520, 614, 682], [
                0.0002071306040056081, 0.015530515415557796, 0.048402796966937736,
                0.0598284366470762, 0.060549951829346874, 0.047367504144071135,
                0.011776319802207164, 1.0186211220790917e-07,
            ], id="50-600s"),
        ],
    )
    def test_short_window_against_reference(self, kd_h, tau_steps, window, cells, want):
        # want: the sum over j = 2..J of f_j * (P(j, x_hi) - P(j, x_lo)) /
        # kappa_d with the table's own densities f_j, each P difference an
        # mpmath integral over [x_lo, x_hi] at 50 digits (80 digits agree).
        # The cells hold each profile's peak, its last cell with free time
        # (past the kink H - t_stop), cells spread between, and the cell
        # where a difference of window-end sums S(x_hi) - S(x_lo) was
        # furthest off: 6.5e-14 and 2.8e-14 of the peak on the 10-s
        # window. The increment form is at most 9.0e-16 off on every cell.
        phi = phi_general(params(kappa_d=kd_h / T), tau_steps=tau_steps)
        got = _window_rest_profile(phi, *window, tau_steps)[cells]
        want = np.array(want)
        assert np.abs(got - want).max() <= 1e-15 * want.max()

    def test_tables(self):
        p = params(kappa_d=50.0 / T)
        phi = phi_general(p, tau_steps=256)
        cumulative = phi.rest_tables
        gens = phi.powers[1:]
        j_max = phi.n_generations
        assert cumulative.shape == (j_max - 1, 256)
        for k in range(2, j_max + 1):
            np.testing.assert_allclose(cumulative[k - 2], gens[: k - 1].sum(axis=0), rtol=1e-14)


class TestGlPanels:
    LO = np.array([[0.0, 1.5, 2.25, 7.0], [0.5, 1.75, 3.0, 7.0]])
    HI = np.array([[0.5, 1.75, 3.0, 9.5], [1.5, 2.25, 7.0, 12.0]])

    @pytest.mark.parametrize("n_pan", [1, 4, 5, 20])
    def test_array_ends_match_scalar_calls(self, n_pan):
        u, w = _gl_panels(self.LO, self.HI, n_pan)
        assert u.shape == w.shape == (2, 4, n_pan, 24)
        for i in range(2):
            for k in range(4):
                us, ws = _gl_panels(self.LO[i, k], self.HI[i, k], n_pan)
                np.testing.assert_array_equal(u[i, k], us)
                np.testing.assert_array_equal(w[i, k], ws)

    @pytest.mark.parametrize("n_pan", [4, 5])
    def test_zero_width_interval_has_zero_weights(self, n_pan):
        # one zero-width interval switches numpy's linspace to (i / n) * width
        # for the whole array, which is the scalar call's i * (width / n)
        # exactly only when n is a power of two; otherwise the panel edges
        # differ by an ulp
        hi = self.HI.copy()
        hi[1, 2] = self.LO[1, 2]
        u, w = _gl_panels(self.LO, hi, n_pan)
        assert (w[1, 2] == 0.0).all()
        assert (u[1, 2] == self.LO[1, 2]).all()
        for i, k in ((0, 0), (0, 3), (1, 1)):
            us, ws = _gl_panels(self.LO[i, k], hi[i, k], n_pan)
            if n_pan == 4:
                np.testing.assert_array_equal(u[i, k], us)
                np.testing.assert_array_equal(w[i, k], ws)
            np.testing.assert_allclose(u[i, k], us, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(w[i, k], ws, rtol=1e-14, atol=0.0)


GRID = SigmaGrid(boundaries=(0.0, 2.0, 8.0, 20.0, 84.85281374238569), support_set=(1, 2, 3, 4))


def first_generation_quad(p, tau_bounds, t0, t1):
    """Per-band first-generation window integrals by quadrature in u = sqrt(tau)
    of phi_1(u^2) * 2u * W(u^2), where W(tau) integrates the no-escape
    probability exp(-kappa_d * (T - t - tau)) over the emission times t in
    [t0, min(t1, T - tau)]."""
    kd = p.kappa_d

    def window(tau):
        t_hi = min(t1, T - tau)
        if t_hi <= t0:
            return 0.0
        if kd == 0.0:
            return t_hi - t0
        return (np.exp(-kd * (T - tau - t_hi)) - np.exp(-kd * (T - tau - t0))) / kd

    def integrand(u):
        return phi_no_desorption(u * u, p) * 2.0 * u * window(u * u)

    u_bounds = np.sqrt(tau_bounds)
    kinks = np.sqrt([T - t1, T - t0])
    return np.array([
        integrate.quad(
            integrand, lo, hi, limit=200, epsabs=0.0, epsrel=1e-13,
            points=[k for k in kinks if lo < k < hi] or None,
        )[0]
        for lo, hi in zip(u_bounds[:-1], u_bounds[1:])
    ])


def _window_panels(p, tau_bounds, t0, t1):
    """The panel count _first_generation_window gives one emitter: the
    largest over its band parts either side of the kink."""
    ends = np.clip(tau_bounds, 0.0, max(T - t0, 0.0))
    split = np.clip(T - t1, ends[:-1], ends[1:])
    lo = np.concatenate((ends[:-1], split))
    hi = np.concatenate((split, ends[1:]))
    return int(_panel_count(p.kappa_d, np.sqrt(lo), np.sqrt(hi)).max())


class TestFirstGenerationBatch:
    GRID = SigmaGrid(
        boundaries=(0.0, 2.0, 15.0, 20.0, 30.0, 40.0, 50.0, 70.0),
        support_set=(1, 2, 3, 4, 5, 6, 7),
    )

    def test_rows_equal_single_emitter_calls(self):
        # at kappa_d * H = 200 these windows need 20, 20, 14, 7, 5 and 4
        # panels; emitters that share a count are one broadcast, and each
        # row is the single-emitter call bit for bit
        p = params(kappa_d=200.0 / T)
        phi = phi_general(p, tau_steps=256)
        tau_bounds = np.asarray(p.tau_of_sigma_px(self.GRID.boundaries))
        windows = [
            (0.0, 3000.0), (500.0, 2500.0), (1500.0, 3300.0), (2000.0, 3590.0),
            (2950.0, 3400.0), (3500.0, 3590.0), (0.0, 3000.0), (T, T), (1500.0, 3300.0),
        ]
        counts = {_window_panels(p, tau_bounds, t0, t1) for t0, t1 in windows}
        assert 4 in counts and max(counts) > 4 and len(counts) > 3
        t0s, t1s = np.array(windows).T
        batch = _first_generation_window(phi, tau_bounds, t0s, t1s)
        assert batch.shape == (len(windows), self.GRID.n_bins)
        for row, (t0, t1) in zip(batch, windows):
            np.testing.assert_array_equal(row, _first_generation_window(phi, tau_bounds, t0, t1))
        empty = _first_generation_window(phi, tau_bounds, np.empty(0), np.empty(0))
        assert empty.shape == (0, self.GRID.n_bins)

    def test_strong_escape_batch_memory_is_bounded(self):
        # 40 emitters at kappa_d * H = 2000 need over 4 * _MAX_PANELS
        # panels in all; groups of at most _MAX_PANELS emitter panels keep
        # the peak of the batch within the memory a single emitter of
        # _MAX_PANELS panels would take, scaled from a measured single call
        p = params(kappa_d=2000.0 / T)
        phi = phi_general(p, tau_steps=256)
        tau_bounds = np.asarray(p.tau_of_sigma_px(self.GRID.boundaries))
        rng = np.random.default_rng(3)
        t0s = rng.uniform(0.0, 3000.0, 40)
        t1s = np.minimum(t0s + rng.uniform(10.0, 3000.0, 40), T)
        counts = [_window_panels(p, tau_bounds, a, b) for a, b in zip(t0s, t1s)]
        assert sum(counts) > 4 * _MAX_PANELS
        tracemalloc.start()
        try:
            _first_generation_window(phi, tau_bounds, 0.0, T)
            single = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _first_generation_window(phi, tau_bounds, t0s, t1s)
            batch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_panel = single / _window_panels(p, tau_bounds, 0.0, T)
        assert batch <= 1.25 * _MAX_PANELS * per_panel


class TestSynthPsdr:
    def test_total_mass_no_escape(self):
        # summing bin values times sqrt(bin width) over a grid that covers
        # the full physical scale range recovers the total expected bound
        # count; oracle: quadrature of the closed-form capture fraction
        # over the emission window
        p = params()
        phi = phi_general(p, tau_steps=4096)
        src = Source(m=5, n=7, rate=2.5, t_start=0.0, t_stop=T)
        psdr = synth_psdr([src], GRID, phi, (16, 16))
        total = float(psdr.data[5, 7] @ np.sqrt(GRID.widths))
        want = src.rate * integrate.quad(
            lambda t: capture_fraction(T - t, p), 0.0, T, limit=200
        )[0]
        assert total == pytest.approx(want, rel=1e-6)

    def test_total_mass_with_escape_riemann_oracle(self):
        # independent brute-force double Riemann sum over emission time and
        # free-motion time with the escape-count weighting applied
        # explicitly.  Generation-1 cell masses come from the closed-form
        # antiderivative (midpoint sampling would miss the inverse-sqrt
        # rise at zero); higher generations are smooth enough for the
        # tabulated samples.
        from scipy.special import gammaln

        p = params(kappa_d=2.0 / T)
        phi = phi_general(p, tau_steps=4096)
        src = Source(m=2, n=3, rate=1.0, t_start=400.0, t_stop=2600.0)
        psdr = synth_psdr([src], GRID, phi, (8, 8))
        total = float(psdr.data[2, 3] @ np.sqrt(GRID.widths))

        t_grid = np.linspace(src.t_start, src.t_stop, 6000)
        dt = t_grid[1] - t_grid[0]
        tau = phi.tau_grid
        edges = np.arange(tau.size + 1) * phi.step
        gen1_cell_mass = np.diff([capture_fraction(e, p) if e > 0 else 0.0 for e in edges])
        acc = 0.0
        for j in range(1, phi.n_generations + 1):
            rem = T - t_grid[:, None] - tau[None, :]
            lam = p.kappa_d * np.maximum(rem, 0.0)
            ok = rem >= 0.0
            with np.errstate(divide="ignore"):
                logp = (j - 1) * np.log(np.where(lam > 0, lam, 1.0)) - lam - gammaln(j)
            pois = np.where(lam > 0, np.exp(logp), 1.0 if j == 1 else 0.0)
            cell_mass = gen1_cell_mass if j == 1 else phi.powers[j - 1] * phi.step
            acc += float(np.sum(np.where(ok, cell_mass[None, :] * pois, 0.0))) * dt
        assert total == pytest.approx(acc, rel=2e-3)

    def test_additive_over_sources_and_linear_in_rate(self):
        p = params()
        phi = phi_general(p, tau_steps=512)
        s1 = Source(m=1, n=1, rate=1.0, t_start=0.0, t_stop=T)
        s2 = Source(m=6, n=2, rate=3.0, t_start=100.0, t_stop=800.0)
        both = synth_psdr([s1, s2], GRID, phi, (8, 8))
        one = synth_psdr([s1], GRID, phi, (8, 8))
        two = synth_psdr([s2], GRID, phi, (8, 8))
        np.testing.assert_allclose(both.data, one.data + two.data, atol=1e-14)
        s2_double = Source(m=6, n=2, rate=6.0, t_start=100.0, t_stop=800.0)
        np.testing.assert_allclose(
            synth_psdr([s2_double], GRID, phi, (8, 8)).data, 2.0 * two.data, rtol=1e-13
        )
        same_twice = synth_psdr([s1, s1], GRID, phi, (8, 8))
        np.testing.assert_allclose(same_twice.data, 2.0 * one.data, rtol=1e-13)

    def test_window_split_is_additive(self):
        # emitting over [0, T] equals the sum of emitting over [0, c] and
        # [c, T] at the same rate
        p = params(kappa_d=1.0 / T)
        phi = phi_general(p, tau_steps=1024)
        cut = 1234.5
        whole = synth_psdr([Source(0, 0, 1.0, 0.0, T)], GRID, phi, (4, 4))
        first = synth_psdr([Source(0, 0, 1.0, 0.0, cut)], GRID, phi, (4, 4))
        second = synth_psdr([Source(0, 0, 1.0, cut, T)], GRID, phi, (4, 4))
        np.testing.assert_allclose(
            whole.data, first.data + second.data, rtol=1e-10, atol=1e-13
        )

    def test_per_band_first_generation_oracle(self):
        # every band separately against first_generation_quad. The windows
        # put T - t_stop inside a band and above the top band, and
        # T - t_start inside a band.
        grid = SigmaGrid(boundaries=(0.0, 2.0, 8.0, 20.0, 40.0, 60.0), support_set=(1, 2))
        windows = [
            (0.0, T), (300.0, 2900.0), (3000.0, 3590.0), (50.0, 700.0),
            (T - 3.0, T), (T - 20.0, T - 10.0), (0.0, 5.0),
        ]
        for kd in (0.0, 0.1 / T):
            p = params(kappa_d=kd)
            phi = phi_general(p, tau_steps=1024)
            assert phi.n_generations == 1
            for t0, t1 in windows:
                want = first_generation_quad(p, p.tau_of_sigma_px(grid.boundaries), t0, t1)
                psdr = synth_psdr([Source(0, 0, 1.0, t0, t1)], grid, phi, (1, 1))
                got = psdr.data[0, 0] * np.sqrt(grid.widths)
                np.testing.assert_allclose(
                    got, want, rtol=0.0, atol=1e-10 * want.max(), err_msg=f"{kd=} {t0=} {t1=}"
                )

    @pytest.mark.parametrize("kd_h", [50.0, 200.0, 2000.0])
    def test_first_generation_window_oracle_strong_escape(self, kd_h):
        # _first_generation_window on the default 7-bin grid (tau_K = 2450 s)
        # against first_generation_quad, as in the per-band oracle. The
        # windows put the kink H - t_stop inside a band, and H - t_start
        # above tau_K, inside the top band and inside a middle band. The
        # shared panel count per window is 5, 5, 4, 4, 4 at kappa_d * H = 50
        # and 20, 20, 14, 7, 5 at 200 (the floor is 4); the errors are below
        # 5e-15 of the peak. At 2000 a 4-panel floor alone would be 3.8e-10
        # off.
        grid = SigmaGrid(
            boundaries=(0.0, 2.0, 15.0, 20.0, 30.0, 40.0, 50.0, 70.0),
            support_set=(1, 2, 3, 4, 5, 6, 7),
        )
        p = params(kappa_d=kd_h / T)
        phi = phi_general(p, tau_steps=256)
        tau_bounds = np.asarray(p.tau_of_sigma_px(grid.boundaries))
        windows = [(0.0, 3000.0), (500.0, 2500.0), (1500.0, 3300.0), (2000.0, 3590.0), (2950.0, 3400.0)]
        for t0, t1 in windows:
            want = first_generation_quad(p, tau_bounds, t0, t1)
            got = _first_generation_window(phi, tau_bounds, t0, t1)
            np.testing.assert_allclose(
                got, want, rtol=0.0, atol=1e-13 * want.max(), err_msg=f"{kd_h=} {t0=} {t1=}"
            )

    def test_first_generation_window_matches_cut_list_loop(self):
        # the previous layout as the reference: one sorted cut list of the
        # clipped band edges and the kink, one quadrature per interval with
        # its own panel count, summed into bands. With every count at the
        # floor of 4 (kappa_d * H <= 3.6 here) the nodes, weights and sums
        # are the same and so are the results; at 50 the shared count of 5
        # only rounds differently
        grid = SigmaGrid(boundaries=(0.0, 2.0, 15.0, 20.0, 30.0, 40.0, 50.0, 70.0), support_set=(1,))
        windows = [(0.0, T), (0.0, 3000.0), (1500.0, 3300.0), (2000.0, 3590.0), (T, T)]
        for kd_h, atol in ((0.0, 0.0), (1.0, 0.0), (3.6, 0.0), (50.0, 1e-15)):
            p = params(kappa_d=kd_h / T)
            phi = phi_general(p, tau_steps=256)
            tau_bounds = np.asarray(p.tau_of_sigma_px(grid.boundaries))
            a_coef = p.kappa_a / np.sqrt(np.pi * D)
            b_coef = p.kappa_a ** 2 / D
            for t0, t1 in windows:
                hi, kink = T - t0, T - t1
                cuts = np.unique(np.clip(np.append(tau_bounds, kink), 0.0, min(hi, tau_bounds[-1])))
                want = np.zeros(grid.n_bins)
                for lo_c, hi_c in zip(cuts[:-1], cuts[1:]):
                    u_lo, u_hi = np.sqrt(lo_c), np.sqrt(hi_c)
                    n_pan = int(np.clip(np.ceil(p.kappa_d * u_hi * (u_hi - u_lo) / 2.0), 4, 512))
                    u, w = _gl_panels(u_lo, u_hi, n_pan)
                    tau = u * u
                    span = np.maximum(hi - np.maximum(tau, kink), 0.0)
                    factor = (
                        np.exp(-p.kappa_d * np.maximum(kink - tau, 0.0))
                        * span * special.exprel(-p.kappa_d * span)
                    )
                    dens = 2.0 * a_coef - 2.0 * b_coef * u * special.erfcx(p.kappa_a * u / np.sqrt(D))
                    band = np.searchsorted(tau_bounds, lo_c, side="right") - 1
                    want[band] += np.sum(w * np.maximum(dens, 0.0) * factor)
                got = _first_generation_window(phi, tau_bounds, t0, t1)
                np.testing.assert_allclose(
                    got, want, rtol=0.0, atol=atol * want.max(initial=0.0),
                    err_msg=f"{kd_h=} {t0=} {t1=}",
                )

    def test_matches_full_grid_reference(self):
        # the parent formula: gammainc per generation on every tabulation
        # cell, weighted by the full band-by-cell overlap, plus the
        # first-generation quadrature. The top band edge tau_K = 800 lies
        # below the horizon; the windows put H - t_start above tau_K, inside
        # a band, inside the first cell (one cell kept, no free time left)
        # and past the horizon by round-off (no cell kept).
        grid = SigmaGrid(boundaries=(0.0, 2.0, 8.0, 20.0, 40.0), support_set=(1, 2, 3, 4))
        for kd_h in (1.0, 3.6, 20.0):
            p = params(kappa_d=kd_h / T)
            phi = phi_general(p, tau_steps=1024)
            tau_bounds = np.asarray(p.tau_of_sigma_px(grid.boundaries))
            assert phi.n_generations > 1 and tau_bounds[-1] < T
            edges = np.arange(phi.tau_grid.size + 1) * phi.step
            overlap = np.clip(
                np.minimum(edges[1:], tau_bounds[1:, None])
                - np.maximum(edges[:-1], tau_bounds[:-1, None]), 0.0, None
            )
            js = np.arange(2, phi.n_generations + 1, dtype=np.float64)[:, None]
            windows = [
                (0.0, T), (300.0, T), (300.0, 2900.0), (3500.0, 3580.0),
                (T - phi.step / 4, T), (T * (1 + 1e-13), T * (1 + 5e-13)),
            ]
            for t0, t1 in windows:
                x_hi = np.maximum(p.kappa_d * ((T - t0) - phi.tau_grid), 0.0)
                x_lo = np.minimum(np.maximum(p.kappa_d * ((T - t1) - phi.tau_grid), 0.0), x_hi)
                win = (special.gammainc(js, x_hi) - special.gammainc(js, x_lo)) / p.kappa_d
                rest = np.einsum("jn,jn->n", phi.powers[1:], np.maximum(win, 0.0))
                first = _first_generation_window(phi, tau_bounds, t0, t1)
                want = (first + overlap @ rest) / np.sqrt(grid.widths)
                got = synth_psdr([Source(0, 0, 1.0, t0, t1)], grid, phi, (1, 1)).data[0, 0]
                np.testing.assert_allclose(
                    got, want, rtol=0.0, atol=1e-14 * want.max(), err_msg=f"{kd_h=} {t0=} {t1=}"
                )

    def test_zero_rate_and_empty_window(self):
        p = params()
        phi = phi_general(p, tau_steps=512)
        zero_rate = synth_psdr([Source(0, 0, 0.0, 0.0, T)], GRID, phi, (4, 4))
        assert zero_rate.data.max() == 0.0
        empty_win = synth_psdr([Source(0, 0, 5.0, 100.0, 100.0)], GRID, phi, (4, 4))
        assert empty_win.data.max() == 0.0
        # a window past the horizon by round-off reaches no free time
        late = Source(0, 0, 1.0, T * (1 + 1e-13), T * (1 + 5e-13))
        assert synth_psdr([late], GRID, phi, (4, 4)).data.max() == 0.0

    def test_later_emission_shifts_mass_to_sharper_bins(self):
        # particles emitted close to the horizon have had little free time,
        # so their mass concentrates in the low-scale bins
        p = params()
        phi = phi_general(p, tau_steps=2048)
        early = synth_psdr([Source(0, 0, 1.0, 0.0, T / 4)], GRID, phi, (2, 2))
        late = synth_psdr([Source(0, 0, 1.0, 3 * T / 4, T)], GRID, phi, (2, 2))
        sharp_share = lambda d: d[0, 0, 0] / max(d[0, 0].sum(), 1e-300)
        assert sharp_share(late.data) > sharp_share(early.data)

    def test_rejects_bad_geometry(self):
        p = params()
        phi = phi_general(p, tau_steps=512)
        with pytest.raises(ValueError, match="outside"):
            synth_psdr([Source(9, 0, 1.0, 0.0, T)], GRID, phi, (8, 8))
        with pytest.raises(ValueError, match="horizon"):
            synth_psdr([Source(0, 0, 1.0, 0.0, 2 * T)], GRID, phi, (8, 8))
        wide = SigmaGrid(boundaries=(0.0, 100.0), support_set=(1,))
        with pytest.raises(ValueError, match="physical maximum"):
            synth_psdr([Source(0, 0, 1.0, 0.0, T)], wide, phi, (8, 8))

    def test_forward_image_mass_matches_psdr(self):
        # rendering conserves total mass up to kernel tail truncation when
        # the source sits far from the border
        p = params()
        phi = phi_general(p, tau_steps=1024)
        grid = SigmaGrid(boundaries=(0.0, 2.0, 5.0), support_set=(1, 2))
        src = Source(m=24, n=24, rate=1.0, t_start=0.0, t_stop=T)
        psdr = synth_psdr([src], grid, phi, (48, 48))
        bank = build_kernel_bank(grid, psf_sigma=0.0, quad_order=16)
        img = forward(psdr, bank)
        want = float(psdr.data[24, 24] @ np.sqrt(grid.widths))
        assert img.sum() == pytest.approx(want, rel=1e-6)


class TestSensorModel:
    def test_deterministic_given_seed(self):
        img = np.linspace(0.0, 2.0, 64).reshape(8, 8)
        a = sensor_model(img, 0.05, 12, rng=42)
        b = sensor_model(img, 0.05, 12, rng=42)
        np.testing.assert_array_equal(a, b)
        # a Generator is used as given: it draws what its seed would
        g = sensor_model(img, 0.05, 12, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a, g)
        c = sensor_model(img, 0.05, 12, rng=43)
        assert not np.array_equal(a, c)

    def test_noise_level_is_peak_relative(self):
        rng = np.random.default_rng(7)
        img = np.full((200, 200), 5.0)
        img[0, 0] = 10.0  # peak
        out = sensor_model(img, 0.02, 0, rng=11)
        resid = (out - img)[1:, :]  # away from the clipped peak pixel
        assert resid.std() == pytest.approx(0.02 * 10.0, rel=0.05)

    def test_quantization_grid(self):
        img = np.linspace(0.0, 3.0, 256).reshape(16, 16)
        out = sensor_model(img, 0.0, 8, rng=0)
        levels = out * 255.0 / 3.0
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)
        assert np.unique(out).size <= 256

    def test_no_quantization_keeps_values(self):
        img = np.linspace(0.0, 3.0, 64).reshape(8, 8)
        out = sensor_model(img, 0.0, 0, rng=0)
        np.testing.assert_array_equal(out, img)

    def test_output_clipped_to_peak_range(self):
        img = np.abs(np.sin(np.arange(400, dtype=float))).reshape(20, 20)
        out = sensor_model(img, 0.5, 0, rng=3)
        assert out.min() >= 0.0
        assert out.max() <= img.max() + 1e-12

    def test_zero_image(self):
        out = sensor_model(np.zeros((4, 4)), 0.3, 12, rng=1)
        np.testing.assert_array_equal(out, 0.0)

    def test_rejects_bad_input(self):
        img = np.ones((4, 4))
        with pytest.raises(ValueError):
            sensor_model(np.ones(4), 0.1, 12, rng=0)
        with pytest.raises(ValueError):
            sensor_model(img, -0.1, 12, rng=0)
        with pytest.raises(ValueError):
            sensor_model(img, 0.1, 7, rng=0)
        with pytest.raises(ValueError):
            sensor_model(img * np.nan, 0.1, 12, rng=0)


class TestErfcx:
    # scipy.special.erfcx, as the physics layer calls it; oracle:
    # (2/sqrt(pi)) * int_0^inf exp(-t^2 - 2xt) dt, scipy.integrate.quad
    FROZEN = {
        0.0: 0.9999999999999999,
        0.25: 0.7703465477309968,
        1.0: 0.427583576155807,
        7.5: 0.0745736930628767,
    }

    def test_frozen_quadrature_values(self):
        for x, want in self.FROZEN.items():
            assert erfcx(x) == pytest.approx(want, rel=1e-12)

    def test_large_argument_asymptote(self):
        # erfcx(x) -> 1/(x*sqrt(pi)) with relative error O(1/x^2)
        for x in (50.0, 500.0, 5e4):
            assert erfcx(x) == pytest.approx(1.0 / (x * np.sqrt(np.pi)), rel=1e-3)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 30.0, 400)
        vals = erfcx(xs)
        assert (np.diff(vals) < 0).all()
        assert vals[0] == pytest.approx(1.0)


def _pmf_rows(j_count, lam):
    """pmf(k, lam) for k = 0..j_count-1, one row per order: the weighted
    pmf sum with unit weight on one order per row."""
    return _poisson_pmf_sum(np.eye(j_count)[:, :, None], np.asarray(lam, dtype=np.float64))


class TestPoissonPmf:
    def test_against_scipy_stats(self):
        rng = np.random.default_rng(101)
        lam = rng.uniform(0.01, 80.0, 200)
        want = stats.poisson.pmf(np.arange(150)[:, None], lam[None, :])
        np.testing.assert_allclose(_pmf_rows(150, lam), want, rtol=1e-10, atol=1e-300)

    def test_zero_rate(self):
        out = _pmf_rows(4, [0.0, 2.0])
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0, 0.0, 0.0])
        assert (out[:, 1] > 0).all()

    def test_extreme_rate_no_overflow(self):
        val = _pmf_rows(11, [5000.0])[10, 0]
        assert 0.0 <= val < 1e-300

    @pytest.mark.parametrize("lam", [800.0, 2000.0])
    def test_orders_near_a_large_mean(self, lam):
        # exp(-lam) underflows, so the orders near lam come from log-space
        # seeds taken where the recurrence has fallen below the floor; they
        # carry the whole mass
        ks = np.arange(int(lam + 8.0 * np.sqrt(lam)))
        got = _pmf_rows(ks.size, [lam])[:, 0]
        want = stats.poisson.pmf(ks, lam)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-250)
        assert got.sum() == pytest.approx(1.0, abs=1e-10)

    def test_weighted_sum_from_an_offset_order(self):
        # weights broadcast against the means, orders counted from k_lo
        rng = np.random.default_rng(7)
        lam = rng.uniform(0.0, 30.0, 50)
        weights = rng.uniform(0.0, 2.0, (20, 50))
        want = (weights * stats.poisson.pmf(np.arange(3, 23)[:, None], lam)).sum(axis=0)
        got = _poisson_pmf_sum(weights, lam, k_lo=3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _midpoints(n, step):
    """Cell midpoints (i + 1/2) * step, the grid of every table below."""
    return (np.arange(n) + 0.5) * step


def _box_density(step, width):
    """Uniform density on (0, width), tabulated at cell midpoints."""
    return np.full(int(round(width / step)), 1.0 / width)


def _power(values, step, j):
    """Untruncated j-th power: the input is zero-padded to the full support
    of the j-fold convolution, j * (n - 1) + 1 samples."""
    padded = np.zeros(j * (values.size - 1) + 1)
    padded[: values.size] = values
    return conv_powers(padded, step, j)[-1]


class TestConvPower:
    def test_identity_power(self):
        vals = _box_density(0.01, 1.0)
        out = conv_powers(vals, 0.01, 1)
        assert out.shape == (1, vals.size)
        np.testing.assert_array_equal(out[0], vals)

    def test_box_squared_is_triangle(self):
        # self-convolution of U(0,1) is the triangle density on (0,2); the
        # j-fold power of a midpoint table starts at j * step / 2
        step = 1.0 / 512
        out = _power(_box_density(step, 1.0), step, 2)
        grid = step + step * np.arange(out.size)
        want = np.where(grid <= 1.0, grid, 2.0 - grid)
        np.testing.assert_allclose(out, np.clip(want, 0, None), atol=2 * step)

    def test_mass_is_multiplicative(self):
        step = 1.0 / 256
        vals = np.exp(-_midpoints(256, step))
        m1 = step * vals.sum()
        for j in (2, 3, 4):
            assert step * _power(vals, step, j).sum() == pytest.approx(m1**j, rel=1e-3)

    def test_gaussian_variance_adds(self):
        # j-fold self-convolution of a near-Gaussian density: mean and
        # variance scale linearly in j (moment oracle)
        step = 0.02
        mu, sd = 4.0, 0.5
        grid = _midpoints(2048, step)
        dens = np.exp(-0.5 * ((grid - mu) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
        out = _power(dens, step, 3)
        g = 3 * step / 2 + step * np.arange(out.size)
        m0 = step * out.sum()
        mean = step * (g * out).sum() / m0
        var = step * ((g - mean) ** 2 * out).sum() / m0
        assert m0 == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(3 * mu, rel=1e-6)
        assert var == pytest.approx(3 * sd * sd, rel=1e-4)

    def test_max_len_prefix_is_exact(self):
        # one-sided supports: truncating every power to the table length
        # never changes the retained samples
        step = 1.0 / 64
        vals = _box_density(step, 1.0)
        full = _power(vals, step, 4)
        short = conv_powers(vals[:40], step, 4)[-1]
        np.testing.assert_allclose(short, full[:40], rtol=0, atol=1e-12)

    def test_matches_np_convolve_oracle(self):
        # direct np.convolve powers, truncated the same way; n = 64 and 4096
        # lie on either side of the size where a method="auto" convolution
        # would switch between direct and FFT evaluation
        for n in (64, 4096):
            step = 1.0 / n
            vals = 3.0 * np.exp(-3.0 * _midpoints(n, step))
            out = conv_powers(vals, step, 4)
            assert out.shape == (4, n)
            want = vals
            for j in range(1, 5):
                if j > 1:
                    want = np.maximum(np.convolve(want, vals)[:n] * step, 0.0)
                np.testing.assert_allclose(out[j - 1], want, rtol=0, atol=1e-14 * want.max())
