"""Unit tests for the surface-binding transport physics.

Independent oracles: closed-form antiderivatives, scipy.integrate quadrature
of the density definitions, norms frozen from high-precision mpmath
quadrature, an explicit finite-difference transport solve, and brute-force
Riemann summation for the emission-window integrals.
"""

import warnings

import numpy as np
import pytest
from scipy import integrate, special

from invdiff import (
    Observation,
    PhysicalParams,
    SigmaGrid,
    Source,
    build_kernel_bank,
    capture_fraction,
    forward,
    pde_oracle,
    phi_general,
    phi_no_desorption,
    phi_norm_sq,
    sensor_model,
    synth_psdr,
    truncation_order,
)

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
        from scipy import stats

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


GRID = SigmaGrid(boundaries=(0.0, 2.0, 8.0, 20.0, 84.85281374238569), support_set=(1, 2, 3, 4))


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
        # every band separately against quadrature in u = sqrt(tau) of
        # phi_1(u^2) * 2u * W(u^2), where W(tau) integrates the no-escape
        # probability exp(-kappa_d * (T - t - tau)) over the emission times
        # t in [t_start, min(t_stop, T - tau)]. The windows put T - t_stop
        # inside a band and above the top band, and T - t_start inside a band.
        grid = SigmaGrid(boundaries=(0.0, 2.0, 8.0, 20.0, 40.0, 60.0), support_set=(1, 2))
        windows = [
            (0.0, T), (300.0, 2900.0), (3000.0, 3590.0), (50.0, 700.0),
            (T - 3.0, T), (T - 20.0, T - 10.0), (0.0, 5.0),
        ]
        for kd in (0.0, 0.1 / T):
            p = params(kappa_d=kd)
            phi = phi_general(p, tau_steps=1024)
            assert phi.n_generations == 1
            u_bounds = np.sqrt(p.tau_of_sigma_px(grid.boundaries))
            for t0, t1 in windows:
                def window(tau):
                    t_hi = min(t1, T - tau)
                    if t_hi <= t0:
                        return 0.0
                    if kd == 0.0:
                        return t_hi - t0
                    return (np.exp(-kd * (T - tau - t_hi)) - np.exp(-kd * (T - tau - t0))) / kd

                def integrand(u):
                    return phi_no_desorption(u * u, p) * 2.0 * u * window(u * u)

                kinks = np.sqrt([T - t1, T - t0])
                want = np.array([
                    integrate.quad(
                        integrand, lo, hi, limit=200, epsabs=0.0, epsrel=1e-13,
                        points=[k for k in kinks if lo < k < hi] or None,
                    )[0]
                    for lo, hi in zip(u_bounds[:-1], u_bounds[1:])
                ])
                psdr = synth_psdr([Source(0, 0, 1.0, t0, t1)], grid, phi, (1, 1))
                got = psdr.data[0, 0] * np.sqrt(grid.widths)
                np.testing.assert_allclose(
                    got, want, rtol=0.0, atol=1e-10 * want.max(), err_msg=f"{kd=} {t0=} {t1=}"
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
