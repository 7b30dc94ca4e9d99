"""Unit tests for the scalar special functions and tabulated densities.

Oracle values frozen into this file were computed with scipy.integrate
quadrature on independent integral representations (see each test).
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfcx

from invdiff.operator import _psi_tail, omega
from invdiff.physics import _poisson_pmf_sum, conv_powers


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


class TestOmega:
    # oracle: dblquad of the Gaussian pdf over two unit pixels at offset m
    FROZEN = [
        (1.3, 0, 0.29259676944974855),
        (1.3, 1, 0.22365889839892128),
        (1.3, 3, 0.025950438318833625),
        (0.4, 0, 0.6824494854221566),
        (6.0, 5, 0.04695201118533902),
    ]

    def test_frozen_quadrature_values(self):
        for sigma, m, want in self.FROZEN:
            assert omega(sigma, m) == pytest.approx(want, rel=1e-10)

    def test_zero_scale_degenerates_to_unit_pulse(self):
        assert omega(0.0, 0) == 1.0
        assert omega(0.0, 1) == 0.0
        assert omega(0.0, -3) == 0.0

    def test_even_in_offset(self):
        for sigma in (0.3, 1.0, 4.2):
            ms = np.arange(1, 12)
            np.testing.assert_array_equal(omega(sigma, ms), omega(sigma, -ms))

    def test_unit_mass(self):
        for sigma in (0.2, 1.7, 9.0):
            r = int(np.ceil(8 * sigma)) + 4
            total = omega(sigma, np.arange(-r, r + 1)).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_non_negative_and_peaked_at_zero(self):
        for sigma in (0.5, 2.0):
            vals = omega(sigma, np.arange(-20, 21))
            assert (vals >= 0).all()
            assert vals.argmax() == 20

    def test_small_scale_approaches_triangle(self):
        # as sigma -> 0 the pixel-pair overlap tends to max(0, 1 - |m|)
        vals = omega(1e-9, np.arange(-2, 3))
        np.testing.assert_allclose(vals, [0, 0, 1, 0, 0], atol=1e-9)

    @staticmethod
    def _three_psi(sigma, m):
        # the response formed offset by offset from three psi evaluations
        am = np.abs(m).astype(np.float64)
        if sigma < 1e-12:
            return np.where(am == 0, 1.0, 0.0)
        trip = (
            _psi_tail((am + 1.0) / sigma)
            - 2.0 * _psi_tail(am / sigma)
            + _psi_tail((am - 1.0) / sigma)
        )
        return np.maximum(sigma * trip, 0.0)

    def test_bit_equal_to_three_psi_formula(self):
        ms = np.array([-40, 7, 0, -1, 3, 250, -3, 12, 1])
        for sigma in (1e-13, 1e-9, 0.3, 2.0, 70.0):
            np.testing.assert_array_equal(omega(sigma, ms), self._three_psi(sigma, ms))
            assert omega(sigma, -5) == self._three_psi(sigma, np.array([-5]))[0]
        # |-128| does not fit in int8; the offset still reads as 128
        assert omega(2.0, np.int8(-128)) == omega(2.0, 128)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            omega(-1.0, 0)
        with pytest.raises(ValueError):
            omega(np.inf, 0)
        with pytest.raises(ValueError):
            omega(1.0, 0.5)


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
