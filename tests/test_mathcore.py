"""Unit tests for the scalar special functions and tabulated densities.

Oracle values frozen into this file were computed with scipy.integrate
quadrature on independent integral representations (see each test).
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfcx

from invdiff.mathcore import (
    Tabulated1D,
    _poisson_pmf_row,
    conv_power_seq,
    omega,
)


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

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            omega(-1.0, 0)
        with pytest.raises(ValueError):
            omega(np.inf, 0)
        with pytest.raises(ValueError):
            omega(1.0, 0.5)


class TestPoissonPmf:
    def test_against_scipy_stats(self):
        rng = np.random.default_rng(101)
        lam = rng.uniform(0.01, 80.0, 200)
        want = stats.poisson.pmf(np.arange(150)[:, None], lam[None, :])
        np.testing.assert_allclose(_poisson_pmf_row(150, lam), want, rtol=1e-10, atol=1e-300)

    def test_zero_rate(self):
        out = _poisson_pmf_row(4, [0.0, 2.0])
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0, 0.0, 0.0])
        assert (out[:, 1] > 0).all()

    def test_extreme_rate_no_overflow(self):
        val = _poisson_pmf_row(11, 5000.0)[10, 0]
        assert 0.0 <= val < 1e-300


class TestTabulated1D:
    def test_grid_and_mass(self):
        tab = Tabulated1D(values=np.array([1.0, 2.0, 3.0]), step=0.5, origin_offset=0.25)
        np.testing.assert_allclose(tab.grid, [0.25, 0.75, 1.25])
        assert tab.mass == pytest.approx(0.5 * 6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tabulated1D(values=np.array([1.0, -0.1]), step=0.5)
        with pytest.raises(ValueError):
            Tabulated1D(values=np.array([[1.0]]), step=0.5)
        with pytest.raises(ValueError):
            Tabulated1D(values=np.array([1.0]), step=0.0)
        with pytest.raises(ValueError):
            Tabulated1D(values=np.array([np.nan]), step=0.5)
        with pytest.raises(ValueError):
            Tabulated1D(values=np.array([1.0]), step=0.5, origin_offset=-0.1)


def _box_density(step, width):
    """Uniform density on (0, width), tabulated at cell midpoints."""
    n = int(round(width / step))
    return Tabulated1D(values=np.full(n, 1.0 / width), step=step, origin_offset=step / 2)


def _power(tab, j, max_len=None):
    """Last power from conv_power_seq; untruncated unless max_len is given."""
    if max_len is None:
        max_len = j * (tab.values.size - 1) + 1
    return list(conv_power_seq(tab, j, max_len=max_len))[-1][1]


class TestConvPower:
    def test_identity_power(self):
        tab = _box_density(0.01, 1.0)
        out = _power(tab, 1)
        np.testing.assert_array_equal(out.values, tab.values)
        assert out.origin_offset == tab.origin_offset

    def test_box_squared_is_triangle(self):
        # self-convolution of U(0,1) is the triangle density on (0,2)
        step = 1.0 / 512
        tab = _box_density(step, 1.0)
        out = _power(tab, 2)
        grid = out.grid
        want = np.where(grid <= 1.0, grid, 2.0 - grid)
        np.testing.assert_allclose(out.values, np.clip(want, 0, None), atol=2 * step)

    def test_mass_is_multiplicative(self):
        step = 1.0 / 256
        tab = Tabulated1D(
            values=np.exp(-_box_density(step, 1.0).grid), step=step, origin_offset=step / 2
        )
        m1 = tab.mass
        for j in (2, 3, 4):
            assert _power(tab, j).mass == pytest.approx(m1**j, rel=1e-3)

    def test_gaussian_variance_adds(self):
        # j-fold self-convolution of a near-Gaussian density: mean and
        # variance scale linearly in j (moment oracle)
        step = 0.02
        grid = np.arange(2048) * step + step / 2
        mu, sd = 4.0, 0.5
        dens = np.exp(-0.5 * ((grid - mu) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
        tab = Tabulated1D(values=dens, step=step, origin_offset=step / 2)
        out = _power(tab, 3)
        g = out.grid
        m0 = out.mass
        mean = step * (g * out.values).sum() / m0
        var = step * ((g - mean) ** 2 * out.values).sum() / m0
        assert m0 == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(3 * mu, rel=1e-6)
        assert var == pytest.approx(3 * sd * sd, rel=1e-4)

    def test_max_len_prefix_is_exact(self):
        # one-sided supports: truncating intermediates never changes the
        # retained samples
        step = 1.0 / 64
        tab = _box_density(step, 1.0)
        full = _power(tab, 4)
        short = _power(tab, 4, max_len=40)
        np.testing.assert_allclose(short.values, full.values[:40], rtol=0, atol=1e-12)

    def test_matches_np_convolve_oracle(self):
        # direct np.convolve powers, truncated the same way; n = 64 and 4096
        # lie on either side of the size where a method="auto" convolution
        # would switch between direct and FFT evaluation
        for n, max_len in ((64, 40), (4096, 4096)):
            step = 1.0 / n
            grid = (np.arange(n) + 0.5) * step
            tab = Tabulated1D(values=3.0 * np.exp(-3.0 * grid), step=step, origin_offset=step / 2)
            want = tab.values[:max_len]
            for j, pw in conv_power_seq(tab, 4, max_len=max_len):
                if j > 1:
                    want = np.maximum(np.convolve(want, tab.values)[:max_len] * step, 0.0)
                assert pw.values.shape == want.shape
                np.testing.assert_allclose(pw.values, want, rtol=0, atol=1e-14 * want.max())
                assert pw.origin_offset == pytest.approx(j * step / 2)

    def test_origin_scales_with_power(self):
        tab = _box_density(0.25, 1.0)
        assert _power(tab, 3).origin_offset == pytest.approx(3 * 0.125)

    def test_rejects_bad_power(self):
        tab = _box_density(0.25, 1.0)
        with pytest.raises(ValueError):
            list(conv_power_seq(tab, 0, max_len=4))
