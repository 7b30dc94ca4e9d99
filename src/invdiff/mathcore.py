"""Pixel response, a weighted Poisson pmf sum and convolution powers of a density.

Everything in this module is a pure function of its arguments. The pixel
response is the numeric bedrock of kernel construction, with one
implementation: ``_omega_rows`` gives it at offsets 0..r for many scales at
once (the kernel bank takes one row per quadrature scale), and ``omega``
picks single offsets from such a row. The weighted Poisson pmf sum
``_poisson_pmf_sum`` and ``conv_powers`` serve the rebinding-series
tabulation and the emission-window synthesis in
:mod:`invdiff.physics`, which takes the scaled complementary error function
straight from ``scipy.special.erfcx``. ``conv_powers`` returns all powers as
one array and takes one path at every table size: real FFTs padded to cover
the linear convolution, so no sample wraps.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp
from scipy.fft import irfft, next_fast_len, rfft


def _psi_tail(x: np.ndarray) -> np.ndarray:
    # phi(x) - x * Phi(-x): the curvature part of the antiderivative of the
    # normal CDF. Using the upper-tail CDF keeps the large-|x| differences
    # free of the catastrophic cancellation the raw x*Phi(x) + phi(x) form has.
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) - x * sp.ndtr(-x)


def _omega_rows(sigmas: np.ndarray, r: int) -> np.ndarray:
    """Pixel response at offsets 0..r, one row per scale in ``sigmas``.

    The curvature function is evaluated once per offset, on -1..r+1, and
    each entry combines its three neighbours as psi(m+1) - 2 psi(m) +
    psi(m-1). Scales below 1e-12 give the discrete triangle row 1, 0, 0, ...
    """
    out = np.zeros((sigmas.size, r + 1))
    out[:, 0] = 1.0
    fine = sigmas >= 1e-12
    if fine.any():
        s = sigmas[fine, None]
        p = _psi_tail(np.arange(-1.0, r + 2.0) / s)
        out[fine] = np.maximum(s * (p[:, 2:] - 2.0 * p[:, 1:-1] + p[:, :-2]), 0.0)
    return out


def omega(sigma: float, m):
    """Integral of a Gaussian of scale ``sigma`` over pixel m against pixel 0.

    This is the box-box-Gaussian triple convolution evaluated at integer
    offset m: the response of a unit pixel detector to a unit pixel source
    spread by a Gaussian of standard deviation ``sigma`` (in pixel units).
    At sigma = 0 it degenerates to the discrete triangle: 1 at m = 0, else 0.
    Non-negative, even in m, and sums to 1 over all m. The response is
    evaluated on every offset 0..max|m| and the requested ones are picked.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    m_arr = np.atleast_1d(np.asarray(m))
    if not np.issubdtype(m_arr.dtype, np.integer):
        raise ValueError("pixel offset m must be integer")
    scalar = np.isscalar(m) or np.asarray(m).ndim == 0
    am = np.abs(m_arr.astype(np.int64))
    row = _omega_rows(np.array([float(sigma)]), int(am.max(initial=0)))[0]
    out = row[am]
    return float(out[0]) if scalar else out


# every _PMF_RESEED-th order, _poisson_pmf_sum re-seeds the cells whose
# pmf is still rising
_PMF_RESEED = 8
# Stirling series coefficients B_2n / (2n (2n - 1)), n = 1..9
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188,
)


def _stirling_error(k: int) -> float:
    """lgamma(k + 1) - (k + 1/2) log k + k - log(2 pi) / 2 for k >= 8, from
    the Stirling series; the first omitted term is below 1e-17 there."""
    inv = 1.0 / k
    return inv * sum(c * inv ** (2 * n) for n, c in enumerate(_STIRLING))


def _poisson_pmf_saddle(k: int, x: np.ndarray) -> np.ndarray:
    """Poisson pmf(k, x) for k >= 8 and x > 0 in Loader's saddle-point form
    exp(-stirling_error(k) - bd0) / sqrt(2 pi k), where
    bd0 = k log(k / x) + x - k. Near the mode, |k - x| < (k + x) / 10, bd0
    is summed as a series in v = (k - x) / (k + x), so the exponent is
    small and exact to a few ulps there, where the naive
    k log x - x - lgamma(k + 1) loses about x * eps.
    """
    d = k - x
    bd0 = k * np.log(k / x) - d
    near = np.abs(d) < 0.1 * (k + x)
    if near.any():
        v = d[near] / (k + x[near])
        series = d[near] * v
        term = 2.0 * k * v
        v2 = v * v
        for j in range(1, 9):
            term *= v2
            series += term / (2 * j + 1)
        bd0[near] = series
    return np.exp(-_stirling_error(k) - bd0) / math.sqrt(2.0 * math.pi * k)


def _poisson_pmf_sum(weights, x, k_lo: int = 0) -> np.ndarray:
    """Weighted sum over orders of Poisson pmf values at means ``x``:
    the sum over i of weights[i] * pmf(k_lo + i, x), broadcast against x.

    The orders come from pmf(0, x) = exp(-x), one ``exp`` per cell, by the
    recurrence pmf(k, x) = pmf(k - 1, x) * x / k: two roundings per order,
    and no table of all orders. exp(-x) underflows for x > 745, where the
    orders near x carry the mass, so at every order k that is a multiple of
    ``_PMF_RESEED`` the cells with x > k, whose pmf still rises with k, are
    seeded afresh from ``_poisson_pmf_saddle``, exact to a few ulps near the
    mode. Before the first such order a cell with x > 708 keeps at most
    x**7 times the smallest normal float, under 1e-279 for x < 1e4.
    At x = 0 the k = 0 pmf is exactly 1 and every other order exactly 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not len(weights):
        return np.zeros(np.broadcast_shapes(np.shape(weights)[1:], x.shape))
    pmf = np.exp(-x)
    for k in range(1, k_lo + 1):
        pmf *= x
        pmf /= k
    total = weights[0] * pmf
    for k, w in enumerate(weights[1:], start=k_lo + 1):
        pmf *= x
        pmf /= k
        if k % _PMF_RESEED == 0:
            rising = x > k
            if rising.any():
                pmf[rising] = _poisson_pmf_saddle(k, x[rising])
        total += w * pmf
    return total


def conv_powers(values: np.ndarray, step: float, j_max: int) -> np.ndarray:
    """The first ``j_max`` (>= 1) convolutional powers of a tabulated density.

    Row j - 1 of the returned (j_max, n) table is the j-fold self-convolution
    of the n samples ``values``, each discrete convolution scaled by the grid
    step so the row approximates the continuous j-fold power, and clipped at
    0. Every power is truncated to the table length n: both operands have
    one-sided support, so the retained samples are exact. The real-FFT pad
    covers the full linear convolution of two n-sample rows, so no sample
    wraps. A power of a table whose first sample sits at offset h from the
    origin has its first sample at j * h.
    """
    n = values.size
    pad = next_fast_len(2 * n - 1, real=True)
    base_hat = rfft(values, pad)
    out = np.empty((j_max, n))
    out[0] = values
    for j in range(1, j_max):
        out[j] = np.maximum(irfft(rfft(out[j - 1], pad) * base_hat, pad)[:n] * step, 0.0)
    return out
