"""Pixel response, Poisson helpers and convolution powers of a density.

Everything in this module is a pure function of its arguments. The pixel
response is the numeric bedrock of kernel construction, with one
implementation: ``_omega_rows`` gives it at offsets 0..r for many scales at
once (the kernel bank takes one row per quadrature scale), and ``omega``
picks single offsets from such a row. The Poisson pmf rows and
``conv_powers`` serve the rebinding-series tabulation in
:mod:`invdiff.physics`, which takes the scaled complementary error function
straight from ``scipy.special.erfcx``. ``conv_powers`` returns all powers as
one array and takes one path at every table size: real FFTs padded to cover
the linear convolution, so no sample wraps.
"""

from __future__ import annotations

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


def _poisson_pmf_row(j_count: int, lam) -> np.ndarray:
    """pmf values for j = 0..j_count-1 at rates ``lam`` (vectorized, log space
    from one logarithm per rate; exact at lam = 0, where the j = 0 term
    j * log(lam) is taken as 0 and the others as -inf)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))[None, :]
    j = np.arange(j_count, dtype=np.float64)[:, None]
    log_lam = np.log(lam, out=np.full_like(lam, -np.inf), where=lam > 0)
    j_log = np.multiply(j, log_lam, out=np.zeros((j_count, lam.shape[1])), where=j > 0)
    return np.exp(j_log - lam - sp.gammaln(j + 1.0))


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
