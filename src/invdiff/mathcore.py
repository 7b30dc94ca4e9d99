"""Pixel response, Poisson helpers and tabulated densities.

Everything in this module is a pure function of its arguments. The pixel
response ``omega`` and the Poisson helpers are the numeric bedrock for kernel
construction and for the desorption-series tabulation in :mod:`invdiff.physics`,
which takes the scaled complementary error function straight from
``scipy.special.erfcx``.
The convolution powers of a tabulated density take one path at every table
size: real FFTs padded to cover the linear convolution, so no sample wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp
from scipy.fft import irfft, next_fast_len, rfft


def _psi_tail(x: np.ndarray) -> np.ndarray:
    # phi(x) - x * Phi(-x): the curvature part of the antiderivative of the
    # normal CDF. Using the upper-tail CDF keeps the large-|x| differences
    # free of the catastrophic cancellation the raw x*Phi(x) + phi(x) form has.
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) - x * sp.ndtr(-x)


def omega(sigma: float, m):
    """Integral of a Gaussian of scale ``sigma`` over pixel m against pixel 0.

    This is the box-box-Gaussian triple convolution evaluated at integer
    offset m: the response of a unit pixel detector to a unit pixel source
    spread by a Gaussian of standard deviation ``sigma`` (in pixel units).
    At sigma = 0 it degenerates to the discrete triangle: 1 at m = 0, else 0.
    Non-negative, even in m, and sums to 1 over all m.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    m_arr = np.atleast_1d(np.asarray(m))
    if not np.issubdtype(m_arr.dtype, np.integer):
        raise ValueError("pixel offset m must be integer")
    scalar = np.isscalar(m) or np.asarray(m).ndim == 0
    am = np.abs(m_arr).astype(np.float64)
    if sigma < 1e-12:
        out = np.where(am == 0, 1.0, 0.0)
    else:
        trip = (
            _psi_tail((am + 1.0) / sigma)
            - 2.0 * _psi_tail(am / sigma)
            + _psi_tail((am - 1.0) / sigma)
        )
        out = np.maximum(sigma * trip, 0.0)
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


@dataclass(frozen=True)
class Tabulated1D:
    """Non-negative samples of a function on a uniform grid.

    ``values[i]`` is the sample at ``origin_offset + i * step``. Used for
    densities over elapsed time, so values are required non-negative.
    """

    values: np.ndarray
    step: float
    origin_offset: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1D array")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        if (vals < 0).any():
            raise ValueError("values must be non-negative")
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        if not (np.isfinite(self.origin_offset) and self.origin_offset >= 0):
            raise ValueError("origin_offset must be finite and >= 0")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "origin_offset", float(self.origin_offset))

    @property
    def grid(self) -> np.ndarray:
        return self.origin_offset + self.step * np.arange(self.values.size)

    @property
    def mass(self) -> float:
        """Riemann-sum integral of the tabulated function."""
        return float(self.step * self.values.sum())


def conv_power_seq(tab: Tabulated1D, j_max: int, max_len: int):
    """Yield (j, power) for j = 1..j_max: the j-th convolutional power of a
    tabulated density, each built from the previous one.

    Discrete convolutions are scaled by the grid step so the result
    approximates the continuous j-fold self-convolution. Both operands have
    one-sided support, so truncating every power to ``max_len`` samples
    leaves the retained range exact while bounding the cost; the FFT pad
    covers the full linear convolution of a ``max_len`` prefix with the
    table. The output grid origin is j times the input origin.
    """
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    pad = next_fast_len(max_len + tab.values.size - 1, real=True)
    base_hat = rfft(tab.values, pad)
    cur = tab.values[:max_len].copy()
    yield 1, Tabulated1D(cur, tab.step, tab.origin_offset)
    for j in range(2, j_max + 1):
        cur = irfft(rfft(cur, pad) * base_hat, pad)[:max_len] * tab.step
        cur = np.maximum(cur, 0.0)
        yield j, Tabulated1D(cur, tab.step, tab.origin_offset * j)
