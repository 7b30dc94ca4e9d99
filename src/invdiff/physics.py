"""Surface-binding diffusion physics.

A particle released at the surface diffuses in the half-space above it, is
captured at the surface at a partially absorbing boundary, and (optionally)
escapes again at a constant desorption rate. This module tabulates the
density of the total time a particle has spent in free motion by a given
observation time, synthesizes the scale-resolved source tensor produced by
point emitters, and models the camera.

Scales and times are linked by sigma = sqrt(2 * diffusion * free_time): a
particle whose accumulated free-motion time is tau contributes a Gaussian
blob of that width to the bound-particle image.

Synthesis integrates each emitter's Poisson mixture of capture/escape rounds
over its emission window. The first generation of every emitter comes from
one Gauss-Legendre broadcast per distinct panel count. The later
generations form a rest profile in one non-negative sum per cell: past the
window's kink, from cumulative generation densities formed once per table
(``PhiTable.rest_tables``); before it, from the window's escape-count
increments, which are the same on every such cell. Either way a cell costs
one Poisson pmf recurrence instead of one incomplete-gamma row per
generation.

The transport numerics live here too: ``conv_powers`` forms the generation
densities by real FFTs padded so no sample wraps, and ``_poisson_pmf_sum``
weights them by Poisson escape counts for the table, its mass and the rest
profile.

The phi table depends only on the physical constants, the tabulation step
count and the tail budget, so ``phi_general`` keeps the last table it built
for the life of the process and returns that same object for equal
arguments, with the cumulative densities it has formed. All of these arrays
are read-only. On 4096 cells the table holds 0.1 MB without escape; at
kappa_d * H = 3.6 (nine generations) the table and its cumulative densities
hold 0.6 MB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from scipy.fft import irfft, next_fast_len, rfft

from .operator import PsdrTensor, SigmaGrid, check_count, check_real

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class PhysicalParams:
    """Transport and imaging constants.

    kappa_a: surface capture speed [length/time], >= 0
    kappa_d: escape (release) rate of captured particles [1/time], >= 0
    diffusion: diffusivity in the free half-space [length^2/time], > 0
    horizon: observation time [time], > 0
    pixel_pitch: physical size of one image pixel [length], > 0
    """

    kappa_a: float
    kappa_d: float
    diffusion: float
    horizon: float
    pixel_pitch: float

    def __post_init__(self):
        for name in ("kappa_a", "kappa_d", "diffusion", "horizon", "pixel_pitch"):
            bound = "non-negative" if name in ("kappa_a", "kappa_d") else "positive"
            object.__setattr__(self, name, check_real(name, getattr(self, name), bound))

    @property
    def sigma_max_px(self) -> float:
        """Largest possible blob scale, in pixels."""
        return float(
            np.sqrt(2.0 * self.diffusion * self.horizon) / self.pixel_pitch
        )

    def tau_of_sigma_px(self, sigma_px) -> float | np.ndarray:
        """Free-motion time that produces a blob of the given pixel scale."""
        s = check_real("sigma_px", sigma_px, "non-negative") * self.pixel_pitch
        return s * s / (2.0 * self.diffusion)


@dataclass(frozen=True)
class Source:
    """Point emitter at integer pixel (m, n), releasing ``rate`` particles
    per unit time over the interval [t_start, t_stop]."""

    m: int
    n: int
    rate: float
    t_start: float
    t_stop: float

    def __post_init__(self):
        for name in ("m", "n"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 0))
        for name in ("rate", "t_start", "t_stop"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), "non-negative"))
        if self.t_stop < self.t_start:
            raise ValueError(
                f"need t_start <= t_stop, got [{self.t_start}, {self.t_stop}]"
            )


def phi_no_desorption(tau, params: PhysicalParams):
    """Density of the capture delay when captured particles never escape.

    For a particle released at the surface at time zero, this is the density
    (in the delay tau) of its first capture. It integrates to 1 over
    (0, inf); the tail decays like tau**-1.5.
    """
    t = check_real("tau", tau, "positive")
    ka, dif = params.kappa_a, params.diffusion
    root = np.sqrt(t / dif)
    out = ka / np.sqrt(np.pi * dif * t) - (ka * ka / dif) * sp.erfcx(ka * root)
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)


def capture_fraction(tau, params: PhysicalParams):
    """Probability that the capture delay is at most tau (no escape)."""
    t = check_real("tau", tau, "non-negative")
    out = 1.0 - sp.erfcx(params.kappa_a * np.sqrt(t / params.diffusion))
    return out if out.ndim else float(out)


def phi_norm_sq(params: PhysicalParams, tau_floor: float) -> float:
    """Squared L2 norm of the capture-delay density above ``tau_floor``.

    The density itself is not square integrable near zero, so the norm is
    taken over (tau_floor, inf); the floor is typically half the tabulation
    step. With c = kappa_a / sqrt(diffusion) and x = c * sqrt(tau) the
    density is c**2 * h(x) / x, where h(x) = 1/sqrt(pi) - x * erfcx(x), so the
    norm is 2 * c**2 times the integral of h(x)**2 / x over x > x0 =
    c * sqrt(tau_floor). In s = ln x that integrand is bounded (it tends to
    1/pi as s -> -inf) and decays like exp(-4 s) / (4 pi), so it is summed on
    unit-width Gauss-Legendre panels from ln x0 to s_hi = max(ln x0, 0) + 12,
    and the tail beyond s_hi adds exp(-4 s_hi) / (16 pi) in closed form.
    """
    tau_floor = check_real("tau_floor", tau_floor, "positive")
    c = params.kappa_a / np.sqrt(params.diffusion)
    if c == 0.0:
        return 0.0
    s_lo = float(np.log(c * np.sqrt(tau_floor)))
    s_hi = max(s_lo, 0.0) + 12.0
    s, w = _gl_panels(s_lo, s_hi, int(np.ceil(s_hi - s_lo)))
    x = np.exp(s)
    h = 1.0 / np.sqrt(np.pi) - x * sp.erfcx(x)
    tail = np.exp(-4.0 * s_hi) / (16.0 * np.pi)
    return float(2.0 * c * c * (np.sum(w * h * h) + tail))


def truncation_order(eps: float, params: PhysicalParams, norm_sq: float) -> int:
    """Number of capture generations needed for a tail below ``eps``.

    Returns the smallest order J such that the probability of more than J
    capture/escape rounds within the horizon, scaled by the density norm,
    stays under eps (at least 1). With no escape a single generation is
    exact.
    """
    eps = check_real("eps", eps, "positive")
    norm_sq = check_real("norm_sq", norm_sq, "non-negative")
    if norm_sq == 0.0:
        return 1
    budget = eps / norm_sq
    lam = params.kappa_d * params.horizon
    j = 1
    while sp.pdtrc(j, lam) > budget:
        j += 1
    return j


@dataclass(frozen=True)
class PhiTable:
    """Tabulated density of accumulated free-motion time at the horizon.

    tau_grid holds cell midpoints (i + 1/2) * step covering (0, horizon];
    values[i] is the density at tau_grid[i]. powers[j - 1] tabulates the
    j-generation capture-delay density aligned to tau_grid: the first row
    holds the single-generation midpoint samples themselves, later rows
    are built by repeated convolution of a mass-faithful (cell-averaged)
    tabulation. values is the Poisson-weighted sum of the generations.
    """

    params: PhysicalParams
    j_max: int
    tau_grid: np.ndarray
    values: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        for name in ("tau_grid", "values", "powers"):
            arr = np.array(check_real(name, getattr(self, name)))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != self.tau_grid.shape:
            raise ValueError("values must match tau_grid")
        if self.powers.ndim != 2 or self.powers.shape[1] != self.tau_grid.size:
            raise ValueError("powers must be (generations, len(tau_grid))")

    @property
    def step(self) -> float:
        return float(self.tau_grid[1] - self.tau_grid[0])

    @property
    def n_generations(self) -> int:
        return self.powers.shape[0]

    def mass(self) -> float:
        """Integral of the tabulated density over (0, horizon].

        This equals the expected bound fraction at the horizon for a single
        particle released at time zero. The first-generation part is
        integrated in closed quadrature (it is singular at zero); the
        remaining generations are smooth and their Poisson-weighted sum,
        whose terms are all non-negative, is summed at cell midpoints.
        """
        p = self.params
        first = _first_generation_integral(
            p, 0.0, p.horizon, lambda tau: np.exp(-p.kappa_d * (p.horizon - tau))
        )
        x = p.kappa_d * (p.horizon - self.tau_grid)
        rest = _poisson_pmf_sum(self.powers[1:], x, k_lo=1)
        return float(first + self.step * rest.sum())

    @functools.cached_property
    def rest_tables(self) -> np.ndarray:
        """The cumulative generation densities F_k = f_2 + ... + f_k for
        k = 2..J, one row each, with f_j = powers[j - 1]; formed once per
        table, read-only, and without rows for a single-generation table.
        """
        cumulative = np.cumsum(self.powers[1:], axis=0)
        cumulative.setflags(write=False)
        return cumulative


def _gl_panels(lo, hi, n_pan):
    """Nodes and weights of ``n_pan`` equal Gauss-Legendre panels on [lo, hi],
    one row per panel. Array ends of one shape lead the result's shape; a
    zero-width interval gets all-zero weights. The edges are
    lo + (i / n_pan) * (hi - lo), the last set to hi: numpy's linspace takes
    that form for a whole array once any of its intervals has zero width,
    as almost every emission window's band parts do, and another form
    otherwise, so one interval's nodes would depend on the others."""
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    edges = lo + (np.arange(n_pan + 1) / n_pan) * (hi - lo)
    edges[..., -1:] = hi
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    return mid[..., None] + half[..., None] * _GL_NODES, half[..., None] * _GL_WEIGHTS


# most Gauss-Legendre panels per first-generation interval, and per
# emitter-panel product in one batched broadcast
_MAX_PANELS = 512


def _panel_count(kd, u_lo, u_hi) -> np.ndarray:
    """Panels that resolve exp(-kd * ...) variation on each interval
    [u_lo**2, u_hi**2] of the u = sqrt(tau) quadrature: at least 4, at most
    ``_MAX_PANELS``."""
    return np.clip(np.ceil(kd * u_hi * (u_hi - u_lo) / 2.0), 4, _MAX_PANELS)


def _first_generation_integral(params, tau_lo, tau_hi, factor_fn) -> np.ndarray:
    """Integrate capture_density(tau) * factor_fn(tau) over [tau_lo, tau_hi].

    The ends are scalars or arrays of one shape, and so is the result: one
    integral per interval, in one broadcast. Uses the substitution
    u = sqrt(tau), under which the integrand is bounded and smooth, with
    composite Gauss-Legendre panels. All intervals share the largest panel
    count any of them needs (``_panel_count``) to resolve exp(-kappa_d * ...)
    variation in the factor, which may break its derivative only at an end.
    """
    ka, dif, kd = params.kappa_a, params.diffusion, params.kappa_d
    a_coef = ka / np.sqrt(np.pi * dif)
    b_coef = ka * ka / dif
    u_lo = np.sqrt(np.asarray(tau_lo, dtype=np.float64))
    u_hi = np.sqrt(np.asarray(tau_hi, dtype=np.float64))
    n_pan = int(_panel_count(kd, u_lo, u_hi).max())
    u, w = _gl_panels(u_lo, u_hi, n_pan)
    dens = 2.0 * a_coef - 2.0 * b_coef * u * sp.erfcx(ka * u / np.sqrt(dif))
    vals = w * np.maximum(dens, 0.0) * factor_fn(u * u)
    return vals.reshape(*vals.shape[:-2], -1).sum(axis=-1)


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


def phi_general(params: PhysicalParams, tau_steps: int, eps: float = 1e-6) -> PhiTable:
    """Tabulate the free-motion-time density at the horizon.

    With escape, a particle can be captured and released several times; its
    accumulated free-motion time is then a sum of independent capture
    delays, and the number of completed rounds by the horizon is Poisson in
    the remaining bound time. The tabulation truncates that series at the
    order where the neglected tail, measured against the density norm,
    drops below eps. With kappa_d == 0 the table equals the
    single-generation density sampled at cell midpoints, exactly.
    """
    tau_steps = check_count("tau_steps", tau_steps, 16)
    return _cached_phi(params, tau_steps, check_real("eps", eps, "positive"))


# phi tables kept per process: a run uses one configuration at a time
_PHI_CACHE_SIZE = 1


@functools.lru_cache(maxsize=_PHI_CACHE_SIZE)
def _cached_phi(params: PhysicalParams, tau_steps: int, eps: float) -> PhiTable:
    """The table of ``phi_general`` on normalized, hashable arguments."""
    horizon = params.horizon
    step = horizon / tau_steps
    tau = (np.arange(tau_steps) + 0.5) * step
    base_vals = np.asarray(phi_no_desorption(tau, params))
    norm_sq = phi_norm_sq(params, step / 2.0)
    j_eps = truncation_order(eps, params, norm_sq)
    n_gen = max(j_eps - 1, 1)
    cell_averaged = _cell_averaged_density(params, tau_steps, step, base_vals)
    powers = conv_powers(cell_averaged, step, n_gen)
    powers[0] = base_vals
    # the j-fold power of the midpoint-aligned table starts at j * step / 2
    for j in range(2, n_gen + 1):
        grid = step / 2.0 * j + step * np.arange(tau_steps)
        powers[j - 1] = np.interp(tau, grid, powers[j - 1])
    values = _poisson_pmf_sum(powers, params.kappa_d * (horizon - tau))
    return PhiTable(
        params=params, j_max=j_eps, tau_grid=tau, values=values, powers=powers,
    )


_EXACT_CELL_COUNT = 64


def _cell_averaged_density(params, tau_steps, step, base_vals):
    """Mass-faithful tabulation of the capture-delay density.

    Midpoint samples of a density with an inverse-square-root rise at zero
    systematically miss mass in the leading cells, and repeated convolution
    compounds the deficit. The leading cells are therefore replaced by
    exact cell averages computed from the closed-form antiderivative;
    further out the midpoint sample already equals the cell average to
    second order.
    """
    n_exact = min(_EXACT_CELL_COUNT, tau_steps)
    edges = np.arange(n_exact + 1) * step
    cum = np.asarray(capture_fraction(edges, params))
    vals = base_vals.copy()
    vals[:n_exact] = np.diff(cum) / step
    return vals


def _rest_sum(cumulative: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S(x) = sum over j = 2..J of f_j * P(j, x) on the cells of ``x``.

    P(j, x) = gammainc(j, x) is the probability that a Poisson count of
    mean x reaches j, and ``cumulative`` holds the cumulative densities
    F_k = f_2 + ... + f_k for k = 2..J (``PhiTable.rest_tables``). Since
    P(j, x) = P(J, x) plus pmf(k, x) summed over k = j..J-1, swapping the
    two sums gives S(x) = P(J, x) * F_J plus pmf(k, x) * F_k summed over
    k = 2..J-1: one ``gammainc`` and one pmf recurrence
    (``_poisson_pmf_sum``) per cell. Every term is non-negative, so S keeps
    the relative accuracy of its terms, and S(0) = 0 exactly. With no rows
    (J = 1) the sum is empty and S = 0.
    """
    total = _poisson_pmf_sum(cumulative[:-1], x, k_lo=2)
    if len(cumulative):
        total += sp.gammainc(len(cumulative) + 1, x) * cumulative[-1]
    return total


def _window_rest_profile(
    phi: PhiTable, t_start: float, t_stop: float, n_cells: int
) -> np.ndarray:
    """Emission-window integral of the generation-2+ density terms on the
    first ``n_cells`` tabulation cells.

    For each tabulated free-motion time tau, integrates the probability
    that a particle emitted during [t_start, t_stop] has completed exactly
    j rounds (j >= 2) by the horizon, weighted by the j-generation delay
    density f_j, over the emission window. The escape-count factor
    integrates in closed form to P(j, x_hi) - P(j, x_lo), the regularized
    incomplete gamma function at the window ends
    x_hi = kappa_d * (H - t_start - tau) and x_lo = kappa_d * (H - t_stop - tau),
    divided by kappa_d. Every term of both forms below is non-negative.

    Past the kink, x_lo <= 0, the profile is S(x_hi) / kappa_d with S from
    ``_rest_sum``. Before it, the cells are a leading run with
    x_hi = x_lo + D, where D = kappa_d * (t_stop - t_start) is the same on
    every cell, and a Poisson count of mean x_hi is one of mean x_lo plus
    an independent one of mean D. So
    P(j, x_hi) - P(j, x_lo) = sum over m < j of pmf(m, x_lo) * P(j - m, D),
    and the profile is the sum over m = 0..J-1 of pmf(m, x_lo) * Q_m /
    kappa_d, with Q_m = sum over j >= max(2, m + 1) of f_j * P(j - m, D):
    one contraction of the J x (J - 1) Toeplitz matrix of P(i, D) with the
    densities, then one pmf recurrence per cell. The cells past
    ``n_cells``, which the caller found to carry no weight, are not
    evaluated. A single-generation table has no rest profile.
    """
    p = phi.params
    kd = p.kappa_d
    tau = phi.tau_grid[:n_cells]
    x_lo = kd * ((p.horizon - t_stop) - tau)
    n_lo = int(np.count_nonzero(x_lo > 0.0))
    win = np.empty(n_cells)
    if n_lo:
        j_max = phi.n_generations
        orders = np.arange(1, j_max + 1)
        # rise[i] = P(i, D) for i = 1..J; rise[0] = 0 fills the lower triangle
        rise = np.concatenate(([0.0], sp.gammainc(orders, kd * (t_stop - t_start))))
        toeplitz = rise[np.maximum(orders[1:] - orders[:, None] + 1, 0)]
        q = np.einsum("mj,jc->mc", toeplitz, phi.powers[1:, :n_lo])
        win[:n_lo] = _poisson_pmf_sum(q, x_lo[:n_lo])
    x_hi = np.maximum(kd * ((p.horizon - t_start) - tau[n_lo:]), 0.0)
    win[n_lo:] = _rest_sum(phi.rest_tables[:, n_lo:n_cells], x_hi)
    win /= kd
    return win


def _first_generation_window(phi: PhiTable, tau_bounds, t_start, t_stop) -> np.ndarray:
    """Emission-window integrals of the first-generation density term, one
    per free-motion-time band [tau_bounds[k], tau_bounds[k + 1]].

    ``t_start`` and ``t_stop`` are scalars, or 1-D arrays with one window
    per emitter; the result has one row of K band integrals per emitter.
    A particle emitted at t has free time tau <= H - t, so the window
    factor of tau is the integral of exp(-kappa_d * (H - t - tau)) over the
    emission times in [t_start, min(t_stop, H - tau)]. Its derivative
    breaks only at the kink tau = H - t_stop. Each band is clipped to
    [0, H - t_start] and split at the kink into a lower and an upper part,
    either of which may be empty. Every emitter keeps the panel count its
    own 2 x K parts need; the emitters that share a count are integrated in
    one quadrature broadcast, in groups of at most ``_MAX_PANELS`` emitter
    panels, which bounds the memory a strong escape rate takes.
    """
    p = phi.params
    kd = p.kappa_d
    hi = np.maximum(p.horizon - np.asarray(t_start, dtype=np.float64), 0.0)
    kink = p.horizon - np.asarray(t_stop, dtype=np.float64)
    shape = hi.shape
    hi, kink = hi.reshape(-1, 1, 1), kink.reshape(-1, 1, 1)
    ends = np.clip(tau_bounds, 0.0, hi)
    split = np.clip(kink, ends[..., :-1], ends[..., 1:])
    tau_lo = np.concatenate((ends[..., :-1], split), axis=1)
    tau_hi = np.concatenate((split, ends[..., 1:]), axis=1)
    counts = _panel_count(kd, np.sqrt(tau_lo), np.sqrt(tau_hi)).max(axis=(1, 2))
    out = np.empty((counts.size, tau_lo.shape[-1]))
    for n_pan in np.unique(counts):
        rows = np.flatnonzero(counts == n_pan)
        group = _MAX_PANELS // int(n_pan)
        for sel in (rows[i:i + group] for i in range(0, rows.size, group)):
            hi_sel = hi[sel, :, :, None, None]
            kink_sel = kink[sel, :, :, None, None]

            def factor(tau):
                span = np.maximum(hi_sel - np.maximum(tau, kink_sel), 0.0)
                r_lo = np.maximum(kink_sel - tau, 0.0)
                return np.exp(-kd * r_lo) * span * sp.exprel(-kd * span)

            parts = _first_generation_integral(p, tau_lo[sel], tau_hi[sel], factor)
            out[sel] = parts.sum(axis=1)
    return out.reshape(shape + out.shape[-1:])


def synth_psdr(
    sources: list[Source] | tuple[Source, ...],
    grid: SigmaGrid,
    phi: PhiTable,
    shape: tuple[int, int],
) -> PsdrTensor:
    """Scale-resolved source tensor produced by point emitters.

    Each emitter deposits, into the scale bins at its own pixel, the
    expected number of its particles that are bound at the horizon after
    accumulating a free-motion time inside each bin's band, normalized per
    unit scale (division by sqrt of the bin width). The first generation of
    every emitter comes from one quadrature broadcast per distinct panel
    count (``_first_generation_window``), over each band's two parts either
    side of the emitter's window kink. The later generations are one
    product per emitter of the band-by-cell overlap matrix with the
    emitter's rest profile, taken on the cells whose left edge lies below
    min(tau_K, H - t_start): cells above the top band edge tau_K have zero
    overlap, and cells past H - t_start hold no free time this emitter's
    particles can reach. The rest profile (``_window_rest_profile``) costs
    one pmf recurrence per cell, with its sum over generations swapped with
    its sum over escape counts: below H - t_stop through the emitter's
    window increments, above it through cumulative generation densities
    formed once per table (``PhiTable.rest_tables``), plus one ``gammainc``
    per cell. Contributions are additive across emitters and linear in
    emission rate.
    """
    m_rows, n_cols = (check_count("shape", s, 1) for s in shape)
    p = phi.params
    if grid.sigma_max > p.sigma_max_px * (1.0 + 1e-12):
        raise ValueError(
            f"grid top scale {grid.sigma_max:g} px exceeds the physical maximum "
            f"{p.sigma_max_px:g} px for these parameters"
        )
    for src in sources:
        if not (0 <= src.m < m_rows and 0 <= src.n < n_cols):
            raise ValueError(f"source ({src.m}, {src.n}) outside {m_rows} x {n_cols} image")
        if src.t_stop > p.horizon * (1.0 + 1e-12):
            raise ValueError(
                f"emission window end {src.t_stop} exceeds horizon {p.horizon}"
            )
    active = [s for s in sources if s.rate != 0.0 and s.t_stop != s.t_start]
    tau_bounds = np.asarray(p.tau_of_sigma_px(grid.boundaries))
    first = _first_generation_window(
        phi, tau_bounds, [s.t_start for s in active], [s.t_stop for s in active]
    )
    edges = np.arange(phi.tau_grid.size + 1) * phi.step
    # overlap[k, i]: length of tabulation cell i inside band k
    t_lo, t_hi = tau_bounds[:-1, None], tau_bounds[1:, None]
    overlap = np.clip(
        np.minimum(edges[1:], t_hi) - np.maximum(edges[:-1], t_lo), 0.0, None
    )
    sqrt_w = np.sqrt(grid.widths)
    out = np.zeros((m_rows, n_cols, grid.n_bins))
    for src, bands in zip(active, first):
        if phi.n_generations > 1:
            lim = min(tau_bounds[-1], p.horizon - src.t_start)
            n_cells = int(np.searchsorted(edges[:-1], lim))
            rest = _window_rest_profile(phi, src.t_start, src.t_stop, n_cells)
            bands = bands + overlap[:, :n_cells] @ rest
        out[src.m, src.n] += src.rate * bands / sqrt_w
    return PsdrTensor(out)


def sensor_model(image, noise_sigma: float, bits: int, rng) -> np.ndarray:
    """Camera model: additive Gaussian noise, clipping, quantization.

    Noise has standard deviation noise_sigma relative to the image peak;
    the result is clipped to [0, peak] and, for bits in {8, 12, 16},
    rounded onto a uniform grid of 2**bits levels spanning [0, peak].
    bits == 0 skips quantization. ``rng`` is an integer seed or a
    numpy Generator; equal seeds give identical output.
    """
    img = check_real("image", image)
    if np.ndim(img) != 2:
        raise ValueError(f"image must be 2D, got shape {np.shape(img)}")
    noise_sigma = check_real("noise_sigma", noise_sigma, "non-negative")
    if bits not in (0, 8, 12, 16):
        raise ValueError(f"bits must be one of 0, 8, 12, 16, got {bits}")
    peak = float(img.max(initial=0.0))
    if peak <= 0.0:
        return np.zeros_like(img)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if noise_sigma > 0:
        out = img + (noise_sigma * peak) * gen.standard_normal(img.shape)
    else:
        out = img.copy()
    np.clip(out, 0.0, peak, out=out)
    if bits:
        levels = float(2**bits - 1)
        out = np.round(out * (levels / peak)) * (peak / levels)
    return out
