"""Surface-binding diffusion physics.

A particle released at the surface diffuses in the half-space above it, is
captured at the surface at a partially absorbing boundary, and (optionally)
escapes again at a constant desorption rate. This module tabulates the
density of the total time a particle has spent in free motion by a given
observation time, synthesizes the scale-resolved source tensor produced by
point emitters, provides an independent finite-difference solution of the
underlying transport problem for cross-checking, and models the camera.

Scales and times are linked by sigma = sqrt(2 * diffusion * free_time): a
particle whose accumulated free-motion time is tau contributes a Gaussian
blob of that width to the bound-particle image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from scipy import integrate

from .mathcore import (
    Tabulated1D,
    conv_power_seq,
    erfcx,
    poisson_quantile,
    _poisson_pmf_row,
)
from .operator import PsdrTensor, SigmaGrid

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
        checks = (
            ("kappa_a", self.kappa_a, 0.0),
            ("kappa_d", self.kappa_d, 0.0),
        )
        for name, val, lo in checks:
            if not (np.isfinite(val) and val >= lo):
                raise ValueError(f"{name} must be finite and >= {lo}, got {val}")
        for name, val in (
            ("diffusion", self.diffusion),
            ("horizon", self.horizon),
            ("pixel_pitch", self.pixel_pitch),
        ):
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and > 0, got {val}")

    @property
    def sigma_max_px(self) -> float:
        """Largest possible blob scale, in pixels."""
        return float(
            np.sqrt(2.0 * self.diffusion * self.horizon) / self.pixel_pitch
        )

    def tau_of_sigma_px(self, sigma_px) -> np.ndarray:
        """Free-motion time that produces a blob of the given pixel scale."""
        s = np.asarray(sigma_px, dtype=np.float64) * self.pixel_pitch
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
        if self.m != int(self.m) or self.n != int(self.n):
            raise ValueError(f"source position must be integer, got ({self.m}, {self.n})")
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_stop)):
            raise ValueError("emission window must be finite")
        if self.t_start < 0 or self.t_stop < self.t_start:
            raise ValueError(
                f"need 0 <= t_start <= t_stop, got [{self.t_start}, {self.t_stop}]"
            )


def phi_no_desorption(tau, params: PhysicalParams):
    """Density of the capture delay when captured particles never escape.

    For a particle released at the surface at time zero, this is the density
    (in the delay tau) of its first capture. It integrates to 1 over
    (0, inf); the tail decays like tau**-1.5.
    """
    t = np.asarray(tau, dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError("tau must be finite")
    if (t <= 0).any():
        raise ValueError("tau must be > 0")
    ka, dif = params.kappa_a, params.diffusion
    if ka == 0.0:
        out = np.zeros_like(t)
        return out if out.ndim else float(out)
    root = np.sqrt(t / dif)
    out = ka / np.sqrt(np.pi * dif * t) - (ka * ka / dif) * erfcx(ka * root)
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)


def capture_fraction(tau, params: PhysicalParams):
    """Probability that the capture delay is at most tau (no escape)."""
    t = np.asarray(tau, dtype=np.float64)
    if (t < 0).any() or not np.isfinite(t).all():
        raise ValueError("tau must be finite and >= 0")
    if params.kappa_a == 0.0:
        out = np.zeros_like(t)
    else:
        out = 1.0 - np.asarray(erfcx(params.kappa_a * np.sqrt(t / params.diffusion)))
    return out if out.ndim else float(out)


def phi_norm_sq(params: PhysicalParams, tau_floor: float) -> float:
    """Squared L2 norm of the capture-delay density above ``tau_floor``.

    The density itself is not square integrable near zero, so the norm is
    taken over (tau_floor, inf); the floor is typically half the tabulation
    step.
    """
    if not (np.isfinite(tau_floor) and tau_floor > 0):
        raise ValueError(f"tau_floor must be finite and > 0, got {tau_floor}")
    if params.kappa_a == 0.0:
        return 0.0

    def f(t):
        return phi_no_desorption(t, params) ** 2

    mid = max(params.horizon, 2.0 * tau_floor)
    a, _ = integrate.quad(f, tau_floor, mid, limit=200)
    b, _ = integrate.quad(f, mid, np.inf, limit=200)
    return float(a + b)


def truncation_order(eps: float, params: PhysicalParams, norm_sq: float) -> int:
    """Number of capture generations needed for a tail below ``eps``.

    Returns the smallest order J such that the probability of more than J
    capture/escape rounds within the horizon, scaled by the density norm,
    stays under eps. With no escape a single generation is exact.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not (np.isfinite(norm_sq) and norm_sq >= 0):
        raise ValueError(f"norm_sq must be finite and >= 0, got {norm_sq}")
    if params.kappa_d == 0.0 or norm_sq == 0.0:
        return 1
    p = 1.0 - eps / norm_sq
    if p <= 0.0:
        return 1
    lam = params.kappa_d * params.horizon
    return max(int(poisson_quantile(p, lam)), 1)


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
    eps: float
    j_max: int
    norm_sq: float
    tau_grid: np.ndarray
    values: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        for name in ("tau_grid", "values", "powers"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
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
        remaining generations are smooth and summed at cell midpoints.
        """
        p = self.params
        if p.kappa_a == 0.0:
            return 0.0
        first = _first_generation_integral(
            p, 0.0, p.horizon, lambda tau: np.exp(-p.kappa_d * (p.horizon - tau))
        )
        pois0 = np.exp(-p.kappa_d * (p.horizon - self.tau_grid))
        rest = self.values - self.powers[0] * pois0
        return float(first + self.step * np.maximum(rest, 0.0).sum())


def _first_generation_integral(params, tau_lo, tau_hi, factor_fn, kinks=()):
    """Integrate capture_density(tau) * factor_fn(tau) over [tau_lo, tau_hi].

    Uses the substitution u = sqrt(tau), under which the integrand is
    bounded and smooth, with composite Gauss-Legendre panels sized to
    resolve both the substitution and any exp(-kappa_d * ...) variation in
    the factor. ``kinks`` lists interior tau values where the factor has a
    derivative break; panels never straddle them.
    """
    ka, dif, kd = params.kappa_a, params.diffusion, params.kappa_d
    if ka == 0.0 or tau_hi <= tau_lo:
        return 0.0
    a_coef = ka / np.sqrt(np.pi * dif)
    b_coef = ka * ka / dif
    cuts = [tau_lo, tau_hi]
    for kk in kinks:
        if tau_lo < kk < tau_hi:
            cuts.append(float(kk))
    cuts = np.sqrt(np.unique(np.asarray(cuts, dtype=np.float64)))
    total = 0.0
    for u_lo, u_hi in zip(cuts[:-1], cuts[1:]):
        span = u_hi - u_lo
        if span <= 0:
            continue
        n_pan = int(np.clip(np.ceil(kd * u_hi * span / 2.0), 4, 512))
        edges = np.linspace(u_lo, u_hi, n_pan + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        u = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        w = half[:, None] * _GL_WEIGHTS[None, :]
        dens = 2.0 * a_coef - 2.0 * b_coef * u * erfcx(ka * u / np.sqrt(dif))
        total += float(np.sum(w * np.maximum(dens, 0.0) * factor_fn(u * u)))
    return total


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
    if tau_steps < 16:
        raise ValueError(f"tau_steps must be >= 16, got {tau_steps}")
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    horizon = params.horizon
    step = horizon / tau_steps
    tau = (np.arange(tau_steps) + 0.5) * step
    if params.kappa_a == 0.0:
        zero = np.zeros(tau_steps)
        return PhiTable(
            params=params, eps=float(eps), j_max=1, norm_sq=0.0,
            tau_grid=tau, values=zero, powers=zero[None, :].copy(),
        )
    base_vals = np.asarray(phi_no_desorption(tau, params))
    norm_sq = phi_norm_sq(params, step / 2.0)
    if params.kappa_d == 0.0:
        return PhiTable(
            params=params, eps=float(eps), j_max=1, norm_sq=norm_sq,
            tau_grid=tau, values=base_vals.copy(), powers=base_vals[None, :].copy(),
        )
    j_eps = truncation_order(eps, params, norm_sq)
    n_gen = max(j_eps - 1, 1)
    base = Tabulated1D(
        values=_cell_averaged_density(params, tau_steps, step, base_vals),
        step=step,
        origin_offset=step / 2.0,
    )
    powers = np.empty((n_gen, tau_steps))
    for j, pw in conv_power_seq(base, n_gen, max_len=tau_steps):
        if j == 1:
            powers[0] = base_vals
        else:
            powers[j - 1] = np.interp(tau, pw.grid, pw.values)
    lam = params.kappa_d * (horizon - tau)
    pois = _poisson_pmf_row(n_gen, lam)
    values = np.einsum("jn,jn->n", powers, pois)
    return PhiTable(
        params=params, eps=float(eps), j_max=j_eps, norm_sq=norm_sq,
        tau_grid=tau, values=values, powers=powers,
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


@dataclass(frozen=True)
class PdeResult:
    """Finite-difference transport solution summary."""

    times: np.ndarray
    bound: np.ndarray
    mass: np.ndarray
    dz: float
    dt: float

    @property
    def bound_final(self) -> float:
        return float(self.bound[-1])


def _pde_sweep(c0, n_steps, dt, dz, diffusion, kappa_a, kappa_d):
    """Explicit finite-difference sweep of the 1D depth diffusion model.

    State: free concentration c[0..nz-1] over depth (far node held at zero)
    and surface-bound amount b. The boundary at node 0 uses a ghost node
    eliminated via the flux balance -D dc/dz = kd*b - ka*c0.
    """
    c = c0.copy()
    nz = c.shape[0]
    alpha = diffusion * dt / (dz * dz)
    bound = np.empty(n_steps + 1)
    mass = np.empty(n_steps + 1)
    b = 0.0
    interior_w = np.ones(nz)
    interior_w[0] = 0.5
    interior_w[-1] = 0.5
    bound[0] = b
    mass[0] = b + dz * float(interior_w @ c)
    cn = np.empty_like(c)
    for s in range(1, n_steps + 1):
        surf = kappa_d * b - kappa_a * c[0]
        cn[0] = c[0] + alpha * (2.0 * c[1] - 2.0 * c[0]) + (2.0 * dt / dz) * surf
        cn[1:-1] = c[1:-1] + alpha * (c[2:] - 2.0 * c[1:-1] + c[:-2])
        cn[-1] = 0.0
        b = b + dt * (kappa_a * c[0] - kappa_d * b)
        c, cn = cn, c
        bound[s] = b
        mass[s] = b + dz * float(interior_w @ c)
    return bound, mass, c


def pde_oracle(
    params: PhysicalParams,
    z_max: float | None = None,
    n_z: int = 900,
    n_t: int | None = None,
) -> PdeResult:
    """Independent finite-difference solution of the transport problem.

    One unit of particle mass is injected next to the surface at time zero
    and evolved with explicit time stepping: diffusion in the half-space,
    capture at the surface at speed kappa_a, release of captured mass at
    rate kappa_d, and a far absorbing wall. Returns the captured (bound)
    fraction and the total discrete mass over time; bound[-1] should match
    PhiTable.mass() for the same parameters, and mass stays near 1 when the
    far wall is placed beyond the diffusion range.
    """
    dif, horizon = params.diffusion, params.horizon
    reach = 6.0 * np.sqrt(2.0 * dif * horizon)
    if z_max is None:
        z_max = reach
    if z_max < reach * (1.0 - 1e-12):
        raise ValueError(
            f"z_max={z_max:g} is inside the diffusion range; need >= {reach:g}"
        )
    if n_z < 16:
        raise ValueError(f"n_z must be >= 16, got {n_z}")
    dz = z_max / n_z
    stable_nt = int(np.ceil(2.0 * horizon * dif / (dz * dz)))
    if n_t is None:
        n_t = int(np.ceil(1.1 * stable_nt))
    alpha_nt = horizon * dif / ((dz * dz) * n_t)
    if alpha_nt > 0.5:
        raise ValueError(
            f"explicit scheme unstable: n_t={n_t} gives step ratio {alpha_nt:.3f} > 0.5; "
            f"need n_t >= {stable_nt}"
        )
    dt = horizon / n_t
    c0 = np.zeros(n_z + 1)
    c0[1] = 1.0 / dz
    bound, mass, _ = _pde_sweep(
        c0, n_t, dt, dz, dif, params.kappa_a, params.kappa_d
    )
    times = np.linspace(0.0, horizon, n_t + 1)
    return PdeResult(times=times, bound=bound, mass=mass, dz=dz, dt=dt)


def _window_rest_profile(phi: PhiTable, t_start: float, t_stop: float) -> np.ndarray:
    """Emission-window integral of the generation-2+ density terms.

    For each tabulated free-motion time tau, integrates the probability
    that a particle emitted during [t_start, t_stop] has completed exactly
    j rounds (j >= 2) by the horizon, weighted by the j-generation delay
    density, over the emission window. The escape-count factor integrates
    in closed form through regularized incomplete gamma differences.
    """
    p = phi.params
    n_gen = phi.n_generations
    tau = phi.tau_grid
    if n_gen < 2 or p.kappa_d == 0.0:
        return np.zeros_like(tau)
    hi = p.horizon - t_start
    lo = np.maximum(tau, p.horizon - t_stop)
    x_hi = np.maximum(p.kappa_d * (hi - tau), 0.0)
    x_lo = np.maximum(p.kappa_d * (lo - tau), 0.0)
    x_lo = np.minimum(x_lo, x_hi)
    js = np.arange(2, n_gen + 1, dtype=np.float64)[:, None]
    win = (sp.gammainc(js, x_hi[None, :]) - sp.gammainc(js, x_lo[None, :])) / p.kappa_d
    return np.einsum("jn,jn->n", phi.powers[1:], np.maximum(win, 0.0))


def _first_generation_window(phi: PhiTable, tau_lo, tau_hi, t_start, t_stop) -> float:
    """Emission-window integral of the first-generation density term over a
    free-motion-time band [tau_lo, tau_hi]."""
    p = phi.params
    hi = p.horizon - t_start
    lo_break = p.horizon - t_stop
    band_hi = min(tau_hi, hi)
    if band_hi <= tau_lo:
        return 0.0
    if p.kappa_d == 0.0:
        def factor(tau):
            return np.maximum(hi - np.maximum(tau, lo_break), 0.0)
    else:
        kd = p.kappa_d

        def factor(tau):
            lo = np.maximum(tau, lo_break)
            x_hi = np.maximum(kd * (hi - tau), 0.0)
            x_lo = np.maximum(kd * (lo - tau), 0.0)
            return np.maximum(-np.expm1(-x_hi) + np.expm1(-x_lo), 0.0) / kd

    return _first_generation_integral(
        p, tau_lo, band_hi, factor, kinks=(lo_break,)
    )


def synth_psdr(
    sources: list[Source] | tuple[Source, ...],
    grid: SigmaGrid,
    phi: PhiTable,
    shape: tuple[int, int],
) -> PsdrTensor:
    """Scale-resolved source tensor produced by point emitters.

    Each emitter deposits, into the scale bin at its own pixel, the expected
    number of its particles that are bound at the horizon after accumulating
    a free-motion time inside that bin's band, normalized per unit scale
    (division by sqrt of the bin width). Contributions are additive across
    emitters and linear in emission rate.
    """
    m_rows, n_cols = int(shape[0]), int(shape[1])
    if m_rows < 1 or n_cols < 1:
        raise ValueError(f"shape must be positive, got {shape}")
    p = phi.params
    if grid.sigma_max > p.sigma_max_px * (1.0 + 1e-12):
        raise ValueError(
            f"grid top scale {grid.sigma_max:g} px exceeds the physical maximum "
            f"{p.sigma_max_px:g} px for these parameters"
        )
    tau_bounds = np.asarray(p.tau_of_sigma_px(grid.boundaries))
    step = phi.step
    edges = np.arange(phi.tau_grid.size + 1) * step
    sqrt_w = np.sqrt(grid.widths)
    out = np.zeros((m_rows, n_cols, grid.n_bins))
    for src in sources:
        if not (0 <= src.m < m_rows and 0 <= src.n < n_cols):
            raise ValueError(f"source ({src.m}, {src.n}) outside {m_rows} x {n_cols} image")
        if src.t_stop > p.horizon * (1.0 + 1e-12):
            raise ValueError(
                f"emission window end {src.t_stop} exceeds horizon {p.horizon}"
            )
        if src.rate == 0.0 or src.t_stop == src.t_start:
            continue
        rest = _window_rest_profile(phi, src.t_start, src.t_stop)
        for k in range(grid.n_bins):
            t_lo, t_hi = tau_bounds[k], tau_bounds[k + 1]
            first = _first_generation_window(phi, t_lo, t_hi, src.t_start, src.t_stop)
            overlap = np.clip(
                np.minimum(edges[1:], t_hi) - np.maximum(edges[:-1], t_lo), 0.0, None
            )
            val = src.rate * (first + float(overlap @ rest)) / sqrt_w[k]
            out[int(src.m), int(src.n), k] += max(val, 0.0)
    return PsdrTensor(out)


def sensor_model(image, noise_sigma: float, bits: int, rng) -> np.ndarray:
    """Camera model: additive Gaussian noise, clipping, quantization.

    Noise has standard deviation noise_sigma relative to the image peak;
    the result is clipped to [0, peak] and, for bits in {8, 12, 16},
    rounded onto a uniform grid of 2**bits levels spanning [0, peak].
    bits == 0 skips quantization. ``rng`` is an integer seed or a
    numpy Generator; equal seeds give identical output.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise ValueError("image must be finite")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
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
