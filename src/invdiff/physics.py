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

from .mathcore import Tabulated1D, conv_power_seq, erfcx, _poisson_pmf_row
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
    root = np.sqrt(t / dif)
    out = ka / np.sqrt(np.pi * dif * t) - (ka * ka / dif) * erfcx(ka * root)
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)


def capture_fraction(tau, params: PhysicalParams):
    """Probability that the capture delay is at most tau (no escape)."""
    t = np.asarray(tau, dtype=np.float64)
    if (t < 0).any() or not np.isfinite(t).all():
        raise ValueError("tau must be finite and >= 0")
    out = 1.0 - np.asarray(erfcx(params.kappa_a * np.sqrt(t / params.diffusion)))
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
    if not (np.isfinite(tau_floor) and tau_floor > 0):
        raise ValueError(f"tau_floor must be finite and > 0, got {tau_floor}")
    c = params.kappa_a / np.sqrt(params.diffusion)
    if c == 0.0:
        return 0.0
    s_lo = float(np.log(c * np.sqrt(tau_floor)))
    s_hi = max(s_lo, 0.0) + 12.0
    s, w = _gl_panels(s_lo, s_hi, int(np.ceil(s_hi - s_lo)))
    x = np.exp(s)
    h = 1.0 / np.sqrt(np.pi) - x * erfcx(x)
    tail = np.exp(-4.0 * s_hi) / (16.0 * np.pi)
    return float(2.0 * c * c * (np.sum(w * h * h) + tail))


def truncation_order(eps: float, params: PhysicalParams, norm_sq: float) -> int:
    """Number of capture generations needed for a tail below ``eps``.

    Returns the smallest order J such that the probability of more than J
    capture/escape rounds within the horizon, scaled by the density norm,
    stays under eps (at least 1). With no escape a single generation is
    exact.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not (np.isfinite(norm_sq) and norm_sq >= 0):
        raise ValueError(f"norm_sq must be finite and >= 0, got {norm_sq}")
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
        first = _first_generation_integral(
            p, (0.0, p.horizon), lambda tau: np.exp(-p.kappa_d * (p.horizon - tau))
        )[0]
        pois0 = np.exp(-p.kappa_d * (p.horizon - self.tau_grid))
        rest = self.values - self.powers[0] * pois0
        return float(first + self.step * np.maximum(rest, 0.0).sum())


def _gl_panels(lo, hi, n_pan):
    """Nodes and weights of ``n_pan`` equal Gauss-Legendre panels on [lo, hi],
    one row per panel."""
    edges = np.linspace(lo, hi, n_pan + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def _first_generation_integral(params, cuts, factor_fn) -> np.ndarray:
    """Integrate capture_density(tau) * factor_fn(tau) between consecutive cuts.

    Returns one integral per interval [cuts[i], cuts[i + 1]] of the
    increasing ``cuts``. Uses the substitution u = sqrt(tau), under which the
    integrand is bounded and smooth, with composite Gauss-Legendre panels
    per interval sized to resolve both the substitution and any
    exp(-kappa_d * ...) variation in the factor. The factor may break its
    derivative only at a cut.
    """
    ka, dif, kd = params.kappa_a, params.diffusion, params.kappa_d
    a_coef = ka / np.sqrt(np.pi * dif)
    b_coef = ka * ka / dif
    u_cuts = np.sqrt(np.asarray(cuts, dtype=np.float64))
    out = np.empty(u_cuts.size - 1)
    for i, (u_lo, u_hi) in enumerate(zip(u_cuts[:-1], u_cuts[1:])):
        n_pan = int(np.clip(np.ceil(kd * u_hi * (u_hi - u_lo) / 2.0), 4, 512))
        u, w = _gl_panels(u_lo, u_hi, n_pan)
        dens = 2.0 * a_coef - 2.0 * b_coef * u * erfcx(ka * u / np.sqrt(dif))
        out[i] = np.sum(w * np.maximum(dens, 0.0) * factor_fn(u * u))
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
    if tau_steps < 16:
        raise ValueError(f"tau_steps must be >= 16, got {tau_steps}")
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    horizon = params.horizon
    step = horizon / tau_steps
    tau = (np.arange(tau_steps) + 0.5) * step
    base_vals = np.asarray(phi_no_desorption(tau, params))
    norm_sq = phi_norm_sq(params, step / 2.0)
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
    in closed form through regularized incomplete gamma differences. A
    single-generation table (always the case at kappa_d == 0) has no such
    terms, and the profile is zero.
    """
    p = phi.params
    tau = phi.tau_grid
    x_hi = np.maximum(p.kappa_d * ((p.horizon - t_start) - tau), 0.0)
    x_lo = np.maximum(p.kappa_d * ((p.horizon - t_stop) - tau), 0.0)
    x_lo = np.minimum(x_lo, x_hi)
    js = np.arange(2, phi.n_generations + 1, dtype=np.float64)[:, None]
    win = (sp.gammainc(js, x_hi[None, :]) - sp.gammainc(js, x_lo[None, :])) / p.kappa_d
    return np.einsum("jn,jn->n", phi.powers[1:], np.maximum(win, 0.0))


def _first_generation_window(phi: PhiTable, tau_bounds, t_start, t_stop) -> np.ndarray:
    """Emission-window integrals of the first-generation density term, one
    per free-motion-time band [tau_bounds[k], tau_bounds[k + 1]].

    A particle emitted at t has free time tau <= H - t, so the window
    factor of tau is the integral of exp(-kappa_d * (H - t - tau)) over the
    emission times in [t_start, min(t_stop, H - tau)]. Its derivative
    breaks only at tau = H - t_stop, so the band edges and that point,
    clipped to the reachable range [0, min(H - t_start, tau_K)], are the
    cuts of one quadrature pass; each interval is summed into its band.
    """
    p = phi.params
    kd = p.kappa_d
    hi = max(p.horizon - t_start, 0.0)
    lo_break = p.horizon - t_stop
    cuts = np.unique(
        np.clip(np.append(tau_bounds, lo_break), 0.0, min(hi, tau_bounds[-1]))
    )

    def factor(tau):
        span = np.maximum(hi - np.maximum(tau, lo_break), 0.0)
        r_lo = np.maximum(lo_break - tau, 0.0)
        return np.exp(-kd * r_lo) * span * sp.exprel(-kd * span)

    vals = _first_generation_integral(p, cuts, factor)
    bands = np.searchsorted(tau_bounds, cuts[:-1], side="right") - 1
    return np.bincount(bands, weights=vals, minlength=tau_bounds.size - 1)


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
    unit scale (division by sqrt of the bin width). One pass per emitter
    fills every bin: the first generation from one quadrature over all
    band edges, the later generations as one product of the band-by-cell
    overlap matrix with the emitter's rest profile. Contributions are
    additive across emitters and linear in emission rate.
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
    edges = np.arange(phi.tau_grid.size + 1) * phi.step
    # overlap[k, i]: length of tabulation cell i inside band k
    t_lo, t_hi = tau_bounds[:-1, None], tau_bounds[1:, None]
    overlap = np.clip(
        np.minimum(edges[1:], t_hi) - np.maximum(edges[:-1], t_lo), 0.0, None
    )
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
        first = _first_generation_window(phi, tau_bounds, src.t_start, src.t_stop)
        rest = _window_rest_profile(phi, src.t_start, src.t_stop)
        out[int(src.m), int(src.n)] += src.rate * (first + overlap @ rest) / sqrt_w
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
