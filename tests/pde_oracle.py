"""Independent finite-difference solution of the surface-binding transport
problem, the reference that the free-motion-time tabulation is checked
against: explicit time stepping of depth diffusion with a partially
absorbing, releasing surface and a far absorbing wall.
"""

from dataclasses import dataclass

import numpy as np

from invdiff import PhysicalParams


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
