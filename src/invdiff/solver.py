"""Group-sparse non-negative reconstruction.

Minimizes  sum(weights^2 * (forward(a) - data)^2)
         + lambda * sum over pixels of ||a[pixel, support]||_2
subject to a >= 0, by an accelerated proximal-gradient iteration with a
monotone restart. The group penalty couples the supported scale
bins at each pixel, so whole pixels switch off; bins outside the support
set are constrained to be non-negative but are not penalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator import (
    KernelBank,
    Observation,
    PsdrTensor,
    adjoint,
    forward,
    op_norm_estimate,
    tensor_data,
    weighted_misfit,
)

_STALL_STREAK = 5  # consecutive small relative changes before stopping


class SolverDivergenceError(RuntimeError):
    """Raised when the objective becomes non-finite; carries the trace."""

    def __init__(self, message: str, trace: "SolveTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Reconstruction settings.

    lam: group-penalty strength, >= 0
    max_iters: iteration cap, >= 1
    rel_tol: relative objective change considered a stall, > 0
    power_iters: power-iteration count of the certified operator-norm bound, >= 1
    """

    lam: float
    max_iters: int = 500
    rel_tol: float = 1e-6
    power_iters: int = 60

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if self.power_iters < 1:
            raise ValueError(f"power_iters must be >= 1, got {self.power_iters}")


@dataclass
class SolveTrace:
    """Per-iteration record of the reconstruction run."""

    costs: np.ndarray
    data_terms: np.ndarray
    reg_terms: np.ndarray
    restarts: np.ndarray
    converged: bool
    step: float
    op_norm: float

    @property
    def iterations(self) -> int:
        return len(self.costs)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iter,cost,data,reg,step,restart\n")
            step = f"{float(self.step)!r}"
            for i in range(self.iterations):
                fh.write(
                    f"{i + 1},{float(self.costs[i])!r},{float(self.data_terms[i])!r},"
                    f"{float(self.reg_terms[i])!r},{step},{int(self.restarts[i])}\n"
                )


def group_norm_sum(a, support_mask: np.ndarray) -> float:
    """Sum over pixels of the Euclidean norm across supported bins."""
    data = tensor_data(a)
    sub = data[:, :, np.asarray(support_mask, dtype=bool)]
    return float(np.sqrt(np.einsum("mnk,mnk->mn", sub, sub)).sum())


def _objective(a, fwd, obs: Observation, support_mask, lam: float):
    """(data + lam * reg, data, reg) of a tensor whose forward image is fwd."""
    data_term = weighted_misfit(fwd, obs)
    reg_term = group_norm_sum(a, support_mask)
    return data_term + lam * reg_term, data_term, reg_term


def cost(a, obs: Observation, bank: KernelBank, cfg: SolverConfig):
    """Objective value as (total, data_term, reg_term).

    reg_term is the raw group-norm sum (not multiplied by lam); total is
    data + lam * reg, or +inf if the tensor violates non-negativity.
    """
    data = tensor_data(a)
    total, data_term, reg_term = _objective(
        data, forward(data, bank), obs, bank.grid.support_mask, cfg.lam
    )
    if (data < 0).any():
        total = np.inf
    return total, data_term, reg_term


def grad_data(a, obs: Observation, bank: KernelBank) -> np.ndarray:
    """Gradient of the weighted data misfit: 2 * adjoint(forward(a) - data)."""
    data = tensor_data(a)
    return 2.0 * adjoint(forward(data, bank) - obs.data, obs, bank)


def prox_group_nonneg(v: np.ndarray, threshold: float, support_mask: np.ndarray) -> np.ndarray:
    """Proximal map of the non-negative group penalty.

    Exact minimizer of  0.5 * ||x - v||^2 + threshold * ||x[support]||_2
    over x >= 0, applied independently at each pixel: negative entries are
    clipped to zero, then the supported sub-vector is shrunk toward zero by
    the threshold (vanishing entirely when its norm is below it).
    Unsupported bins are only clipped.
    """
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected an M x N x K tensor, got shape {arr.shape}")
    mask = np.ascontiguousarray(support_mask, dtype=np.bool_)
    if mask.shape != (arr.shape[2],):
        raise ValueError("support_mask length must equal the bin count")
    out = np.maximum(arr.reshape(-1, arr.shape[2]), 0.0)
    if threshold != 0.0:
        sub = out[:, mask]
        norms = np.sqrt(np.einsum("ij,ij->i", sub, sub))
        # a pixel whose norm overflowed becomes NaN, so the objective
        # reports the divergence instead of a divide warning
        finite = np.isfinite(norms)
        scale = np.where(finite, 0.0, np.nan)
        np.divide(norms - threshold, norms, out=scale, where=finite & (norms > threshold))
        out[:, mask] = sub * scale[:, None]
    return out.reshape(arr.shape)


def _check_solvable(obs: Observation, bank: KernelBank, cfg: SolverConfig) -> None:
    zero_weight = not (obs.weights > 0).all()
    partial_support = not bank.grid.support_mask.all()
    if cfg.lam == 0.0 and zero_weight and partial_support:
        raise ValueError(
            "no minimizer is guaranteed when lam == 0, some weights are zero, "
            "and some bins carry no penalty; raise lam, weight every pixel, "
            "or include every bin in the support set"
        )


def fista_solve(
    obs: Observation,
    bank: KernelBank,
    cfg: SolverConfig,
    init: np.ndarray | None = None,
    op_norm: float | None = None,
):
    """Run the accelerated proximal-gradient reconstruction.

    Returns (PsdrTensor, SolveTrace). The step is 1 / (2 * L**2), the
    inverse Lipschitz constant of the data gradient when L is the given
    operator norm or op_norm_estimate's upper bound. An iteration that would
    increase the objective is redone without momentum, so the recorded
    objective never increases. Stops early at an exact fixed point or after
    five consecutive iterations whose relative objective change is below
    rel_tol. A non-finite objective raises SolverDivergenceError with the
    partial trace attached.
    """
    _check_solvable(obs, bank, cfg)
    m, n = obs.data.shape
    kbins = bank.grid.n_bins
    support = bank.grid.support_mask
    if init is None:
        x = np.zeros((m, n, kbins))
    else:
        x = np.array(init, dtype=np.float64)
        if x.shape != (m, n, kbins):
            raise ValueError(f"init shape {x.shape} != {(m, n, kbins)}")
        if not np.isfinite(x).all() or (x < 0).any():
            raise ValueError("init must be finite and non-negative")
    if op_norm is None:
        op_norm = op_norm_estimate(obs, bank, cfg.power_iters)
    if not (np.isfinite(op_norm) and op_norm >= 0):
        raise ValueError(f"op_norm must be finite and >= 0, got {op_norm}")
    l_data = 2.0 * op_norm * op_norm
    step = 1.0 / l_data if l_data > 0 else 1.0

    # every gradient step is formed in this one buffer: a fresh tensor per
    # step costs thousands of page faults per solve on a 192x192 scene
    moved = np.empty_like(x)

    def prox_step(point, fwd_point):
        np.multiply(step, 2.0 * adjoint(fwd_point - obs.data, obs, bank), out=moved)
        np.subtract(point, moved, out=moved)
        z = prox_group_nonneg(moved, cfg.lam * step, support)
        fwd_z = forward(z, bank)
        return (z, fwd_z, *_objective(z, fwd_z, obs, support, cfg.lam))

    fwd_x = forward(x, bank)
    total_x = _objective(x, fwd_x, obs, support, cfg.lam)[0]
    y, fwd_y = x, fwd_x
    t_mom = 1.0
    costs, dterms, rterms, restarts = [], [], [], []
    converged = False
    streak = 0

    def make_trace():
        return SolveTrace(
            costs=np.asarray(costs),
            data_terms=np.asarray(dterms),
            reg_terms=np.asarray(rterms),
            restarts=np.asarray(restarts, dtype=bool),
            converged=converged,
            step=step,
            op_norm=float(op_norm),
        )

    for _ in range(cfg.max_iters):
        z, fwd_z, total_z, dterm_z, rterm_z = prox_step(y, fwd_y)
        restarted = total_z > total_x
        if restarted:
            t_mom = 1.0
            z, fwd_z, total_z, dterm_z, rterm_z = prox_step(x, fwd_x)
        costs.append(total_z)
        dterms.append(dterm_z)
        rterms.append(rterm_z)
        restarts.append(restarted)
        if not np.isfinite(total_z):
            raise SolverDivergenceError(
                f"objective became non-finite at iteration {len(costs)}", make_trace()
            )
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        beta = (t_mom - 1.0) / t_next
        delta = float(np.abs(z - x).max())
        y = z + beta * (z - x)
        fwd_y = fwd_z + beta * (fwd_z - fwd_x)
        rel = abs(total_z - total_x) / max(abs(total_x), np.finfo(float).tiny)
        x, fwd_x, total_x = z, fwd_z, total_z
        t_mom = t_next
        if delta == 0.0:
            converged = True
            break
        streak = streak + 1 if rel < cfg.rel_tol else 0
        if streak >= _STALL_STREAK:
            converged = True
            break

    return PsdrTensor(x), make_trace()
