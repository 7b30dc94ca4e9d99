"""Group-sparse non-negative reconstruction.

Minimizes  sum(weights^2 * (forward(a) - data)^2)
         + lambda * sum over pixels of ||a[pixel, support]||_2
subject to a >= 0, by an accelerated proximal-gradient iteration with a
monotone restart. The group penalty couples the supported scale
bins at each pixel, so whole pixels switch off; bins outside the support
set are constrained to be non-negative but are not penalized. A solve stops
on a relative duality gap of this non-negative group lasso (Fercoq,
Gramfort & Salmon, ICML 2015), whose dual point comes from the gradient
every iteration already forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator import (
    KernelBank,
    Observation,
    PsdrTensor,
    adjoint,
    check_count,
    check_real,
    forward,
    op_norm_estimate,
    tensor_data,
    weighted_misfit,
)
from .tensorio import write_csv

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
    gap_tol: relative duality gap at which a solve stops, finite and >= 0
    power_iters: power-iteration count of the certified operator-norm bound, >= 1
    """

    lam: float
    max_iters: int = 500
    gap_tol: float = 1e-3
    power_iters: int = 60

    def __post_init__(self):
        for name in ("lam", "gap_tol"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), "non-negative"))
        for name in ("max_iters", "power_iters"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))


@dataclass
class SolveTrace:
    """Per-iteration record of the reconstruction run.

    stop_reason is "fixed_point" (an iteration left the tensor unchanged),
    "gap" (the relative duality gap reached gap_tol) or "max_iters"; the
    partial trace carried by SolverDivergenceError says "diverged". gap is
    the relative duality gap (P(x) - D) / P(x) of the last iterate against
    the best dual value D seen, an upper bound on its relative distance to
    the optimal objective; NaN before the first finite iterate.
    """

    costs: np.ndarray
    data_terms: np.ndarray
    reg_terms: np.ndarray
    restarts: np.ndarray
    stop_reason: str
    gap: float
    step: float
    op_norm: float

    @property
    def iterations(self) -> int:
        return len(self.costs)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("fixed_point", "gap")

    def to_csv(self, path) -> None:
        columns = zip(self.costs, self.data_terms, self.reg_terms, self.restarts)
        write_csv(path, (
            "iter,cost,data,reg,step,restart",
            (
                (i, float(c), float(d), float(r), float(self.step), int(restart))
                for i, (c, d, r, restart) in enumerate(columns, start=1)
            ),
        ))


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


def prox_group_nonneg(v: np.ndarray, threshold: float, support_mask: np.ndarray) -> np.ndarray:
    """Proximal map of the non-negative group penalty.

    Exact minimizer of  0.5 * ||x - v||^2 + threshold * ||x[support]||_2
    over x >= 0, applied independently at each pixel: negative entries are
    clipped to zero, then the supported sub-vector is shrunk toward zero by
    the threshold (vanishing entirely when its norm is below it).
    Unsupported bins are only clipped.
    """
    threshold = check_real("threshold", threshold, "non-negative")
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


def _max_pixel_norm(a: np.ndarray) -> float:
    """Largest Euclidean norm over the pixels of an M x N x K tensor."""
    return float(np.sqrt(np.einsum("mnk,mnk->mn", a, a).max()))


def lambda_max(obs: Observation, bank: KernelBank) -> float:
    """Smallest regularization weight for which zero is a fixed point.

    Returns the largest pixel norm, over the supported bins, of the positive
    part of 2 * adjoint(obs.data). The data gradient at zero is
    -2 * adjoint(obs.data), so this is the scale of the worst pixel that
    ``fista_solve``'s dual point has at zero. For lambda >= lambda_max a
    proximal step from zero leaves every supported bin at zero; unpenalized
    bins stay at zero only where their part of adjoint(obs.data) is not
    positive. A regularization weight is usually chosen as a fraction of it.
    """
    g = 2.0 * adjoint(obs.data, obs, bank)[:, :, bank.grid.support_mask]
    return _max_pixel_norm(np.maximum(g, 0.0, out=g))


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

    Returns (PsdrTensor, SolveTrace). A warm start ``init`` must be finite,
    non-negative and zero wherever obs.mask is 0. The step is
    1 / (2 * L**2), the inverse Lipschitz constant of the data gradient when
    L is the given operator norm or op_norm_estimate's upper bound. An
    iteration that would increase the objective is redone without momentum,
    so the recorded objective never increases.

    Stops at an exact fixed point, or once the relative duality gap
    (P(x) - D) / P(x) is at most gap_tol, or after max_iters iterations.
    Each gradient g = 2 * adjoint(forward(y) - data) the iteration forms
    gives a dual value D = 2 s <W r, W b> - s^2 ||W r||^2, with
    r = data - forward(y), scaled by the largest s <= 1 that keeps the
    dual point feasible, s * max over pixels ||min(g[support], 0)|| <= lam;
    the best D seen is kept. With lam == 0, or while any unpenalized bin has
    g < 0, s is 0 and no gap below 1 is certified. A non-finite objective
    raises SolverDivergenceError with the partial trace attached.
    """
    _check_solvable(obs, bank, cfg)
    m, n = obs.data.shape
    kbins = bank.grid.n_bins
    support = bank.grid.support_mask
    if init is None:
        # the operator is linear: a cold start needs no forward call
        x, fwd_x = np.zeros((m, n, kbins)), np.zeros((m, n))
    else:
        x = check_real("init", init, "non-negative")
        if x.shape != (m, n, kbins):
            raise ValueError(f"init shape {x.shape} != {(m, n, kbins)}")
        # a masked-out pixel has a zero gradient, so no iteration removes
        # mass from its unpenalized bins
        if x[obs.mask == 0].any():
            raise ValueError("init must be zero where the observation mask is 0")
        fwd_x = forward(x, bank)
    if op_norm is None:
        op_norm = op_norm_estimate(obs, bank, cfg.power_iters)
    op_norm = check_real("op_norm", op_norm, "non-negative")
    l_data = 2.0 * op_norm * op_norm
    step = 1.0 / l_data if l_data > 0 else 1.0

    # every gradient step, and the negative part of every gradient, is formed
    # in one of these buffers: a fresh tensor per step costs thousands of page
    # faults per solve on a 192x192 scene
    moved = np.empty_like(x)
    neg = np.empty_like(x)
    weighted_data = obs.weights * obs.data
    dual_best = 0.0  # the dual point 0 is always feasible

    def dual_value(grad, resid):
        """Dual value at s * 2 W^2 (data - fwd), for resid = fwd - data and its
        gradient grad = 2 A^T W^2 resid."""
        if cfg.lam == 0.0:
            return 0.0
        np.minimum(grad, 0.0, out=neg)
        if neg[:, :, ~support].any():
            return 0.0
        # neg is zero on the unpenalized bins, so its pixel norms are the
        # supported ones
        worst = _max_pixel_norm(neg)
        s = cfg.lam / worst if worst > cfg.lam else 1.0
        w_resid = obs.weights * resid
        cross = float(np.einsum("ij,ij->", w_resid, weighted_data))
        return -2.0 * s * cross - s * s * float(np.einsum("ij,ij->", w_resid, w_resid))

    def prox_step(point, fwd_point):
        nonlocal dual_best
        resid = fwd_point - obs.data
        np.multiply(adjoint(resid, obs, bank), 2.0, out=moved)
        dual_best = max(dual_best, dual_value(moved, resid))
        np.multiply(moved, step, out=moved)
        np.subtract(point, moved, out=moved)
        z = prox_group_nonneg(moved, cfg.lam * step, support)
        fwd_z = forward(z, bank)
        return (z, fwd_z, *_objective(z, fwd_z, obs, support, cfg.lam))

    total_x = _objective(x, fwd_x, obs, support, cfg.lam)[0]
    y, fwd_y = x, fwd_x
    t_mom = 1.0
    costs, dterms, rterms, restarts = [], [], [], []
    gap = np.nan

    def make_trace(stop_reason):
        return SolveTrace(
            costs=np.asarray(costs),
            data_terms=np.asarray(dterms),
            reg_terms=np.asarray(rterms),
            restarts=np.asarray(restarts, dtype=bool),
            stop_reason=stop_reason,
            gap=gap,
            step=step,
            op_norm=op_norm,
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
                f"objective became non-finite at iteration {len(costs)}",
                make_trace("diverged"),
            )
        # clipped at 0: at an optimum D can exceed P(x) by a rounding error
        gap = max((total_z - dual_best) / total_z, 0.0) if total_z > 0 else 0.0
        if np.array_equal(z, x):
            return PsdrTensor(z), make_trace("fixed_point")
        if gap <= cfg.gap_tol:
            return PsdrTensor(z), make_trace("gap")
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        beta = (t_mom - 1.0) / t_next
        y = z + beta * (z - x)
        fwd_y = fwd_z + beta * (fwd_z - fwd_x)
        x, fwd_x, total_x = z, fwd_z, total_z
        t_mom = t_next

    return PsdrTensor(x), make_trace("max_iters")
