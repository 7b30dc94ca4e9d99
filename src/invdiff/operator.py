"""Discrete scale-mixture imaging operator.

A bound-particle image is modeled as a sum over scale bins: each slice of a
scale-resolved source tensor is convolved with a pixel-integrated Gaussian
kernel for its bin and the results are added. This module builds those
kernels (exact pixel integration, Gauss-Legendre averaging across each bin)
and applies the forward map and its adjoint by FFT on a zero-padded panel.

Each kernel is a weighted sum of separable outer products of a profile that
is even in the offset, so it is built as one small matmul over the quarter
offsets 0..r and mirrored. The image transforms skip the all-zero pad rows:
a real FFT runs along each of the M data rows to the padded width, then a
complex FFT down the columns to the padded height; the inverse takes the
column pass first and runs the real inverse on the M kept rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft, rfft2

from .mathcore import omega


@dataclass(frozen=True)
class SigmaGrid:
    """Scale-bin boundaries (pixel units) plus the signal support set.

    ``boundaries`` has K+1 strictly increasing entries starting at 0; bin k
    (1-based) covers scales between boundaries[k-1] and boundaries[k].
    ``support_set`` lists the bins whose content counts as signal; bins
    outside it absorb background and are not penalized as groups.
    """

    boundaries: np.ndarray
    support_set: tuple[int, ...]

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("boundaries needs at least two entries (K >= 1)")
        if not np.isfinite(b).all():
            raise ValueError("boundaries must be finite")
        if b[0] != 0.0:
            raise ValueError(f"first boundary must be 0, got {b[0]}")
        if not (np.diff(b) > 0).all():
            raise ValueError("boundaries must be strictly increasing")
        k = b.size - 1
        sup = tuple(sorted(set(int(s) for s in self.support_set)))
        if not sup:
            raise ValueError("support_set must not be empty")
        if sup[0] < 1 or sup[-1] > k:
            raise ValueError(f"support_set entries must lie in 1..{k}, got {sup}")
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "support_set", sup)

    @property
    def n_bins(self) -> int:
        return self.boundaries.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def sigma_max(self) -> float:
        return float(self.boundaries[-1])

    @property
    def support_mask(self) -> np.ndarray:
        m = np.zeros(self.n_bins, dtype=bool)
        m[[s - 1 for s in self.support_set]] = True
        return m


@dataclass(frozen=True)
class PsdrTensor:
    """Scale-resolved source tensor: data[m, n, k] >= 0 on an M x N image."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 3:
            raise ValueError(f"data must be M x N x K, got shape {d.shape}")
        if not np.isfinite(d).all():
            raise ValueError("data must be finite")
        if (d < 0).any():
            raise ValueError("data must be non-negative")
        object.__setattr__(self, "data", d)

    @property
    def shape(self):
        return self.data.shape


@dataclass(frozen=True)
class Observation:
    """Measured image with per-pixel confidence weights and a support mask.

    ``weights`` scale the data misfit per pixel (0 = ignore that pixel);
    ``mask`` restricts where reconstructed sources may live (binary).
    """

    data: np.ndarray
    weights: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.mask, dtype=np.float64)
        if d.ndim != 2:
            raise ValueError(f"data must be 2D, got shape {d.shape}")
        if w.shape != d.shape or m.shape != d.shape:
            raise ValueError("weights and mask must match the data shape")
        if not (np.isfinite(d).all() and np.isfinite(w).all()):
            raise ValueError("data and weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        if not (w > 0).any():
            raise ValueError("at least one weight must be positive")
        if not np.isin(m, (0.0, 1.0)).all():
            raise ValueError("mask must be binary (0/1)")
        for name, arr in (("data", d), ("weights", w), ("mask", m)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def plain(cls, data: np.ndarray) -> "Observation":
        """Observation with unit weights and a full mask."""
        d = np.asarray(data, dtype=np.float64)
        return cls(d, np.ones_like(d), np.ones_like(d))


def kernel_radius(sigma_hi: float, psf_sigma: float) -> int:
    """Truncation radius for a bin whose top scale is ``sigma_hi``.

    Six standard deviations plus margin keep the discarded tail mass of each
    kernel below 1e-7 of its nominal mass.
    """
    return int(np.ceil(6.0 * (sigma_hi + psf_sigma))) + 2


@dataclass(frozen=True)
class KernelBank:
    """Per-bin convolution kernels, fixed after construction."""

    grid: SigmaGrid
    psf_sigma: float
    quad_order: int
    kernels: tuple[np.ndarray, ...]
    radii: tuple[int, ...]
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    def plan(self, shape: tuple[int, int]) -> dict:
        """Cached spectral data for images of the given shape.

        A 'same' convolution on an M x N image never reaches kernel offsets
        beyond M-1 rows or N-1 columns, so each kernel is cropped to that
        reach before its spectrum is taken; the result is unchanged.
        """
        key = (int(shape[0]), int(shape[1]))
        hit = self._plans.get(key)
        if hit is not None:
            return hit
        m, n = key
        rm = min(max(self.radii), m - 1)
        rn = min(max(self.radii), n - 1)
        # m + rm samples keep the circular wrap of the cropped kernel's
        # negative lobe clear of the first m; as rm < m they also hold the
        # whole 2 * rm + 1 kernel (likewise for columns)
        pm = next_fast_len(m + rm)
        pn = next_fast_len(n + rn)
        ghat = np.empty(
            (len(self.kernels), pm, pn // 2 + 1), dtype=np.complex128
        )
        for k, (g, r) in enumerate(zip(self.kernels, self.radii)):
            km, kn = min(r, m - 1), min(r, n - 1)
            buf = np.zeros((pm, pn))
            buf[: 2 * km + 1, : 2 * kn + 1] = g[r - km : r + km + 1, r - kn : r + kn + 1]
            buf = np.roll(buf, (-km, -kn), axis=(0, 1))
            ghat[k] = rfft2(buf)
        plan = {"pad": (pm, pn), "ghat": ghat}
        self._plans[key] = plan
        return plan


def build_kernel_bank(
    grid: SigmaGrid, psf_sigma: float = 0.0, quad_order: int = 16
) -> KernelBank:
    """Integrate the pixel-response outer product across each scale bin.

    Kernel k is (1/sqrt(width_k)) * integral over the bin of the separable
    pixel response at scale sigma + psf_sigma, evaluated by Gauss-Legendre
    quadrature. The response is even in the offset, so the quadrature sum
    of outer products is formed once on the quarter offsets 0..r as
    rows.T @ diag(weights) @ rows (rank quad_order) and mirrored to the full
    (2r+1) x (2r+1) kernel. Each kernel is exactly symmetric under axis swap
    and flips, and its total mass is sqrt(width_k) up to tail truncation.
    """
    if not (np.isfinite(psf_sigma) and psf_sigma >= 0):
        raise ValueError(f"psf_sigma must be finite and >= 0, got {psf_sigma}")
    if quad_order < 1:
        raise ValueError(f"quad_order must be >= 1, got {quad_order}")
    nodes, wts = np.polynomial.legendre.leggauss(int(quad_order))
    kernels = []
    radii = []
    b = grid.boundaries
    for k in range(grid.n_bins):
        lo, hi = b[k], b[k + 1]
        r = kernel_radius(hi, psf_sigma)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        offsets = np.arange(r + 1)
        rows = np.stack(
            [omega(float(mid + half * x) + psf_sigma, offsets) for x in nodes]
        )
        q = (rows.T * (wts * half)) @ rows
        # the matmul need not round q[i, j] and q[j, i] alike
        q = np.triu(q) + np.triu(q, 1).T
        idx = np.abs(np.arange(-r, r + 1))
        g = q[idx][:, idx] / np.sqrt(hi - lo)
        np.maximum(g, 0.0, out=g)
        g.setflags(write=False)
        kernels.append(g)
        radii.append(r)
    return KernelBank(
        grid=grid,
        psf_sigma=float(psf_sigma),
        quad_order=int(quad_order),
        kernels=tuple(kernels),
        radii=tuple(radii),
    )


def tensor_data(a) -> np.ndarray:
    """The array inside a PsdrTensor, or ``a`` itself as a float64 array."""
    return a.data if isinstance(a, PsdrTensor) else np.asarray(a, dtype=np.float64)


def _spectrum(img: np.ndarray, pad: tuple[int, int]) -> np.ndarray:
    """rfft2 of ``img`` zero-padded to ``pad``, skipping the all-zero rows."""
    pm, pn = pad
    return fft(rfft(img, n=pn, axis=1), n=pm, axis=0)


def _crop_inverse(spec: np.ndarray, shape: tuple[int, int], pad: tuple[int, int]):
    """irfft2 of ``spec`` on the ``pad`` panel, cropped to ``shape``.

    Only the kept rows are inverted along the row axis; ``n=`` is needed
    because an odd padded width is not recoverable from the half spectrum.
    """
    m, n = shape
    return irfft(ifft(spec, axis=0)[:m], n=pad[1], axis=1)[:, :n]


def forward(a, bank: KernelBank) -> np.ndarray:
    """Apply the imaging operator: sum over bins of kernel_k (*) a[:, :, k]."""
    data = tensor_data(a)
    if data.ndim != 3 or data.shape[2] != bank.grid.n_bins:
        raise ValueError(
            f"tensor shape {data.shape} does not match the {bank.grid.n_bins}-bin bank"
        )
    m, n, _ = data.shape
    plan = bank.plan((m, n))
    pad = plan["pad"]
    acc = np.zeros((pad[0], pad[1] // 2 + 1), dtype=np.complex128)
    for k in range(bank.grid.n_bins):
        acc += _spectrum(data[:, :, k], pad) * plan["ghat"][k]
    return _crop_inverse(acc, (m, n), pad).copy()


def adjoint(d: np.ndarray, obs: Observation, bank: KernelBank) -> np.ndarray:
    """Apply the adjoint map: per bin, mask * (kernel_k (*) (weights^2 * d)).

    Kernels are symmetric, so convolution doubles as correlation.
    """
    img = np.asarray(d, dtype=np.float64)
    if img.shape != obs.data.shape:
        raise ValueError(f"image shape {img.shape} != observation {obs.data.shape}")
    m, n = img.shape
    out = np.empty((m, n, bank.grid.n_bins))
    plan = bank.plan((m, n))
    pad = plan["pad"]
    that = _spectrum(obs.weights * obs.weights * img, pad)
    for k in range(bank.grid.n_bins):
        out[:, :, k] = _crop_inverse(that * plan["ghat"][k], (m, n), pad)
    out *= obs.mask[:, :, None]
    return out


def weighted_misfit(fwd: np.ndarray, obs: Observation) -> float:
    """Squared weighted misfit sum(weights^2 * (fwd - data)^2) of an image.

    A sum too large for a float is +inf, without an overflow warning, so a
    diverging solve reports a non-finite objective.
    """
    with np.errstate(over="ignore"):
        return float(np.sum((obs.weights * (fwd - obs.data)) ** 2))


def op_norm_estimate(obs: Observation, bank: KernelBank, iters: int = 60) -> float:
    """Upper bound on the largest singular value of the weighted, masked operator.

    Power iteration on the image-side map d -> forward(adjoint(d)), started
    from 1 on the pixels with positive weight. Kernels are clipped at 0, so
    this map is entrywise non-negative, and on the positive-weight pixels it
    is similar to the symmetric A A^T. Each iterate's Collatz-Wielandt ratio,
    the largest (forward(adjoint(d)))_i / d_i over those pixels with d_i > 0,
    is therefore at least ||A||^2 (a weighted pixel that d never reaches has
    an all-zero row and column). The square root of the smallest ratio seen
    is returned: a bound for any ``iters`` >= 1 that never increases with
    it and closes on the norm as the iterates converge.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    live = obs.weights > 0
    d = live.astype(np.float64)
    bound = np.inf
    for _ in range(iters):
        y = forward(adjoint(d, obs, bank), bank)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        pos = live & (d > 0)
        bound = min(bound, float((y[pos] / d[pos]).max()))
        d = y / ny
    return float(np.sqrt(bound))
