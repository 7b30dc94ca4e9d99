"""Discrete scale-mixture imaging operator.

A bound-particle image is modeled as a sum over scale bins: each slice of a
scale-resolved source tensor is convolved with a pixel-integrated Gaussian
kernel for its bin and the results are added. This module builds those
kernels (exact pixel integration, Gauss-Legendre averaging across each bin)
and applies the forward map and its adjoint by FFT on a zero-padded panel.

The pixel response, the numeric bedrock of the kernels, lives here with one
implementation: ``_omega_rows`` gives it at offsets 0..r for many scales at
once (the bank takes one row per quadrature scale), and the public ``omega``
picks single offsets from such a row.

Each kernel is a weighted sum of separable outer products of a profile that
is even in both offsets, so the bank keeps only the factors: the scaled
response rows of a bin's quadrature nodes at offsets 0..r. The FFT plan sums
outer products of the rows' real 1-D spectra, and the full kernels are formed
only when asked for. Neither takes a BLAS call, so neither depends on the
BLAS thread count.
The image transforms skip the all-zero pad rows: a real FFT runs along each
of the M data rows to the padded width, then a complex FFT down the columns
to the padded height; the inverse takes the column pass first and runs the
real inverse on the M kept rows only.

A bank depends only on the scale grid, the PSF width and the quadrature
order, so ``build_kernel_bank`` keeps the last bank it built for the life
of the process and returns that same object for equal arguments, with the
FFT plans the bank has cached per image shape. Everything the bank hands
out is read-only: the rows, the kernels and every plan spectrum. The
default 128 x 128 configuration keeps about 2 MB this way: 0.18 MB of rows
and 1.85 MB of plan spectra. Nothing keyed on an observation is kept.

The package's two argument checks live here as well: ``check_count`` for
whole numbers and ``check_real`` for real numbers and arrays of them, whose
``bound`` is ``""`` (any finite value), ``"non-negative"`` or ``"positive"``.
Every module passes its numeric arguments through them, so a bad value
raises one kind of ValueError, which names the argument and the bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft


def check_count(name: str, value, lo: int) -> int:
    """``value`` as an int, if it is a whole number (NumPy integers and
    integral floats included) of at least ``lo``; otherwise a ValueError
    that names the argument."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return whole


def check_real(name: str, value, bound: str = "") -> float | np.ndarray:
    """``value`` as a float, or as a float64 array if it is array-like, if
    every entry is finite and ``bound`` (``""``, ``"non-negative"`` or
    ``"positive"``); otherwise a ValueError that names the argument. Strings,
    None and objects that NumPy holds only as objects are not numbers."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        arr = np.asarray(None)
    if arr.dtype.kind in "biuf":
        arr = arr.astype(np.float64, copy=False)
        # the extremes decide, in one pass each; a NaN fails every comparison
        if arr.ndim == 0:
            low = high = float(arr)
        else:
            low, high = arr.min(initial=np.inf), arr.max(initial=-np.inf)
        ok = low > 0.0 if bound == "positive" else low >= 0.0 or not bound
        if -np.inf < low and high < np.inf and ok:
            return low if arr.ndim == 0 else arr
    got = f", got {value!r}" if arr.ndim == 0 else ""
    raise ValueError(f"{name} must be finite{' and ' + bound if bound else ''}{got}")


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

    def _key(self):
        return tuple(self.boundaries.tolist()), self.support_set

    def __eq__(self, other):
        return isinstance(other, SigmaGrid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __post_init__(self):
        b = np.atleast_1d(check_real("boundaries", self.boundaries)).copy()
        if b.ndim != 1 or b.size < 2:
            raise ValueError("boundaries needs at least two entries (K >= 1)")
        if b[0] != 0.0:
            raise ValueError(f"first boundary must be 0, got {b[0]}")
        if not (np.diff(b) > 0).all():
            raise ValueError("boundaries must be strictly increasing")
        k = b.size - 1
        sup = tuple(sorted({check_count("support_set", s, 1) for s in self.support_set}))
        if not sup:
            raise ValueError("support_set must not be empty")
        if sup[-1] > k:
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
        d = check_real("data", self.data, "non-negative")
        if np.ndim(d) != 3:
            raise ValueError(f"data must be M x N x K, got shape {np.shape(d)}")
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
        d = check_real("data", self.data)
        w = check_real("weights", self.weights, "non-negative")
        m = check_real("mask", self.mask)
        if np.ndim(d) != 2:
            raise ValueError(f"data must be 2D, got shape {np.shape(d)}")
        if np.shape(w) != d.shape or m.shape != d.shape:
            raise ValueError("weights and mask must match the data shape")
        if not (w > 0).any():
            raise ValueError("at least one weight must be positive")
        if not np.isin(m, (0.0, 1.0)).all():
            raise ValueError("mask must be binary (0/1)")
        for name, arr in (("data", d), ("weights", w), ("mask", m)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def plain(cls, data: np.ndarray) -> "Observation":
        """Observation with unit weights and a full mask."""
        shape = np.shape(data)
        return cls(data, np.ones(shape), np.ones(shape))


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
    sigma = check_real("sigma", sigma, "non-negative")
    m_arr = np.atleast_1d(np.asarray(m))
    if not np.issubdtype(m_arr.dtype, np.integer):
        raise ValueError("pixel offset m must be integer")
    scalar = np.isscalar(m) or np.asarray(m).ndim == 0
    am = np.abs(m_arr.astype(np.int64))
    row = _omega_rows(np.array([sigma]), int(am.max(initial=0)))[0]
    out = row[am]
    return float(out[0]) if scalar else out


def kernel_radius(sigma_hi: float, psf_sigma: float) -> int:
    """Truncation radius for a bin whose top scale is ``sigma_hi``.

    Six standard deviations plus margin keep the discarded tail mass of each
    kernel below 1e-7 of its nominal mass.
    """
    sigma_hi = check_real("sigma_hi", sigma_hi, "non-negative")
    psf_sigma = check_real("psf_sigma", psf_sigma, "non-negative")
    return int(np.ceil(6.0 * (sigma_hi + psf_sigma))) + 2


@dataclass(frozen=True, eq=False)
class KernelBank:
    """Per-bin convolution kernels, fixed after construction.

    Kernel k is the sum over quadrature nodes t of u_t (x) u_t, so only the
    even rows are stored: ``rows[k][t, i]`` is u_t at offsets +-i, 0 <= i <=
    r_k, in a read-only (quad_order, r_k + 1) array. Banks compare by identity.
    """

    grid: SigmaGrid
    psf_sigma: float
    quad_order: int
    rows: tuple[np.ndarray, ...]
    radii: tuple[int, ...]
    _plans: dict = field(default_factory=dict, repr=False)

    @property
    def kernels(self) -> tuple[np.ndarray, ...]:
        """The full (2r+1) x (2r+1) kernels, summed and mirrored from the rows.

        Built afresh on each access (read-only, nothing cached) as fixed-order
        sums of u_ti * u_tj, so each is exactly symmetric; the operator reads
        only the rows.
        """
        out = []
        for u, r in zip(self.rows, self.radii):
            idx = np.abs(np.arange(-r, r + 1))
            g = np.einsum("ti,tj->ij", u, u)[idx][:, idx]
            g.setflags(write=False)
            out.append(g)
        return tuple(out)

    def plan(self, shape: tuple[int, int]) -> dict:
        """Cached spectral data for images of the given shape.

        ``ghat`` holds one read-only, real half spectrum per bin, on the
        ``pad`` panel.

        A 'same' convolution on an M x N image never reaches kernel offsets
        beyond M-1 rows or N-1 columns, so each kernel is cropped to that
        reach before its spectrum is taken; the result is unchanged. The
        cropped kernel sits in the pad panel with offset (i, j) at
        (i mod pm, j mod pn), so its spectrum is the sum over nodes of the
        outer product of the row spectra on pm and on pn points.
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
        ghat = np.empty((len(self.rows), pm, pn // 2 + 1))
        for k, (u, r) in enumerate(zip(self.rows, self.radii)):
            col = _even_spectra(u, min(r, n - 1), pn)[:, : pn // 2 + 1]
            ghat[k] = np.einsum("ti,tj->ij", _even_spectra(u, min(r, m - 1), pm), col)
        ghat.setflags(write=False)
        plan = {"pad": (pm, pn), "ghat": ghat}
        self._plans[key] = plan
        return plan


def _even_spectra(u: np.ndarray, reach: int, p: int) -> np.ndarray:
    """Real spectra on p points of the even rows ``u`` cut to offsets +-reach."""
    buf = np.zeros((u.shape[0], p))
    buf[:, : reach + 1] = u[:, : reach + 1]
    buf[:, p - reach :] = u[:, reach:0:-1]
    return fft(buf, axis=1).real


def build_kernel_bank(
    grid: SigmaGrid, psf_sigma: float = 0.0, quad_order: int = 16
) -> KernelBank:
    """Integrate the pixel-response outer product across each scale bin.

    Kernel k is (1/sqrt(width_k)) * integral over the bin of the separable
    pixel response at scale sigma + psf_sigma, evaluated by Gauss-Legendre
    quadrature as sum_t c_t rho_t (x) rho_t, c_t = w_t * half_k / sqrt(width_k).
    The response rho_t is even and non-negative, so the bank keeps the rows
    u_t = sqrt(c_t) * rho_t at offsets 0..r (0.18 MB for the default grid),
    and each kernel is non-negative as a sum of their outer products. Its
    total mass is sqrt(width_k) up to tail truncation.
    """
    psf_sigma = check_real("psf_sigma", psf_sigma, "non-negative")
    return _cached_bank(grid, psf_sigma, check_count("quad_order", quad_order, 1))


# banks kept per process: a run uses one configuration at a time
_BANK_CACHE_SIZE = 1


@functools.lru_cache(maxsize=_BANK_CACHE_SIZE)
def _cached_bank(grid, psf_sigma, quad_order) -> KernelBank:
    """The bank of ``build_kernel_bank`` on normalized arguments."""
    nodes, wts = np.polynomial.legendre.leggauss(quad_order)
    rows, radii = [], []
    b = grid.boundaries
    for k in range(grid.n_bins):
        lo, hi = b[k], b[k + 1]
        r = kernel_radius(hi, psf_sigma)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        u = _omega_rows(mid + half * nodes + psf_sigma, r)
        u *= np.sqrt(wts * half / np.sqrt(hi - lo))[:, None]
        u.setflags(write=False)
        rows.append(u)
        radii.append(r)
    return KernelBank(grid, psf_sigma, quad_order, tuple(rows), tuple(radii))


def tensor_data(a) -> np.ndarray:
    """The array inside a PsdrTensor, or ``a`` itself as a float64 array."""
    return a.data if isinstance(a, PsdrTensor) else np.asarray(a, dtype=np.float64)


def _spectrum(img: np.ndarray, pad: tuple[int, int]) -> np.ndarray:
    """2-D real FFT of ``img`` zero-padded to ``pad``, skipping the all-zero rows."""
    pm, pn = pad
    return fft(rfft(img, n=pn, axis=1), n=pm, axis=0)


def _crop_inverse(spec: np.ndarray, shape: tuple[int, int], pad: tuple[int, int]):
    """Inverse 2-D real FFT of ``spec`` on the ``pad`` panel, cropped to ``shape``.

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

    Power iteration on the image-side map d -> forward(adjoint(d)). No
    kernel reaches past max(bank.radii) pixels in either axis, so the map
    is exactly zero in the row and the column of every pixel with no
    masked-in pixel that close, and of every pixel with zero weight (its
    column). The iteration therefore runs only on the reached pixels: the
    positive-weight pixels with a masked-in pixel within that reach. It
    starts from 1 on them and zeroes every iterate elsewhere, where it holds
    only FFT round-off. Kernels are sums of non-negative outer products, so
    on the reached pixels the map is entrywise non-negative and similar to
    the symmetric A A^T. Each iterate's Collatz-Wielandt ratio, the largest
    (forward(adjoint(d)))_i / d_i over reached pixels with d_i > 0, is
    therefore at least ||A||^2 (a reached pixel that d never reaches has an
    all-zero row and column). The square root of the smallest ratio seen is
    returned: a bound for any ``iters`` >= 1 that never increases with it
    and closes on the norm as the iterates converge. With no reached pixel
    the operator is zero and 0.0 is returned exactly; a bound near 1e-16
    would make the step absurdly long.
    """
    iters = check_count("iters", iters, 1)
    # summed-area table of the mask: masked pixels in each weighted pixel's
    # (2r + 1)-square reach
    r, (m, n) = max(bank.radii), obs.mask.shape
    sat = np.zeros((m + 1, n + 1))
    sat[1:, 1:] = obs.mask.cumsum(axis=0).cumsum(axis=1)
    i, j = np.nonzero(obs.weights > 0)
    i0, i1 = np.maximum(i - r, 0), np.minimum(i + r + 1, m)
    j0, j1 = np.maximum(j - r, 0), np.minimum(j + r + 1, n)
    reached = np.zeros((m, n), dtype=bool)
    reached[i, j] = (sat[i1, j1] - sat[i0, j1] - sat[i1, j0] + sat[i0, j0]) > 0
    if not reached.any():
        return 0.0
    d = reached.astype(np.float64)
    bound = np.inf
    for _ in range(iters):
        y = forward(adjoint(d, obs, bank), bank)
        y[~reached] = 0.0
        ny = np.sqrt(np.einsum("ij,ij->", y, y))
        if ny == 0.0:
            return 0.0
        pos = d > 0
        bound = min(bound, float((y[pos] / d[pos]).max()))
        d = y / ny
    return float(np.sqrt(bound))
