"""Output checks, run outside the timed region of each pass.

The synthesis check re-derives ``clean.idf`` from ``psdr.idf`` with
``scipy.signal`` and its own file reader, so it shares no code path with the
package's operator or tensor I/O. A failed check fails its pass.
"""

from __future__ import annotations

import csv
import struct

import numpy as np
from scipy import signal

# FFT round-off of either convolution is near 1e-15 of the image peak
CLEAN_REL_TOL = 1e-9
# a cost may rise by round-off only (acceptance criterion 8 uses the same rule)
MONOTONE_REL_TOL = 1e-10


def read_idf(path) -> np.ndarray:
    """Parse a tensor file: b"IDF1", uint32 rank, uint32 dims, float64 data (LE)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"IDF1":
        raise ValueError(f"{path}: bad magic")
    (rank,) = struct.unpack_from("<I", raw, 4)
    shape = struct.unpack_from(f"<{rank}I", raw, 8)
    body = raw[8 + 4 * rank:]
    if len(body) != 8 * int(np.prod(shape)):
        raise ValueError(f"{path}: payload size does not match shape {shape}")
    return np.frombuffer(body, dtype="<f8").reshape(shape)


def read_truth_rows(path):
    """(m, n, t_start, t_stop) per row of a truth CSV, windows as whole seconds."""
    with open(path, newline="") as fh:
        return [
            (int(r["m"]), int(r["n"]), round(float(r["t_start"])), round(float(r["t_stop"])))
            for r in csv.DictReader(fh)
        ]


def crop_kernels(kernels, shape):
    """Crop centred kernels to the offsets a 'same' convolution can reach.

    On an M x N image no output pixel sees an input more than max(M, N) - 1
    pixels away, so the crop leaves the 'same' result unchanged.
    """
    reach = max(shape) - 1
    out = []
    for g in kernels:
        r = g.shape[0] // 2
        c = min(r, reach)
        out.append(np.asarray(g)[r - c:r + c + 1, r - c:r + c + 1])
    return out


def check_clean(psdr: np.ndarray, clean: np.ndarray, kernels) -> list:
    """clean must equal the per-bin 'same' convolution of psdr, summed."""
    if psdr.ndim != 3 or clean.shape != psdr.shape[:2] or psdr.shape[2] != len(kernels):
        return [f"clean {clean.shape} / psdr {psdr.shape} do not match {len(kernels)} kernels"]
    ref = sum(
        signal.fftconvolve(psdr[:, :, k], g, mode="same")
        for k, g in enumerate(crop_kernels(kernels, clean.shape))
    )
    peak = float(np.abs(ref).max())
    err = float(np.abs(clean - ref).max())
    if not np.isfinite(err) or err > CLEAN_REL_TOL * max(peak, np.finfo(float).tiny):
        return [f"clean.idf differs from scipy.signal reference: max err {err:.3e}, peak {peak:.3e}"]
    return []


def check_truth(rows, emitters) -> list:
    """truth.csv lists exactly the generated emitters, in order."""
    if rows != [tuple(e) for e in emitters]:
        return [f"truth.csv holds {len(rows)} rows that differ from the {len(emitters)} generated emitters"]
    return []


def check_trace(trace) -> list:
    """Finite, non-increasing cost trace and a finite positive operator norm."""
    costs = np.asarray(trace.costs, dtype=float)
    problems = []
    if costs.size == 0 or not np.isfinite(costs).all():
        problems.append("cost trace is empty or not finite")
    elif (np.diff(costs) > MONOTONE_REL_TOL * max(1.0, abs(costs[0]))).any():
        problems.append("cost trace increases")
    if not (np.isfinite(trace.op_norm) and trace.op_norm > 0):
        problems.append(f"operator norm {trace.op_norm!r} is not finite and positive")
    return problems
