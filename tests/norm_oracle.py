"""Dense spectral-norm oracle for the weighted, masked imaging operator.

Builds the explicit matrix W A M column by column, one ``forward`` call per
basis tensor, and takes its largest singular value with LAPACK. Only for
problems small enough that M*N*K columns fit in memory.
"""

import numpy as np

from invdiff import forward


def dense_norm(obs, bank) -> float:
    m, n = obs.data.shape
    k = bank.grid.n_bins
    cols = np.empty((m * n, m * n * k))
    basis = np.zeros(m * n * k)
    for j in range(m * n * k):
        basis[j] = 1.0
        a = basis.reshape(m, n, k) * obs.mask[:, :, None]
        cols[:, j] = (obs.weights * forward(a, bank)).ravel()
        basis[j] = 0.0
    return float(np.linalg.norm(cols, 2))
