"""Reference gradient of the weighted data misfit.

The solver forms its gradient inline; this standalone form, built only from
the public ``forward`` and ``adjoint`` maps, is what the finite-difference,
linearity and optimality tests check against.
"""

import numpy as np

from invdiff.operator import adjoint, forward, tensor_data


def grad_data(a, obs, bank) -> np.ndarray:
    """Gradient of sum(weights^2 * (forward(a) - data)^2):
    2 * adjoint(forward(a) - data)."""
    return 2.0 * adjoint(forward(tensor_data(a), bank) - obs.data, obs, bank)
