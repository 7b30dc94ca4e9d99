"""Source localization for surface-binding diffusion imaging.

Particles released by point emitters diffuse above a capturing surface;
the surface image of captured particles is a scale-mixture of Gaussian
blobs. This package synthesizes such images from emitter layouts and
recovers emitter positions from observed images by non-negative
group-sparse reconstruction.
"""

__version__ = "0.1.0"

from .config import RunConfig, default_config, parse_config, parse_config_text
from .detect import (
    DetectionResult,
    MatchReport,
    aggregate_map,
    find_sources,
    match_and_score,
)
from .operator import (
    KernelBank,
    Observation,
    PsdrTensor,
    SigmaGrid,
    adjoint,
    build_kernel_bank,
    forward,
    kernel_radius,
    omega,
    op_norm_estimate,
)
from .physics import (
    PhiTable,
    PhysicalParams,
    Source,
    capture_fraction,
    phi_general,
    phi_no_desorption,
    phi_norm_sq,
    sensor_model,
    synth_psdr,
    truncation_order,
)
from .solver import (
    SolveTrace,
    SolverConfig,
    SolverDivergenceError,
    cost,
    fista_solve,
    group_norm_sum,
    lambda_max,
    prox_group_nonneg,
)
from .tensorio import (
    read_pgm16,
    read_positions_csv,
    read_tensor,
    write_pgm16,
    write_tensor,
    write_truth_csv,
)

__all__ = [
    "__version__",
    "RunConfig",
    "default_config",
    "parse_config",
    "parse_config_text",
    "DetectionResult",
    "MatchReport",
    "aggregate_map",
    "find_sources",
    "match_and_score",
    "omega",
    "KernelBank",
    "Observation",
    "PsdrTensor",
    "SigmaGrid",
    "adjoint",
    "build_kernel_bank",
    "forward",
    "kernel_radius",
    "op_norm_estimate",
    "PhiTable",
    "PhysicalParams",
    "Source",
    "capture_fraction",
    "phi_general",
    "phi_no_desorption",
    "phi_norm_sq",
    "sensor_model",
    "synth_psdr",
    "truncation_order",
    "SolveTrace",
    "SolverConfig",
    "SolverDivergenceError",
    "cost",
    "fista_solve",
    "group_norm_sum",
    "lambda_max",
    "prox_group_nonneg",
    "read_pgm16",
    "read_positions_csv",
    "read_tensor",
    "write_pgm16",
    "write_tensor",
    "write_truth_csv",
]
