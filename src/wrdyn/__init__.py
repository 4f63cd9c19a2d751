"""wrdyn: simulation and verification of square-root residual-projection dynamics.

The package iterates the PSD map R -> R^{1/2} (I - uu*) R^{1/2}, certifies the
run against the exact identities the dynamics must satisfy, classifies the
limit where the structure theory decides it, and cross-validates the matrix
path against independent scalar recursions.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import cli, dynamics, ensembles, identities, matcore, oracle, structure
from .dynamics import (
    CONV_TOL_DEFAULT,
    MAX_ITER_DEFAULT,
    RANK_TOL_DEFAULT,
    StepRecord,
    WRConfig,
    WRTrace,
    iterate,
    iterate_weighted,
    weighted_step,
)
from .errors import (
    DimensionMismatch,
    IndefiniteInput,
    NonFiniteInput,
    NonHermitianInput,
    NotStrictlyPositive,
    NumericalBreakdown,
    WRDynError,
    WeightTooLarge,
)
from .identities import (
    GrowthBounds,
    InverseStats,
    check_B_decrement,
    check_a_recursion,
    check_det_decay,
    check_growth_bounds,
    check_inverse_update,
    check_transverse_persistence,
    defect_inverse_floor,
    inverse_stats,
    trace_inverse_floor,
)
from .matcore import (
    as_psd,
    compress,
    hermitian_part,
    krylov_span,
    loewner_leq,
    numerical_rank,
    opnorm,
    orth_complement,
    psd_sqrt,
    range_basis,
    require_hermitian,
    sqrt2x2,
)
from .oracle import (
    DET_TRUST_RATIO,
    ScalarTrace,
    ValidationReport,
    cross_validate,
    general_weight_recursion,
    half_weight_recursion,
)
from .structure import (
    ClassificationResult,
    InstanceReport,
    StationarityReport,
    analyze_instance,
    is_stationary,
    predict_limit,
)

__all__ = [
    "__version__",
    # modules
    "cli",
    "dynamics",
    "ensembles",
    "identities",
    "matcore",
    "oracle",
    "structure",
    # dynamics
    "CONV_TOL_DEFAULT",
    "MAX_ITER_DEFAULT",
    "RANK_TOL_DEFAULT",
    "StepRecord",
    "WRConfig",
    "WRTrace",
    "iterate",
    "iterate_weighted",
    "weighted_step",
    # errors
    "DimensionMismatch",
    "IndefiniteInput",
    "NonFiniteInput",
    "NonHermitianInput",
    "NotStrictlyPositive",
    "NumericalBreakdown",
    "WRDynError",
    "WeightTooLarge",
    # identities
    "GrowthBounds",
    "InverseStats",
    "check_B_decrement",
    "check_a_recursion",
    "check_det_decay",
    "check_growth_bounds",
    "check_inverse_update",
    "check_transverse_persistence",
    "defect_inverse_floor",
    "inverse_stats",
    "trace_inverse_floor",
    # matcore
    "as_psd",
    "compress",
    "hermitian_part",
    "krylov_span",
    "loewner_leq",
    "numerical_rank",
    "opnorm",
    "orth_complement",
    "psd_sqrt",
    "range_basis",
    "require_hermitian",
    "sqrt2x2",
    # oracle
    "DET_TRUST_RATIO",
    "ScalarTrace",
    "ValidationReport",
    "cross_validate",
    "general_weight_recursion",
    "half_weight_recursion",
    # structure
    "ClassificationResult",
    "InstanceReport",
    "StationarityReport",
    "analyze_instance",
    "is_stationary",
    "predict_limit",
]
