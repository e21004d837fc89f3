"""Local-oscillator-agnostic squeezing witnesses for two-mode bosonic states.

The package evaluates homodyne-difference fluctuation criteria that
certify nonclassicality of a probed signal mode without assuming anything
about the local oscillator, in closed form on Gaussian states, and checks
every formula against a truncated Fock-space brute-force oracle.
"""

from .gaussian import (
    FieldMoments,
    SingleModeGaussian,
    StateParams,
    coherent,
    db_to_squeeze,
    diagonalize,
    field_moments,
    is_physical,
    make_state,
    mean_photon,
    rotate,
    squeeze_to_db,
    squeezed_vacuum,
    vacuum,
)
from .channels import apply_gain_noise, apply_loss
from .witness import (
    CLASSICAL,
    NONCLASSICAL,
    TwoModeProduct,
    WitnessReport,
    evaluate,
    homodyne_variance,
    optimize_lo,
    ordered_variances,
    witness_values,
)
from .opexpr import (
    ExpressionError,
    ExpressionSyntaxError,
    OperatorExpr,
    adjoint_product,
    difference_observable,
    formal_normal_order,
    parse,
    reorder,
)
from .fock import (
    ConvergenceError,
    FockState,
    LadderMatrices,
    TruncationError,
    build_ladder,
    converged_cutoff,
    expect,
    expr_matrix,
    fock_state,
    witness_general,
)

__version__ = "0.1.0"

__all__ = [
    "FieldMoments",
    "SingleModeGaussian",
    "StateParams",
    "coherent",
    "db_to_squeeze",
    "diagonalize",
    "field_moments",
    "is_physical",
    "make_state",
    "mean_photon",
    "rotate",
    "squeeze_to_db",
    "squeezed_vacuum",
    "vacuum",
    "apply_gain_noise",
    "apply_loss",
    "CLASSICAL",
    "NONCLASSICAL",
    "TwoModeProduct",
    "WitnessReport",
    "evaluate",
    "homodyne_variance",
    "optimize_lo",
    "ordered_variances",
    "witness_values",
    "ExpressionError",
    "ExpressionSyntaxError",
    "OperatorExpr",
    "adjoint_product",
    "difference_observable",
    "formal_normal_order",
    "parse",
    "reorder",
    "ConvergenceError",
    "FockState",
    "LadderMatrices",
    "TruncationError",
    "build_ladder",
    "converged_cutoff",
    "expect",
    "expr_matrix",
    "fock_state",
    "witness_general",
    "__version__",
]
