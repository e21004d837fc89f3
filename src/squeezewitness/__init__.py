"""Local-oscillator-agnostic squeezing witnesses for two-mode bosonic states.

The package evaluates homodyne-difference fluctuation criteria that
certify nonclassicality of a probed signal mode without assuming anything
about the local oscillator, in closed form on Gaussian states, and checks
every formula against a truncated Fock-space brute-force oracle.

Names and submodules are imported on first access (PEP 562), so
``import squeezewitness`` loads nothing else and a command loads only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "gaussian": ("FieldMoments", "SingleModeGaussian", "StateParams", "coherent",
                 "db_to_squeeze", "diagonalize", "field_moments", "is_physical",
                 "make_state", "mean_photon", "rotate", "squeeze_to_db",
                 "squeezed_vacuum", "vacuum"),
    "channels": ("apply_gain_noise", "apply_loss"),
    "witness": ("CLASSICAL", "NONCLASSICAL", "TwoModeProduct", "WitnessValues",
                "evaluate", "homodyne_variance", "optimize_lo", "witness_values"),
    "opexpr": ("ExpressionError", "ExpressionSyntaxError", "OperatorExpr",
               "adjoint_product", "difference_observable", "formal_normal_order",
               "parse", "reorder"),
    "fock": ("ConvergenceError", "FockState", "TruncationError", "build_ladder",
             "converged_cutoff", "expect", "expr_matrix", "fock_state",
             "witness_general"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
