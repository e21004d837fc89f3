"""Homodyne-difference statistics and the LO-agnostic squeezing witness.

The measured observable is the photon-number difference behind a balanced
beam splitter with LO phase control.  Its variance on a product of two
Gaussian modes is evaluated in closed form from the covariance data; the
witness subtracts the LO shot-noise reference ``<b^dag b>`` so that a
negative value certifies nonclassicality of the signal mode alone,
independent of what the LO is.  Subtracting the signal intensity as well
yields the conventional two-mode criterion, which is reported alongside
but never drives the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .gaussian import (
    SingleModeGaussian,
    StateParams,
    is_physical,
    make_state,
    mean_photon,
    rotation_matrix,
)

__all__ = [
    "TwoModeProduct",
    "WitnessReport",
    "WitnessValues",
    "ColumnError",
    "NONCLASSICAL",
    "CLASSICAL",
    "DEFAULT_VERDICT_TOL",
    "ZERO_VARIANCE_TOL",
    "homodyne_variance",
    "ordered_variances",
    "require",
    "witness_values",
    "evaluate",
    "optimize_lo",
]

NONCLASSICAL = "nonclassical_SI"
CLASSICAL = "classical_consistent"

DEFAULT_VERDICT_TOL = 1e-9

# Variances at or below this are treated as exactly zero when forming the
# logarithmic noise parameter.
ZERO_VARIANCE_TOL = 1e-15


@dataclass(frozen=True)
class TwoModeProduct:
    """An uncorrelated signal/local-oscillator pair of Gaussian modes."""

    si: SingleModeGaussian
    lo: SingleModeGaussian

    def __post_init__(self):
        for name, mode in (("si", self.si), ("lo", self.lo)):
            if not is_physical(mode):
                raise ValueError(f"{name} state violates the uncertainty bound")


@dataclass(frozen=True)
class WitnessReport:
    """Witness evaluation at one LO phase.

    ``partial_no`` is the LO-agnostic ordered variance
    (``var_L - shot_noise``), ``full_no`` additionally subtracts the signal
    intensity.  ``noise_db`` may be ``-inf`` when the variance vanishes.
    """

    theta: float
    var_L: float
    partial_no: float
    full_no: float
    shot_noise: float
    noise_db: float
    verdict: str


def homodyne_variance(state: TwoModeProduct, theta: float) -> float:
    """Variance of the measured photon-number difference.

    Evaluates ``tr(C R^T C' R) - 1/2 + xi^T R^T C' R xi + xi'^T R C R^T xi'``
    with ``R = R_theta`` and primed quantities belonging to the LO.
    """
    r = rotation_matrix(theta)
    c_si, c_lo = state.si.cov, state.lo.cov
    xi_si, xi_lo = state.si.disp, state.lo.disp
    rot_lo = r.T @ c_lo @ r
    return float(
        np.trace(c_si @ rot_lo) - 0.5
        + xi_si @ rot_lo @ xi_si
        + xi_lo @ r @ c_si @ r.T @ xi_lo
    )


def ordered_variances(state: TwoModeProduct, theta: float) -> tuple[float, float, float]:
    """Raw, LO-agnostic, and fully ordered variances of the difference signal.

    Returns ``(var_L, partial_no, full_no)`` where
    ``partial_no = var_L - <b^dag b>`` and
    ``full_no = var_L - <a^dag a> - <b^dag b>``.
    """
    var = homodyne_variance(state, theta)
    partial = var - mean_photon(state.lo)
    return var, partial, partial - mean_photon(state.si)


class WitnessValues(NamedTuple):
    """Elementwise results of :func:`witness_values`; the last two are
    ``None`` unless the signal intensity ``na`` was given."""

    partial_no: np.ndarray
    noise_db: np.ndarray
    nonclassical: np.ndarray
    full_no: np.ndarray | None = None
    standard_negativity: np.ndarray | None = None


class ColumnError(ValueError):
    """An element of a named input column breaks a rule; ``index`` is the
    flat index of the first offending element."""

    def __init__(self, column: str, index: int, value: float, rule: str):
        super().__init__(f"{column}[{index}] = {value!r} {rule}")
        self.column, self.index, self.value, self.rule = column, index, value, rule


def require(column: str, values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Raise :class:`ColumnError` at the first element where ``ok`` is false."""
    if not np.all(ok):
        index = int(np.argmin(np.ravel(ok)))
        raise ColumnError(column, index, float(np.ravel(values)[index]), rule)


def witness_values(var_L, nb, na=None,
                   tol: float = DEFAULT_VERDICT_TOL) -> WitnessValues:
    """The verdict kernel, elementwise on arrays or scalars.

    ``partial_no = var_L - nb`` is the LO-agnostic ordered variance and
    drives the verdict ``partial_no < -tol``; ``noise_db = 10 log10(var_L /
    nb)``, ``-inf`` where ``var_L <= ZERO_VARIANCE_TOL``.  ``full_no =
    partial_no - na``, the conventional criterion, never drives the verdict:
    the LO alone can make it negative.  Raises :class:`ColumnError` at the
    first non-finite ``var_L``, ``nb`` or ``na`` or ``nb <= 0``, and
    ``ValueError`` for a non-finite or negative ``tol``.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    var_L = np.asarray(var_L, dtype=float)
    nb = np.asarray(nb, dtype=float)
    columns = {"var_L": var_L, "nb": nb}
    if na is not None:
        na = columns["na"] = np.asarray(na, dtype=float)
    for column, values in columns.items():
        require(column, values, np.isfinite(values), "is not finite")
    require("nb", nb, nb > 0, "is not > 0: the shot-noise reference is undefined")

    partial = var_L - nb
    with np.errstate(divide="ignore", invalid="ignore"):
        noise_db = np.where(var_L <= ZERO_VARIANCE_TOL, -np.inf,
                            10.0 * np.log10(var_L / nb))
    if na is None:
        return WitnessValues(partial, noise_db, partial < -tol)
    full = partial - na
    return WitnessValues(partial, noise_db, partial < -tol, full, full < -tol)


def evaluate(state: TwoModeProduct, theta: float,
             tol: float = DEFAULT_VERDICT_TOL) -> WitnessReport:
    """Full witness report for one state at one LO phase."""
    var = homodyne_variance(state, theta)
    shot = mean_photon(state.lo)
    values = witness_values(var, shot, mean_photon(state.si), tol)
    return WitnessReport(
        theta=float(theta), var_L=var, partial_no=float(values.partial_no),
        full_no=float(values.full_no), shot_noise=shot,
        noise_db=float(values.noise_db),
        verdict=NONCLASSICAL if values.nonclassical else CLASSICAL,
    )


def optimize_lo(si: SingleModeGaussian,
                candidates: Iterable[tuple[StateParams, float]],
                ) -> tuple[tuple[StateParams, float], float]:
    """Exhaustive search for the LO/phase pair with strongest noise suppression.

    ``candidates`` yields ``(lo_params, theta)`` pairs.  Returns the winner
    and its noise parameter; ties are broken by smaller squeezing, then
    smaller phase, then smaller orientation angle.
    """
    best_key = None
    best: tuple[tuple[StateParams, float], float] | None = None
    for params, theta in candidates:
        state = TwoModeProduct(si=si, lo=make_state(params))
        noise_db = evaluate(state, theta).noise_db
        key = (noise_db, params.zeta, theta, params.phi)
        if best_key is None or key < best_key:
            best_key = key
            best = ((params, theta), noise_db)
    if best is None:
        raise ValueError("candidate grid must be nonempty")
    return best
