"""Homodyne-difference statistics and the LO-agnostic squeezing witness.

The measured observable is the photon-number difference behind a balanced
beam splitter with LO phase control.  On a product of two modes its
variance depends only on each mode's field moments ``<a>``, ``<a^2>`` and
``<a^dag a>``, and is evaluated in closed form from them; the witness
subtracts the LO shot-noise reference ``<b^dag b>`` so that a negative
value certifies nonclassicality of the signal mode alone, independent of
what the LO is.  Subtracting the signal intensity as well yields the
conventional two-mode criterion, which is reported alongside but never
drives the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .gaussian import (
    SingleModeGaussian,
    StateParams,
    field_moments,
    is_physical,
    make_state,
    mean_photon,
)

__all__ = [
    "TwoModeProduct",
    "WitnessValues",
    "ColumnError",
    "NONCLASSICAL",
    "CLASSICAL",
    "DEFAULT_VERDICT_TOL",
    "ZERO_VARIANCE_TOL",
    "homodyne_variance",
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
    """An uncorrelated signal/local-oscillator pair.

    The closed forms read each mode only through its mean field and central
    second moments, so they hold for any product input; construction checks
    each mode with :func:`is_physical`.
    """

    si: SingleModeGaussian
    lo: SingleModeGaussian

    def __post_init__(self):
        for name, mode in (("si", self.si), ("lo", self.lo)):
            if not is_physical(mode):
                raise ValueError(f"{name} state violates the uncertainty bound")


def homodyne_variance(state: TwoModeProduct, theta):
    """Variance of the measured photon-number difference, elementwise in
    ``theta``, which may be a scalar or an array.

    With ``L = e^(i theta) a^dag b + e^(-i theta) a b^dag`` on a product
    state, ``Var(L) = 2 Re(e^(2 i theta) <a^2>* <b^2>) + <a^dag a><b b^dag>
    + <a a^dag><b^dag b> - (2 Re(e^(i theta) <a>* <b>))^2``, read from each
    mode's :func:`field_moments`.
    """
    a, b = field_moments(state.si), field_moments(state.lo)
    theta = np.asarray(theta, dtype=float)
    sq = np.conj(a.a_sq) * b.a_sq
    mean = np.conj(a.mean_a) * b.mean_a
    half_mean = np.cos(theta) * mean.real - np.sin(theta) * mean.imag  # <L> / 2
    return (2.0 * (np.cos(2.0 * theta) * sq.real - np.sin(2.0 * theta) * sq.imag)
            + a.n_a * b.aa_dag + a.aa_dag * b.n_a - 4.0 * (half_mean * half_mean))


class WitnessValues(NamedTuple):
    """Elementwise results of :func:`witness_values`; the last two are
    ``None`` unless the signal intensity ``na`` was given."""

    var_L: np.ndarray
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
    nb)``, ``-inf`` where ``var_L <= ZERO_VARIANCE_TOL`` and taken as a
    difference of logarithms where the ratio overflows.  ``full_no =
    partial_no - na``, the conventional criterion, never drives the verdict:
    the LO alone can make it negative.  Raises :class:`ColumnError` at the
    first non-finite ``var_L``, ``nb`` or ``na`` or ``nb <= 0``, then at the
    first ``partial_no`` or ``full_no`` that overflows to infinity, and
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

    # Finite cells can still overflow a difference; name the first such row.
    with np.errstate(over="ignore"):
        partial = var_L - nb
        full = None if na is None else partial - na
    require("partial_no", partial, np.isfinite(partial), "is not finite")
    if full is not None:
        require("full_no", full, np.isfinite(full), "is not finite")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        noise_db = np.where(var_L <= ZERO_VARIANCE_TOL, -np.inf,
                            10.0 * np.log10(var_L / nb))
        # +inf only where the ratio overflowed; the fallback's full-size
        # temporaries are paid only when some row needs it.
        if np.max(noise_db, initial=-np.inf) == np.inf:
            noise_db = np.where(np.isposinf(noise_db),
                                10.0 * (np.log10(var_L) - np.log10(nb)), noise_db)
    if full is None:
        return WitnessValues(var_L, partial, noise_db, partial < -tol)
    return WitnessValues(var_L, partial, noise_db, partial < -tol, full, full < -tol)


def evaluate(state: TwoModeProduct, theta,
             tol: float = DEFAULT_VERDICT_TOL) -> WitnessValues:
    """The kernel's values for one state at LO phase ``theta``, which may be
    a scalar or an array; a dark LO (``<b^dag b> <= 0``) raises
    :class:`ColumnError` naming ``nb``."""
    return witness_values(homodyne_variance(state, theta), mean_photon(state.lo),
                          mean_photon(state.si), tol)


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
