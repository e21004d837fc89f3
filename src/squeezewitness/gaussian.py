"""Single-mode moments: one type for any mode, Gaussian construction and checks.

Conventions used throughout the package: hbar = 1, [x, p] = i, and the
vacuum quadrature variance is 1/2.  A mode is a :class:`ModeMoments`, its
mean field ``<a>`` and central second moments ``<a^2> - <a>^2`` and
``<a^dag a> - |<a>|^2``; these describe any state, Gaussian or not.  The
squeezing parameter ``zeta`` squeezes the x quadrature for ``zeta > 0`` at
orientation ``phi = 0``, and a squeezing strength of ``s`` dB corresponds
to ``zeta = s * ln(10) / 20``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeMoments",
    "StateParams",
    "ColumnError",
    "require",
    "db_to_squeeze",
    "squeeze_to_db",
    "make_state",
    "vacuum",
    "coherent",
    "squeezed_vacuum",
    "mean_photon",
    "is_physical",
]


def db_to_squeeze(db: float) -> float:
    """Convert a squeezing strength in dB to the squeezing parameter."""
    return db * np.log(10.0) / 20.0


def squeeze_to_db(zeta: float) -> float:
    """Inverse of :func:`db_to_squeeze`."""
    return 20.0 * zeta / np.log(10.0)


class ColumnError(ValueError):
    """An element of a named input (a data column, a state field or a
    channel parameter) breaks a rule; ``index`` is the flat index of the
    first offending element."""

    def __init__(self, column: str, index: int, value: complex, rule: str):
        super().__init__(f"{column}[{index}] = {value!r} {rule}")
        self.column, self.index, self.value, self.rule = column, index, value, rule


def require(column: str, values, ok, rule: str) -> None:
    """Raise :class:`ColumnError` at the first element where ``ok`` is false,
    reporting its Python scalar: a complex keeps its imaginary part."""
    if not np.all(ok):
        index = int(np.argmin(np.ravel(ok)))
        raise ColumnError(column, index, np.ravel(values)[index].item(), rule)


@dataclass(frozen=True)
class StateParams:
    """Parameters of a displaced, rotated, squeezed state with thermal background.

    Each field is a scalar or an array; arrays of one shape (or shapes that
    broadcast) describe one state per element.

    Parameters
    ----------
    zeta : float
        Squeezing parameter; positive values squeeze the x quadrature at
        ``phi = 0``.
    nbar : float
        Mean photon number of the additive thermal background, ``nbar >= 0``.
    phi : float
        Orientation angle of the squeezing ellipse in radians.
    alpha : complex
        Coherent displacement amplitude.
    """

    zeta: float = 0.0
    nbar: float = 0.0
    phi: float = 0.0
    alpha: complex = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            require(name, value, np.isfinite(value), "is not finite")
        require("nbar", self.nbar, self.nbar >= 0, "is not >= 0")


@dataclass(frozen=True)
class ModeMoments:
    """The moments of any single bosonic mode, Gaussian or not, with the
    raw moments as properties; the defaults are the vacuum, and
    :func:`make_state` is the Gaussian constructor.  The fields may be
    arrays of one shape, one mode per element.

    ``<a>^2`` is formed in real arithmetic, as Python's complex product
    forms it, and ``|<a>|`` as libm ``hypot``: numpy's complex array
    multiply and absolute value can differ from both in the last bit.

    Attributes
    ----------
    alpha : complex
        Mean field ``<a>``.
    delta_sq : complex
        Central ``<a^2> - <a>^2``.
    delta_n : float
        Central ``<a^dag a> - |<a>|^2``.
    """

    alpha: complex = 0j
    delta_sq: complex = 0j
    delta_n: float = 0.0

    @property
    def a_sq(self) -> complex:
        """``<a^2> = delta_sq + <a>^2``."""
        re, im = self.alpha.real, self.alpha.imag
        return self.delta_sq + ((re * re - im * im) + 1j * (re * im + im * re))

    @property
    def n_a(self) -> float:
        """``<a^dag a> = delta_n + |<a>|^2``."""
        return self.delta_n + self._mean_n

    @property
    def aa_dag(self) -> float:
        """``<a a^dag> = delta_n + 1 + |<a>|^2``."""
        return self.delta_n + 1.0 + self._mean_n

    @property
    def _mean_n(self) -> float:
        return np.float_power(np.hypot(self.alpha.real, self.alpha.imag), 2.0)


def make_state(params: StateParams) -> ModeMoments:
    """Build the Gaussian state for the given parameters, elementwise.

    ``delta_sq = -sinh(2 zeta) e^(2 i phi) / 2`` and ``delta_n =
    sinh(zeta)^2 + nbar``: the moments of the quadrature covariance
    ``R_phi^T diag(e^(-2 zeta)/2 + nbar, e^(2 zeta)/2 + nbar) R_phi``.
    Real squares here, in :class:`ModeMoments` and in :func:`is_physical`
    are ``np.float_power``, libm ``pow`` on scalars and arrays alike:
    numpy's array ``x ** 2`` is ``x * x``, which can differ in the last bit.
    A real times a complex is ``np.multiply``, whose loop scalars and arrays
    share: a numpy scalar's ``*`` can round the sign of a zero differently.
    """
    alpha = np.asarray(params.alpha, dtype=complex)
    return ModeMoments(
        alpha=alpha if alpha.ndim else complex(alpha),
        delta_sq=np.multiply(-0.5 * np.sinh(2.0 * params.zeta), np.exp(2j * params.phi)),
        delta_n=np.float_power(np.sinh(params.zeta), 2.0) + params.nbar,
    )


def vacuum() -> ModeMoments:
    """The vacuum state."""
    return make_state(StateParams())


def coherent(alpha: complex) -> ModeMoments:
    """A coherent state of amplitude ``alpha``."""
    return make_state(StateParams(alpha=alpha))


def squeezed_vacuum(zeta: float, phi: float = 0.0) -> ModeMoments:
    """A squeezed-vacuum state of parameter ``zeta`` at orientation ``phi``."""
    return make_state(StateParams(zeta=zeta, phi=phi))


def mean_photon(state: ModeMoments) -> float:
    """Mean photon number ``<a^dag a>``, the mode's :attr:`~ModeMoments.n_a`."""
    return state.n_a


def is_physical(state: ModeMoments) -> bool:
    """Check the Robertson-Schroedinger bound ``(delta_n + 1/2)^2 -
    |delta_sq|^2 >= 1/4`` with positive quadrature variances; for an array
    of modes, true only if every element passes.

    The left side is the determinant of the quadrature covariance, so the
    check is exact for Gaussian states and necessary for any state.
    Positivity is Sylvester's criterion, ``delta_n + 1/2 > 0`` and a
    positive determinant.  The bound includes a machine-epsilon guard
    scaled with the squared covariance trace ``2 delta_n + 1``, so that
    states sitting exactly on the minimum-uncertainty boundary are not
    rejected by rounding noise.
    """
    half_trace = state.delta_n + 0.5
    det = np.float_power(half_trace, 2.0) - np.float_power(np.abs(state.delta_sq), 2.0)
    guard = 64.0 * np.finfo(float).eps * np.maximum(
        1.0, np.float_power(2.0 * half_trace, 2.0))
    return bool(np.all((half_trace > 0.0) & (det > 0.0) & (det >= 0.25 - guard)))
