"""Single-mode Gaussian states: construction, rotation, and field moments.

Conventions used throughout the package: hbar = 1, [x, p] = i, and the
vacuum quadrature variance is 1/2 (covariance matrix of the vacuum is
identity/2).  The squeezing parameter ``zeta`` squeezes the x quadrature
for ``zeta > 0`` at orientation ``phi = 0``, and a squeezing strength of
``s`` dB corresponds to ``zeta = s * ln(10) / 20``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SingleModeGaussian",
    "StateParams",
    "FieldMoments",
    "db_to_squeeze",
    "squeeze_to_db",
    "rotation_matrix",
    "make_state",
    "vacuum",
    "coherent",
    "squeezed_vacuum",
    "rotate",
    "mean_photon",
    "field_moments",
    "is_physical",
    "diagonalize",
]

# Symplectic form for one mode in (x, p) ordering.
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Transformation between quadrature and ladder operators,
# (a, a^dag)^T = T (x, p)^T.
T_MAP = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0)


def db_to_squeeze(db: float) -> float:
    """Convert a squeezing strength in dB to the squeezing parameter."""
    return db * np.log(10.0) / 20.0


def squeeze_to_db(zeta: float) -> float:
    """Inverse of :func:`db_to_squeeze`."""
    return 20.0 * zeta / np.log(10.0)


def rotation_matrix(theta: float) -> np.ndarray:
    """Phase-space rotation matrix R_theta = [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class StateParams:
    """Parameters of a displaced, rotated, squeezed state with thermal background.

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
        for name in ("zeta", "nbar", "phi", "alpha"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")


@dataclass(frozen=True)
class SingleModeGaussian:
    """A single bosonic mode described by its quadrature covariance and mean.

    Attributes
    ----------
    cov : ndarray
        Real symmetric 2x2 covariance matrix in (x, p) ordering; the vacuum
        is ``identity / 2``.
    disp : ndarray
        Real 2-vector of quadrature means (xi_x, xi_p).
    """

    cov: np.ndarray
    disp: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        disp = np.asarray(self.disp, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError(f"cov must be 2x2, got shape {cov.shape}")
        if disp.shape != (2,):
            raise ValueError(f"disp must be a 2-vector, got shape {disp.shape}")
        if abs(cov[0, 1] - cov[1, 0]) != 0.0:
            raise ValueError("cov must be exactly symmetric")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "disp", disp)
        self.cov.setflags(write=False)
        self.disp.setflags(write=False)

    @property
    def alpha(self) -> complex:
        """Coherent amplitude, ``(xi_x + i xi_p) / sqrt(2)``."""
        return (self.disp[0] + 1j * self.disp[1]) / np.sqrt(2.0)


@dataclass(frozen=True)
class FieldMoments:
    """First and second (non-central) ladder-operator moments of one mode."""

    mean_a: complex
    a_sq: complex
    n_a: float
    aa_dag: float


def make_state(params: StateParams) -> SingleModeGaussian:
    """Build the Gaussian state for the given parameters.

    The covariance matrix is ``R_phi^T . diag(e^(-2 zeta)/2 + nbar,
    e^(2 zeta)/2 + nbar) . R_phi`` and the displacement is
    ``(sqrt(2) Re alpha, sqrt(2) Im alpha)``.
    """
    if params.nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {params.nbar}")
    d = np.diag([np.exp(-2.0 * params.zeta) / 2.0 + params.nbar,
                 np.exp(2.0 * params.zeta) / 2.0 + params.nbar])
    r = rotation_matrix(params.phi)
    cov = r.T @ d @ r
    cov = (cov + cov.T) / 2.0  # kill rounding asymmetry
    alpha = complex(params.alpha)
    disp = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return SingleModeGaussian(cov=cov, disp=disp)


def vacuum() -> SingleModeGaussian:
    """The vacuum state."""
    return make_state(StateParams())


def coherent(alpha: complex) -> SingleModeGaussian:
    """A coherent state of amplitude ``alpha``."""
    return make_state(StateParams(alpha=alpha))


def squeezed_vacuum(zeta: float, phi: float = 0.0) -> SingleModeGaussian:
    """A squeezed-vacuum state of parameter ``zeta`` at orientation ``phi``."""
    return make_state(StateParams(zeta=zeta, phi=phi))


def rotate(state: SingleModeGaussian, theta: float) -> SingleModeGaussian:
    """Rotate a state in phase space.

    ``cov -> R_theta^T cov R_theta`` and ``disp -> R_theta^T disp``, so that
    ``rotate(rotate(s, t1), t2) == rotate(s, t1 + t2)``.
    """
    r = rotation_matrix(theta)
    cov = r.T @ state.cov @ r
    cov = (cov + cov.T) / 2.0
    return SingleModeGaussian(cov=cov, disp=r.T @ state.disp)


def mean_photon(state: SingleModeGaussian) -> float:
    """Mean photon number, ``(tr(cov) - 1 + disp . disp) / 2``."""
    return float((np.trace(state.cov) - 1.0 + state.disp @ state.disp) / 2.0)


def field_moments(state: SingleModeGaussian) -> FieldMoments:
    """Ladder-operator moments of a Gaussian state.

    Central second moments are the entries of ``T (cov +- (i/2) Omega)
    T^dag``, written out so that diagonal covariances stay exact;
    non-central moments add the products of the first moments.
    """
    cxx, cpp, cxp = state.cov[0, 0], state.cov[1, 1], state.cov[0, 1]
    mean_a = (state.disp[0] + 1j * state.disp[1]) / np.sqrt(2.0)
    central_aa_dag = (cxx + cpp + 1.0) / 2.0
    central_n = (cxx + cpp - 1.0) / 2.0
    central_a_sq = (cxx - cpp) / 2.0 + 1j * cxp
    return FieldMoments(
        mean_a=mean_a,
        a_sq=central_a_sq + mean_a**2,
        n_a=float(central_n + abs(mean_a) ** 2),
        aa_dag=float(central_aa_dag + abs(mean_a) ** 2),
    )


def is_physical(state: SingleModeGaussian, tol: float = 0.0) -> bool:
    """Check the uncertainty bound det(cov) >= 1/4 and positive definiteness.

    The determinant comparison includes a machine-epsilon guard scaled with
    the matrix magnitude, so that states sitting exactly on the
    minimum-uncertainty boundary are not rejected by rounding noise.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    cov = state.cov
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    guard = 64.0 * np.finfo(float).eps * max(1.0, np.trace(cov) ** 2)
    eigs = np.linalg.eigvalsh(cov)
    return bool(det >= 0.25 - tol - guard and eigs[0] > 0.0)


def diagonalize(cov: np.ndarray) -> tuple[float, float, float]:
    """Decompose a symmetric 2x2 matrix as ``R_phi^T diag(s_x, s_p) R_phi``.

    Returns ``(phi, sigma_x2, sigma_p2)`` with ``sigma_x2 <= sigma_p2`` and
    ``phi`` in ``[0, pi)``; degenerate spectra return ``phi = 0``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2) or abs(cov[0, 1] - cov[1, 0]) > 1e-14:
        raise ValueError("cov must be a symmetric 2x2 matrix")
    half_sum = (cov[0, 0] + cov[1, 1]) / 2.0
    half_diff = (cov[0, 0] - cov[1, 1]) / 2.0
    radius = np.hypot(half_diff, cov[0, 1])
    lo, hi = half_sum - radius, half_sum + radius
    if radius == 0.0:
        return 0.0, lo, hi
    # From R_phi^T diag(lo, hi) R_phi:
    #   cov_xp = -sin(2 phi) (hi - lo) / 2,  cov_xx - cov_pp = -cos(2 phi) (hi - lo)
    two_phi = np.arctan2(-2.0 * cov[0, 1], -2.0 * half_diff)
    phi = (two_phi / 2.0) % np.pi
    if phi >= np.pi:  # guard against rounding at the wrap point
        phi = 0.0
    return float(phi), float(lo), float(hi)
