"""The quadrature-covariance convention, kept by the tests as an independent
reference for the moment form that ``squeezewitness.gaussian`` stores."""

import numpy as np

# Symplectic form for one mode in (x, p) ordering.
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Transformation between quadrature and ladder operators,
# (a, a^dag)^T = T (x, p)^T.
T_MAP = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0)


def rotation_matrix(theta):
    """Phase-space rotation matrix R_theta = [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def covariance(params):
    """``R_phi^T diag(e^(-2 zeta)/2 + nbar, e^(2 zeta)/2 + nbar) R_phi``."""
    d = np.diag([np.exp(-2.0 * params.zeta) / 2.0 + params.nbar,
                 np.exp(2.0 * params.zeta) / 2.0 + params.nbar])
    r = rotation_matrix(params.phi)
    return r.T @ d @ r


def quadrature_means(params):
    """``(sqrt(2) Re alpha, sqrt(2) Im alpha)``."""
    alpha = complex(params.alpha)
    return np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
