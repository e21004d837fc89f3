"""Closed-form squeezed-vacuum amplitudes, kept by the tests as an
independent reference for the oracle's Gaussian Fock recurrence."""

import numpy as np


def squeezed_amplitudes(zeta: float, cutoff: int) -> np.ndarray:
    """Squeezed-vacuum amplitudes, even numbers only.

    ``c_{2m} = (-tanh zeta)^m sqrt((2m)!) / (2^m m!) / sqrt(cosh zeta)``.
    """
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, cutoff)))))
    v = np.zeros(cutoff, dtype=complex)
    v[0] = 1.0
    t = np.tanh(zeta)
    for k in range(2, cutoff, 2):
        m = k // 2
        v[k] = (-t) ** m * np.exp(0.5 * log_fact[k] - m * np.log(2.0) - log_fact[m])
    return v / np.sqrt(np.cosh(zeta))
