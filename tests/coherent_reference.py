"""Closed-form coherent-state amplitudes, kept by the tests as an
independent reference for the oracle's Gaussian Fock recurrence."""

import numpy as np


def _log_factorials(cutoff: int) -> np.ndarray:
    """``log(n!)`` for ``n = 0 .. cutoff - 1``."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, cutoff)))))[:cutoff]


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes ``exp(-|alpha|^2/2) alpha^n / sqrt(n!)``."""
    if alpha == 0:
        v = np.zeros(cutoff, dtype=complex)
        v[0] = 1.0
        return v
    n = np.arange(cutoff)
    magnitude = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha))
                       - 0.5 * _log_factorials(cutoff))
    phase = np.exp(1j * n * np.angle(complex(alpha)))
    return magnitude * phase
