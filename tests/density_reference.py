"""The one-mode thermal density recurrence as the oracle ran it mode by mode,
kept by the tests as the reference that the block recurrence must equal bit
for bit."""

import numpy as np

from squeezewitness.fock import _hermite_sequence, _husimi_coefficients


def density_matrix(params, cutoff):
    """Fock elements of the mode by the 2-D recurrence, thermal part included.

    ``rho[m+1, n] = (b1 rho[m, n] + a11 sqrt(m) rho[m-1, n]
    + a12 sqrt(n) rho[m, n-1]) / sqrt(m+1)``; row 0 runs the 1-D recurrence
    in ``n`` with ``conj(b1)`` and ``conj(a11)`` from ``rho[0, 0] = T``.
    """
    t, a11, a12, b1 = _husimi_coefficients(params.zeta, params.nbar, params.phi,
                                           params.alpha)
    roots = np.sqrt(np.arange(cutoff))
    cross = a12 * roots[1:]
    rho = np.empty((cutoff, cutoff), dtype=complex)
    rho[0] = _hermite_sequence(t, a11.conjugate(), b1.conjugate(), cutoff)
    for m in range(cutoff - 1):
        row = b1 * rho[m]
        if m:
            row += (a11 * roots[m]) * rho[m - 1]
        row[1:] += cross * rho[m, :-1]
        rho[m + 1] = row / roots[m + 1]
    return rho
