"""Dense truncated matrices of operator expressions, from products of the
ladder matrix and a plain Kronecker sum, kept by the tests as the reference
that the oracle's one-diagonal bands must agree with."""

import numpy as np

from squeezewitness.fock import fock_states
from squeezewitness.gaussian import StateParams
from squeezewitness.opexpr import IS_DAGGER, MODE, reorder


def ladder(cutoff):
    """Truncated annihilation matrix ``<n-1|a|n> = sqrt(n)``."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)


def mode_matrix(daggers, cutoff):
    """Matrix of one mode's letters in written order, ``True`` for a dagger.

    Accumulates from the right, so the last letter acts first.
    """
    a = ladder(cutoff)
    out = np.eye(cutoff, dtype=complex)
    for dagger in reversed(daggers):
        out = (a.conj().T if dagger else a) @ out
    return out


def expr_matrix(expr, cutoff):
    """The ``cutoff^2 x cutoff^2`` matrix of an expression, mode A the first factor."""
    out = np.zeros((cutoff * cutoff,) * 2, dtype=complex)
    for word, coeff in expr.terms:
        out += coeff * np.kron(*(
            mode_matrix(tuple(IS_DAGGER[x] for x in word if MODE[x] == mode), cutoff)
            for mode in "AB"))
    return out


def reorder_deviation(expr, cutoff, max_degree):
    """Largest element of ``|M(expr) - M(reorder(expr))|`` on the block where
    both modes stay ``max_degree`` below the cutoff."""
    interior = range(cutoff - max_degree)
    keep = [na * cutoff + nb for na in interior for nb in interior]
    diff = np.abs(expr_matrix(expr, cutoff) - expr_matrix(reorder(expr), cutoff))
    return float(diff[np.ix_(keep, keep)].max())


def ladder_fold(params, kind, strength, cutoff):
    """The bath fold's evolved tensor ``psi[n_signal, n_ancilla]``, by the
    same Taylor series on dense ladder matmuls.

    ``psi`` evolves under ``G = angle (a^dag R - a R^dag)`` with ``R`` the
    ancilla's ``a`` (loss) or ``a^dag`` (gain).  The signal's ladder acts
    from the left, the ancilla's from the right transposed; the real
    ladder's transpose is its adjoint.
    """
    a = ladder(cutoff)
    if kind == "loss":
        angle, right = np.arccos(np.sqrt(strength)), a.T
    else:
        angle, right = np.arccosh(np.sqrt(strength)), a
    (signal,) = fock_states(params, StateParams(), cutoff)
    psi = np.zeros((cutoff, cutoff), dtype=complex)
    psi[:, 0] = signal.data[0]
    # ||a|| = sqrt(cutoff - 1) bounds ||G|| by this count.
    steps = max(1, int(np.ceil(2.0 * angle * (cutoff - 1))))
    for _ in range(steps):
        floor = np.finfo(float).eps * np.abs(psi).max()
        term, k = psi, 0
        while np.abs(term).max() > floor:
            k += 1
            term = angle / (steps * k) * (a.T @ term @ right - a @ term @ right.T)
            psi = psi + term
    return psi
