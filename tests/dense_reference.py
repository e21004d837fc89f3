"""Dense truncated matrices of operator expressions, from products of the
ladder matrix and a plain Kronecker sum, kept by the tests as the reference
that the oracle's one-diagonal bands must agree with."""

import numpy as np

from squeezewitness.fock import build_ladder
from squeezewitness.opexpr import IS_DAGGER, MODE, reorder


def mode_matrix(daggers, cutoff):
    """Matrix of one mode's letters in written order, ``True`` for a dagger.

    Accumulates from the right, so the last letter acts first.
    """
    a = build_ladder(cutoff)
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
