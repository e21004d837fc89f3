"""Two-mode ladder-operator polynomials and their ordering passes.

Expressions are sums of complex-weighted words over the alphabet
``a, ad, b, bd`` (annihilation/creation on modes A and B).  Two distinct
rewriting passes are provided and must not be confused.  Both bring every
word into the canonical shape ``ad^m a^n bd^p b^q`` by one rule per mode,
which multiplies that mode's letters left to right; for mode A::

    ad^m a^n * a  = ad^m a^(n+1)
    ad^m a^n * ad = ad^(m+1) a^n + n ad^m a^(n-1)

* :func:`reorder` keeps the last term on both modes, so it *preserves the
  operator*: that term is the commutator ``[a, ad] = [b, bd] = 1``.
* :func:`formal_normal_order` drops that term on the selected modes, moving
  their creation operators to the left *formally*.  This is a prescription,
  not an operator identity; it is what turns a measured variance into a
  witness.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Iterable

__all__ = [
    "OperatorExpr",
    "ExpressionError",
    "reorder",
    "formal_normal_order",
    "adjoint_product",
    "difference_observable",
]

LETTERS = ("a", "ad", "b", "bd")
MODE = {"a": "A", "ad": "A", "b": "B", "bd": "B"}
IS_DAGGER = {"a": False, "ad": True, "b": False, "bd": True}
CONJUGATE = {"a": "ad", "ad": "a", "b": "bd", "bd": "b"}

MAX_DEGREE = 8


class ExpressionError(ValueError):
    """Raised for invalid operator expressions (e.g. degree cap exceeded)."""


class OperatorExpr:
    """An immutable sum of complex-weighted ladder-operator words.

    Words preserve the order in which operators were written; canonical
    form only sorts the *terms*, merges duplicates, and drops exact-zero
    coefficients.  Words longer than ``MAX_DEGREE`` letters are rejected.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[str, ...], complex] | None = None):
        merged: dict[tuple[str, ...], complex] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            for letter in word:
                if letter not in LETTERS:
                    raise ExpressionError(f"unknown operator letter {letter!r}")
            if len(word) > MAX_DEGREE:
                raise ExpressionError(
                    f"word degree {len(word)} exceeds the cap of {MAX_DEGREE}"
                )
            value = merged.get(word, 0j) + complex(coeff)
            merged[word] = value
        self._terms = {w: c for w, c in merged.items() if c != 0}

    @classmethod
    def constant(cls, value: complex) -> "OperatorExpr":
        return cls({(): value})

    @classmethod
    def word(cls, letters: Iterable[str]) -> "OperatorExpr":
        return cls({tuple(letters): 1.0})

    @property
    def terms(self) -> tuple[tuple[tuple[str, ...], complex], ...]:
        """Terms as ``(word, coeff)`` pairs, words sorted lexicographically."""
        return tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))

    @property
    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def dagger(self) -> "OperatorExpr":
        """Hermitian adjoint: reverse words, conjugate letters and weights."""
        return OperatorExpr(
            {
                tuple(CONJUGATE[letter] for letter in reversed(word)): coeff.conjugate()
                for word, coeff in self._terms.items()
            }
        )

    def __add__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            out[word] = out.get(word, 0j) + coeff
        return OperatorExpr(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_expr(other) - self

    def __neg__(self):
        return OperatorExpr({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[str, ...], complex] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                out[word] = out.get(word, 0j) + c1 * c2
        return OperatorExpr(out)

    def __rmul__(self, other):
        # Scalars commute with everything, so left/right products agree.
        return self * other

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"OperatorExpr({dict(self.terms)!r})"


def _as_expr(value) -> OperatorExpr:
    if isinstance(value, OperatorExpr):
        return value
    if isinstance(value, (int, float, complex)):
        return OperatorExpr.constant(value)
    return NotImplemented


def difference_observable(theta: float) -> OperatorExpr:
    """The balanced photon-number difference, ``cis(theta) ad b + cis(-theta) a bd``."""
    return OperatorExpr(
        {("ad", "b"): cmath.exp(1j * theta), ("a", "bd"): cmath.exp(-1j * theta)}
    )


# ---------------------------------------------------------------------------
# Rewriting passes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _word_counts(word: tuple[str, ...],
                 formal: frozenset) -> tuple[tuple[tuple[str, ...], int], ...]:
    """One word as ``(canonical word, multiplicity)`` pairs, by the per-mode
    rule above; a mode in ``formal`` drops its ``n ad^m a^(n-1)`` term."""
    counts = {"A": {(0, 0): 1}, "B": {(0, 0): 1}}  # per mode, {(m, n): multiplicity}
    for letter in word:
        mode = MODE[letter]
        before = counts[mode]
        if not IS_DAGGER[letter]:
            counts[mode] = {(m, n + 1): c for (m, n), c in before.items()}
            continue
        counts[mode] = after = {(m + 1, n): c for (m, n), c in before.items()}
        if mode not in formal:
            for (m, n), c in before.items():
                if n:
                    after[m, n - 1] = after.get((m, n - 1), 0) + n * c
    # The modes commute, so a word's multiplicity is the product of its modes'.
    return tuple((("ad",) * ma + ("a",) * na + ("bd",) * mb + ("b",) * nb, ca * cb)
                 for (ma, na), ca in counts["A"].items()
                 for (mb, nb), cb in counts["B"].items())


def _normal_order(expr: OperatorExpr, formal: frozenset) -> OperatorExpr:
    out: dict[tuple[str, ...], complex] = {}
    for word, coeff in expr.terms:
        for new_word, mult in _word_counts(word, formal):
            out[new_word] = out.get(new_word, 0j) + coeff * mult
    return OperatorExpr(out)


def reorder(expr: OperatorExpr) -> OperatorExpr:
    """Bring every word into ``ad^m a^n bd^p b^q`` form, operator-preserving.

    Applies ``[a, ad] = 1`` and ``[b, bd] = 1`` plus cross-mode
    commutativity, so the result equals the input as an operator:
    ``ad^m a^n ad`` gains the term ``n ad^m a^(n-1)``.
    """
    return _normal_order(expr, frozenset())


def formal_normal_order(expr: OperatorExpr, modes: Iterable[str]) -> OperatorExpr:
    """Formally normal-order the selected modes, dropping their commutators.

    Within each word, creation operators of every mode in ``modes`` are
    moved to the left of that mode's annihilation operators *without*
    commutator corrections: ``ad^m a^n ad`` is ``ad^(m+1) a^n``, without
    :func:`reorder`'s ``n ad^m a^(n-1)``.  The remaining mode is reordered
    operator-preservingly.  The pass is linear and idempotent.
    """
    mode_set = frozenset(modes)
    if not mode_set:
        raise ValueError("at least one mode must be selected")
    if not mode_set <= {"A", "B"}:
        raise ValueError(f"modes must be a subset of {{'A', 'B'}}, got {set(modes)}")
    return _normal_order(expr, mode_set)


def adjoint_product(expr: OperatorExpr) -> OperatorExpr:
    """Return ``expr^dag * expr``, expanded into a sum of words."""
    return expr.dagger() * expr
