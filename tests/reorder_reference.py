"""The two ordering passes as they once sorted each whole word by recursive
adjacent swaps, kept by the tests as the reference that the per-mode
left-to-right rule must equal bit for bit."""

from functools import lru_cache
from typing import Iterable

from squeezewitness.opexpr import IS_DAGGER, MODE, OperatorExpr

# Target letter order of a canonical word: ad^m a^n bd^p b^q.
PRIORITY = {"ad": 0, "a": 1, "bd": 2, "b": 3}


@lru_cache(maxsize=None)
def _reorder_word(word: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], int], ...]:
    """Rewrite one word into canonical order, keeping the operator identical."""
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if PRIORITY[x] > PRIORITY[y]:
            swapped = word[:i] + (y, x) + word[i + 2:]
            out = dict(_reorder_word(swapped))
            if MODE[x] == MODE[y]:
                # Same mode and out of order means (lowering, raising):
                # x y = y x + 1.
                for w, c in _reorder_word(word[:i] + word[i + 2:]):
                    out[w] = out.get(w, 0) + c
            return tuple(sorted(out.items()))
    return ((word, 1),)


def reorder(expr: OperatorExpr) -> OperatorExpr:
    """Bring every word into ``ad^m a^n bd^p b^q`` form, operator-preserving.

    Applies ``[a, ad] = 1`` and ``[b, bd] = 1`` plus cross-mode
    commutativity, so the result equals the input as an operator.
    """
    out: dict[tuple[str, ...], complex] = {}
    for word, coeff in expr.terms:
        for new_word, mult in _reorder_word(word):
            out[new_word] = out.get(new_word, 0j) + coeff * mult
    return OperatorExpr(out)


def _mode_counts(sub: tuple[str, ...]) -> dict[tuple[int, int], int]:
    """Operator-preserving single-mode reorder, as dagger/lowering counts."""
    out: dict[tuple[int, int], int] = {}
    for word, mult in _reorder_word(sub):
        daggers = sum(1 for letter in word if IS_DAGGER[letter])
        out[(daggers, len(word) - daggers)] = mult
    return out


def formal_normal_order(expr: OperatorExpr, modes: Iterable[str]) -> OperatorExpr:
    """Formally normal-order the selected modes, dropping their commutators.

    Within each word, creation operators of every mode in ``modes`` are
    moved to the left of that mode's annihilation operators *without*
    commutator corrections; the remaining mode is reordered
    operator-preservingly.  The pass is linear and idempotent.
    """
    mode_set = frozenset(modes)
    if not mode_set:
        raise ValueError("at least one mode must be selected")
    if not mode_set <= {"A", "B"}:
        raise ValueError(f"modes must be a subset of {{'A', 'B'}}, got {set(modes)}")

    out: dict[tuple[str, ...], complex] = {}
    for word, coeff in expr.terms:
        per_mode: list[dict[tuple[int, int], int]] = []
        for mode in ("A", "B"):
            sub = tuple(letter for letter in word if MODE[letter] == mode)
            if mode in mode_set:
                daggers = sum(1 for letter in sub if IS_DAGGER[letter])
                per_mode.append({(daggers, len(sub) - daggers): 1})
            else:
                per_mode.append(_mode_counts(sub))
        for (ma, na), ca in per_mode[0].items():
            for (mb, nb), cb in per_mode[1].items():
                new_word = ("ad",) * ma + ("a",) * na + ("bd",) * mb + ("b",) * nb
                out[new_word] = out.get(new_word, 0j) + coeff * ca * cb
    return OperatorExpr(out)
