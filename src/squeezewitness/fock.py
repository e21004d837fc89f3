"""Brute-force verification engine on a truncated two-mode Fock space.

Everything here is deliberately independent of the Gaussian closed forms:
states are concrete amplitude arrays or density matrices, operators are
truncated ladder-operator products, and expectation values are plain
contractions.  The module exists to validate the analytic path, so it
favours explicit truncation-error accounting over speed: no state is ever
silently renormalized, and :func:`fock_state` and :func:`converged_cutoff`
refuse a deficit over the fixed ``TRUNCATION_BUDGET``.

A one-mode word, any truncated product of ``a`` and ``a^dag``, has one
nonzero diagonal, at offset ``#a^dag - #a``, and the oracle stores it as
that diagonal alone, computed as the product of the ladder roots the word
meets; no dense operator matrix is formed.  A word then costs O(c^2) on a
pure tensor, entangled or not, and O(c) per mode on a product state.
:func:`evolve`, the oracle's one unitary evolution, applies words on the
same bands.

Every single-mode state, pure or thermal, is built from its
:class:`StateParams` fields by one exact recurrence for Gaussian Fock
elements (Dodonov, Man'ko & Man'ko, PRA 49, 2993 (1994); Miatto & Quesada,
Quantum 4, 366 (2020)), with coefficients from the analytic continuation
of the Husimi function: a 3-term Hermite recurrence for pure amplitudes at
O(c) cost, a 2-D one for density matrices at O(c^2).  Neither involves
quadrature or a matrix exponential, and the elements at cutoff ``c`` are
exactly the leading block of those at ``2c``.  :func:`fock_states` builds
the pairs of an SI and an LO :class:`StateParams` of arrays a block at a
time: one run of the 2-D recurrence moves the rows of all thermal modes of
a block together, bit for bit as each mode's own run would, and a block
holds at most ``BLOCK_BYTES`` of density factors.  :func:`fock_state` is
its one-pair call, and no state is built above ``MAX_CUTOFF``.  A product
state keeps each mode's factor as built, amplitudes or density matrix.
:func:`converged_cutoff`, the oracle's one walk, reads each smaller cutoff as
a leading block of the state it is handed, and returns the value it settled on.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import StateParams
from .opexpr import MODE, IS_DAGGER, OperatorExpr, ExpressionError, reorder, \
    formal_normal_order, adjoint_product

__all__ = [
    "FockState",
    "TruncationError",
    "ConvergenceError",
    "fock_state",
    "fock_states",
    "expect",
    "evolve",
    "witness_general",
    "converged_cutoff",
]

TRUNCATION_BUDGET = 1e-8
MAX_CUTOFF = 512
# Bytes of density factors that one block of ``fock_states`` holds: 8 pairs
# at cutoff 128, 2 at 256 and 1 at 512.
BLOCK_BYTES = 4 * 2 ** 20


class TruncationError(Exception):
    """The requested cutoff cannot hold the state within the error budget."""


class ConvergenceError(Exception):
    """The doubling schedule ran out before expectation values settled."""


@lru_cache(maxsize=None)
def _mode_band(daggers: tuple[bool, ...], cutoff: int) -> tuple[int, np.ndarray]:
    """Offset ``k`` and values ``d`` of the one nonzero diagonal of a mode word.

    A product of ``a`` and ``a^dag`` maps ``|n>`` to a multiple of
    ``|n + k>`` with ``k = #a^dag - #a``.  ``d`` lists those multiples for
    the number states :func:`_kept` reads, each the product of the ladder
    square roots met on the way, applied from the last letter to the first
    as a product of truncated ladder matrices applies them; a path that
    leaves ``0 .. cutoff - 1`` gives exactly 0, as truncation does.  It is
    empty when ``|k| >= cutoff``.
    """
    k = 2 * sum(daggers) - len(daggers)
    level = np.arange(max(0, -k), min(cutoff, cutoff - k))
    d = np.ones(len(level))
    for dagger in reversed(daggers):
        # a^dag |n> = sqrt(n + 1) |n + 1> and a |n> = sqrt(n) |n - 1>.
        root = np.sqrt(np.maximum(level + dagger, 0))
        level = level + 1 if dagger else level - 1
        d = np.where((level >= 0) & (level < cutoff), root, 0.0) * d
    d.setflags(write=False)
    return k, d


def _kept(k: int, cutoff: int) -> tuple[slice, slice]:
    """Number states ``n`` a band of offset ``k`` reads, and the ``n + k`` it writes."""
    return slice(max(0, -k), max(0, cutoff - k)), slice(max(0, k), max(0, cutoff + k))


@lru_cache(maxsize=4096)
def _word_bands(word: tuple[str, ...], cutoff: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The :func:`_mode_band` of a word's mode-A letters and of its mode-B
    letters, each in written order."""
    return tuple(_mode_band(tuple(IS_DAGGER[letter] for letter in word if MODE[letter] == mode),
                            cutoff) for mode in "AB")


def _word_image(word: tuple[str, ...], psi: np.ndarray) -> tuple[tuple[slice, slice], np.ndarray]:
    """A word applied to the two-mode tensor ``psi`` on its two mode bands:
    the block ``psi[dst]`` it writes, and the values it writes there."""
    cutoff = len(psi)
    (k_a, d_a), (k_b, d_b) = _word_bands(word, cutoff)
    (src_a, dst_a), (src_b, dst_b) = _kept(k_a, cutoff), _kept(k_b, cutoff)
    return (dst_a, dst_b), d_a[:, None] * psi[src_a, src_b] * d_b


def _apply(expr: OperatorExpr, psi: np.ndarray) -> np.ndarray:
    """``expr`` applied to the two-mode tensor ``psi``, each word as written
    (not reordered), summed in ``expr.terms`` order."""
    out = np.zeros(psi.shape, dtype=complex)
    for word, coeff in expr.terms:
        dst, image = _word_image(word, psi)
        out[dst] += coeff * image
    return out


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------

def _husimi_coefficients(zeta: float, nbar: float, phi: float,
                         alpha: complex) -> tuple[float, complex, float, complex]:
    """``(T, a11, a12, b1)`` of the coherent-state kernel of one mode from
    its fields as Python scalars: numpy's complex arrays can round differently.

    For unnormalized coherent states ``|z) = sum_n z^n / sqrt(n!) |n>``,
    ``(w|rho|z) = T exp(a11 x^2/2 + a12 x y + conj(a11) y^2/2 + b1 x +
    conj(b1) y)`` with ``x = conj(w)`` and ``y = z``.  This is the analytic
    continuation of the Husimi function, a Gaussian whose covariance is
    ``M = V + I/2`` with ``V = R_phi^T diag(e^(-2 zeta)/2 + nbar,
    e^(2 zeta)/2 + nbar) R_phi``.
    """
    m_x = np.exp(-2.0 * zeta) / 2.0 + nbar + 0.5
    m_p = np.exp(2.0 * zeta) / 2.0 + nbar + 0.5
    a11 = complex(0.5 * (1.0 / m_p - 1.0 / m_x) * np.exp(2j * phi))
    keep = float(0.5 * (1.0 / m_x + 1.0 / m_p))  # 1 - a12
    alpha = complex(alpha)
    b1 = keep * alpha - a11 * alpha.conjugate()
    log_t = -keep * abs(alpha) ** 2 + (a11 * alpha.conjugate() ** 2).real
    return float(np.exp(log_t) / np.sqrt(m_x * m_p)), a11, 1.0 - keep, b1


def _hermite_sequence(first: complex, a: complex, b: complex, cutoff: int) -> np.ndarray:
    """``v[n+1] = (b v[n] + a sqrt(n) v[n-1]) / sqrt(n+1)`` from ``v[0] = first``."""
    roots = np.sqrt(np.arange(cutoff)).tolist()
    v = [complex(first)] + [0j] * (cutoff - 1)
    for n in range(cutoff - 1):
        lower = a * roots[n] * v[n - 1] if n else 0j
        v[n + 1] = (b * v[n] + lower) / roots[n + 1]
    return np.array(v, dtype=complex)


def _density_matrices(modes: list[tuple], cutoff: int) -> np.ndarray:
    """Fock elements of thermal modes, ``rho[j]`` for ``modes[j]``, by one 2-D
    recurrence that moves the rows of every mode forward together.

    ``rho[m+1, n] = (b1 rho[m, n] + a11 sqrt(m) rho[m-1, n]
    + a12 sqrt(n) rho[m, n-1]) / sqrt(m+1)``; row 0 runs the 1-D recurrence
    in ``n`` with ``conj(b1)`` and ``conj(a11)`` from ``rho[0, 0] = T``.
    The real ``a12 sqrt(n)`` and ``1 / sqrt(m+1)`` scale the float view, as
    numpy's complex-by-real product and quotient reduce to real products
    (the quotient multiplies by the reciprocal), so every element is the
    one the recurrence of that mode alone gives, bit for bit.
    """
    coefficients = [_husimi_coefficients(*mode) for mode in modes]
    # Row m of every mode is one contiguous (modes, cutoff) block.
    rho = np.empty((cutoff, len(modes), cutoff), dtype=complex)
    for j, (t, a11, _, b1) in enumerate(coefficients):
        rho[0, j] = _hermite_sequence(t, a11.conjugate(), b1.conjugate(), cutoff)
    _, a11, a12, b1 = (np.array(column)[:, None] for column in zip(*coefficients))
    roots = np.sqrt(np.arange(cutoff))
    lower = a11 * roots[:, None, None]  # a11 sqrt(m) for every m
    cross = np.repeat(a12 * roots[1:], 2, axis=1)  # a12 sqrt(n), twice per column n >= 1
    inverse = 1.0 / roots[1:]
    flat = rho.view(float)
    term, real_term = np.empty_like(rho[0]), np.empty_like(cross)
    for m in range(cutoff - 1):
        row, real_row = rho[m + 1], flat[m + 1]
        np.multiply(b1, rho[m], out=row)
        if m:
            row += np.multiply(lower[m], rho[m - 1], out=term)
        real_row[:, 2:] += np.multiply(cross, flat[m, :, :-2], out=real_term)
        real_row *= inverse[m]
    return rho.transpose(1, 0, 2)


def _amplitudes(mode: tuple, cutoff: int) -> np.ndarray:
    """Amplitudes of a pure mode by the 1-D recurrence from ``sqrt(T)``."""
    t, a11, _, b1 = _husimi_coefficients(*mode)
    return _hermite_sequence(np.sqrt(t), a11, b1, cutoff)


def _mode_factors(modes: list[tuple], cutoff: int) -> list[np.ndarray]:
    """Amplitudes of each pure mode and the density matrix of each thermal one
    from its ``(zeta, nbar, phi, alpha)``; the thermal ones as one block."""
    thermal = [mode for mode in modes if mode[1] > 0]
    densities = iter(_density_matrices(thermal, cutoff) if thermal else ())
    return [next(densities) if mode[1] > 0 else _amplitudes(mode, cutoff) for mode in modes]


def _lost(part: np.ndarray) -> float:
    """What truncation dropped of amplitudes, by their squared norm, or of a
    density, by its trace: 0 for a mass of 1 or more, and NaN for a NaN mass,
    where ``max(0.0, 1.0 - kept)`` would give 0."""
    kept = float((np.vdot(part, part) if part.ndim == 1 else np.trace(part)).real)
    return 0.0 if kept >= 1.0 else 1.0 - kept


@dataclass(frozen=True)
class FockState:
    """A truncated two-mode state.

    ``kind == "pure"`` stores the amplitude tensor ``data[n_a, n_b]`` of
    shape ``(cutoff, cutoff)``, which may be entangled.  ``kind ==
    "product"`` stores ``data == (si, lo)``, each mode's factor as built:
    amplitudes of a pure mode or the density matrix of a mixed one.  The
    constructors compute ``deficit``, the norm/trace mass lost to
    truncation, from the data (``1 - kept_si * kept_lo`` for a product);
    nothing is renormalized.
    """

    kind: str
    cutoff: int
    data: object
    deficit: float

    @classmethod
    def pure(cls, amplitudes: np.ndarray) -> "FockState":
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 2 or amplitudes.shape[0] != amplitudes.shape[1]:
            raise ValueError("pure amplitudes must form a square two-mode tensor")
        return cls("pure", amplitudes.shape[0], amplitudes, _lost(amplitudes.ravel()))

    @classmethod
    def product(cls, si: np.ndarray, lo: np.ndarray) -> "FockState":
        factors = tuple(np.asarray(f, dtype=complex) for f in (si, lo))
        cutoff = len(factors[0])
        if any(f.ndim not in (1, 2) or f.shape != (cutoff,) * f.ndim for f in factors):
            raise ValueError("factors must be vectors or square matrices of equal cutoff")
        lost_si, lost_lo = map(_lost, factors)
        return cls("product", cutoff, factors, 1.0 - (1.0 - lost_si) * (1.0 - lost_lo))

    def leading(self, cutoff: int) -> "FockState":
        """The leading ``cutoff`` block of the tensor or of each factor, with its own deficit."""
        if self.kind == "pure":
            return FockState.pure(self.data[:cutoff, :cutoff])
        return FockState.product(*(f[:cutoff, :cutoff] if f.ndim == 2 else f[:cutoff]
                                   for f in self.data))


def _block_pairs(cutoff: int) -> int:
    """Pairs in one block of :func:`fock_states` at ``cutoff``: as many as
    ``BLOCK_BYTES`` of density factors allow, counting two per pair, and at
    least one."""
    return max(1, BLOCK_BYTES // (2 * cutoff * cutoff * np.dtype(complex).itemsize))


def fock_states(si: StateParams, lo: StateParams, cutoff: int) -> Iterator[FockState]:
    """The product states SI x LO at one per-mode cutoff, one per element of the
    fields of ``si`` and ``lo`` broadcast together, built a block of pairs at a time.

    This is the oracle's one state builder, and every mode the oracle holds
    comes from here: a pure mode as amplitudes whose global phase is fixed
    by a real, positive vacuum amplitude.  The thermal modes of a block are
    built together by one run of the 2-D recurrence.  A block holds as many
    pairs as ``BLOCK_BYTES`` of density factors allow, counting two per
    pair, and at least one.  It is built when its first state is requested
    and freed once the caller drops its states.  Each state carries its
    truncation deficit, unchecked; :func:`fock_state` checks one against
    ``TRUNCATION_BUDGET``.

    Raises
    ------
    ValueError
        If ``cutoff`` is not an integer in ``[2, MAX_CUTOFF]`` or the fields
        do not broadcast together, when the first state is requested.
    """
    try:
        cutoff = operator.index(cutoff)
    except TypeError:
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}") from None
    if not 2 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must be in [2, {MAX_CUTOFF}], got {cutoff}")
    # Each mode's (zeta, nbar, phi, alpha) as Python scalars, interleaved SI, LO, SI, ...
    columns = np.broadcast_arrays(*vars(si).values(), *vars(lo).values())
    modes = [mode for row in zip(*(c.ravel().tolist() for c in columns))
             for mode in (row[:4], row[4:])]
    pairs = _block_pairs(cutoff)
    for start in range(0, len(modes), 2 * pairs):
        factors = iter(_mode_factors(modes[start:start + 2 * pairs], cutoff))
        # From a list, so that nothing here holds the block once its last
        # state has been taken.
        yield from [FockState.product(*pair) for pair in zip(factors, factors)]


def fock_state(params_si: StateParams, params_lo: StateParams, cutoff: int) -> FockState:
    """Build the product state SI x LO at the given per-mode cutoff, as the
    one-pair call of :func:`fock_states`.

    Raises
    ------
    ValueError
        If ``cutoff`` is not an integer in ``[2, MAX_CUTOFF]`` or the params
        hold other than one pair.
    TruncationError
        If the truncation deficit exceeds ``TRUNCATION_BUDGET`` or is NaN.
    """
    (state,) = fock_states(params_si, params_lo, cutoff)
    if not state.deficit <= TRUNCATION_BUDGET:
        raise TruncationError(f"truncation deficit {state.deficit:.3e} exceeds budget "
                              f"{TRUNCATION_BUDGET:.3e} at cutoff {cutoff}")
    return state


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

def _mode_expect(k: int, d: np.ndarray, factor: np.ndarray) -> complex:
    """One mode's factor of a word on a product: ``<v|M|v>`` or ``tr(rho M)``."""
    if factor.ndim == 2:
        return d @ factor.diagonal(k)
    src, dst = _kept(k, len(factor))
    return np.vdot(factor[dst], d * factor[src])


def _expect_word(word: tuple[str, ...], state: FockState) -> complex:
    """One word's expectation value, contracted on each mode's band.

    A band with ``|k| >= c`` keeps no states, so its word sums to exactly 0.
    """
    if state.kind == "pure":
        dst, image = _word_image(word, state.data)
        return complex(np.vdot(state.data[dst], image))
    value_si, value_lo = (_mode_expect(*band, f)
                          for band, f in zip(_word_bands(word, state.cutoff), state.data))
    return complex(value_si * value_lo)


def expect(expr: OperatorExpr, state: FockState) -> complex:
    """Expectation value ``<psi|M|psi>`` or ``tr(rho M)``.

    ``M`` is the matrix of ``reorder(expr)``, so every word is evaluated in
    its operator-preserving canonical form.  Each mode's part of a word is
    stored as its single nonzero diagonal, so a word costs O(c^2) on a pure
    tensor and O(c) per mode factor on a product, amplitudes or density, at
    cutoff ``c``; a word that shifts a mode by ``c`` or more number states
    contributes exactly 0.
    """
    return _expect_reordered(reorder(expr), state)


def _expect_reordered(ordered: OperatorExpr, state: FockState) -> complex:
    """:func:`expect` of an expression already in :func:`reorder` form."""
    value = 0j
    for word, coeff in ordered.terms:
        value += coeff * _expect_word(word, state)
    return value


def evolve(psi: np.ndarray, generator: OperatorExpr, angle: float) -> np.ndarray:
    """``exp(angle G) psi`` on the two-mode tensor ``psi[n_a, n_b]``; unitary for
    an anti-Hermitian ``G``, each of whose words acts as written on its bands.

    The Taylor series runs over steps of norm at most one, each summed to
    machine precision, as ``expm_multiply`` does (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)); ``sum |coeff| max d_a max d_b`` over the
    words' bands bounds ``||G||`` and sets the steps.
    """
    norm = 0.0
    for word, coeff in generator.terms:
        (_, d_a), (_, d_b) = _word_bands(word, len(psi))
        norm += abs(coeff) * d_a.max(initial=0.0) * d_b.max(initial=0.0)
    steps = max(1, int(np.ceil(abs(angle) * norm)))
    for _ in range(steps):
        floor = np.finfo(float).eps * np.abs(psi).max()
        term, k = psi, 0
        while np.abs(term).max() > floor:
            k += 1
            term = angle / (steps * k) * _apply(generator, term)
            psi = psi + term
    return psi


def witness_general(f: OperatorExpr, state: FockState) -> float:
    """Evaluate the subsystem-A witness ``< :A: f^dag f :A: >``.

    A negative value rules out every joint state ``int P(alpha)
    |alpha><alpha| (x) rho_B(alpha) d^2 alpha`` with ``P >= 0``.  It does
    not certify the A marginal alone: an entangled input with a classical
    A marginal can make it negative.
    """
    if f.degree > 4:
        raise ExpressionError(f"witness operand degree {f.degree} exceeds the cap of 4")
    ordered = formal_normal_order(adjoint_product(f), {"A"})
    return expect(ordered, state).real


def converged_cutoff(state: FockState, expr: OperatorExpr,
                     tol: float) -> tuple[int, FockState, complex]:
    """Smallest cutoff in a doubling schedule with settled expectation values.

    Walks the leading blocks of ``state``, product or pure, at cutoffs 2,
    4, 8, ... up to its own cutoff, and returns the first cutoff whose
    expectation value of ``expr`` agrees with the next doubling's to within
    ``tol``, the block at that next doubling, which was checked against
    ``TRUNCATION_BUDGET``, and the value on it, equal to :func:`expect` bit
    for bit.  Blocks over the budget, or with a NaN deficit, are skipped,
    and ``expr`` is reordered once.  Nothing is built here: a block of a
    product state from :func:`fock_state` is, bit for bit, the state it
    builds at that cutoff.

    Raises
    ------
    ValueError
        If ``tol`` is not finite and positive, or if the state's cutoff is
        below 4: the schedule then holds cutoff 2 alone, which has no next
        doubling to agree with.
    ConvergenceError
        If the schedule is exhausted without two successive agreements; the
        message names the largest cutoff walked.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if state.cutoff < 4:
        raise ValueError(f"the state's cutoff must be >= 4, got {state.cutoff}")
    ordered = reorder(expr)
    schedule = [2 ** k for k in range(1, state.cutoff.bit_length())]
    previous: tuple[int, complex] | None = None
    for cutoff in schedule:
        block = state.leading(cutoff)
        if not block.deficit <= TRUNCATION_BUDGET:
            previous = None
            continue
        value = _expect_reordered(ordered, block)
        if previous is not None and abs(value - previous[1]) < tol:
            return previous[0], block, value
        previous = (cutoff, value)
    raise ConvergenceError(
        f"expectation value did not settle to {tol:g} within cutoff {schedule[-1]}"
    )
