"""Brute-force verification engine on a truncated two-mode Fock space.

Everything here is deliberately independent of the Gaussian closed forms:
states are concrete amplitude arrays, operators are concrete matrices, and
expectation values are plain contractions.  The module exists to validate
the analytic path, so it favours explicit truncation-error accounting over
speed: no state is ever silently renormalized.

Every single-mode state, pure or thermal, is built from its
:class:`StateParams` by one exact recurrence for Gaussian Fock elements
(Dodonov, Man'ko & Man'ko, PRA 49, 2993 (1994); Miatto & Quesada,
Quantum 4, 366 (2020)).  Its coefficients come from the analytic
continuation of the Husimi function.  Pure amplitudes follow a 3-term
Hermite recurrence at O(c) cost, and density matrices a 2-D recurrence at
O(c^2).  Neither involves quadrature or a matrix exponential, and the
elements at cutoff ``c`` are exactly the leading block of those at ``2c``.
``coherent_amplitudes`` and ``squeezed_amplitudes`` are independent
closed-form references.
"""

from __future__ import annotations

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
    "build_ladder",
    "fock_state",
    "expect",
    "witness_general",
    "converged_cutoff",
    "expr_matrix",
    "coherent_amplitudes",
    "squeezed_amplitudes",
    "pure_mode_amplitudes",
]

DEFAULT_TRUNCATION_BUDGET = 1e-8
MAX_CUTOFF = 512


class TruncationError(Exception):
    """The requested cutoff cannot hold the state within the error budget."""


class ConvergenceError(Exception):
    """The doubling schedule ran out before expectation values settled."""


@lru_cache(maxsize=None)
def build_ladder(cutoff: int) -> np.ndarray:
    """Truncated annihilation matrix ``<n-1|a|n> = sqrt(n)``, read-only.

    It acts on mode A or B of a two-mode state by (implicit) tensor product
    with the identity on the other mode.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _mode_matrix(daggers: tuple[bool, ...], cutoff: int) -> np.ndarray:
    """Matrix of one mode's letters in written order, ``True`` for a dagger.

    Accumulates from the right, so the last letter acts first.
    """
    a = build_ladder(cutoff)
    out = np.eye(cutoff, dtype=complex)
    for dagger in reversed(daggers):
        out = (a.conj().T if dagger else a) @ out
    out.setflags(write=False)
    return out


def _word_matrices(word: tuple[str, ...], cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of a word's mode-A and mode-B letters."""
    return tuple(_mode_matrix(tuple(IS_DAGGER[letter] for letter in word
                                    if MODE[letter] == mode), cutoff)
                 for mode in "AB")


def expr_matrix(expr: OperatorExpr, cutoff: int) -> np.ndarray:
    """Full two-mode matrix of an expression (mode A is the first factor).

    Only intended for small cutoffs; the result is dense of size
    ``cutoff^2 x cutoff^2``.
    """
    out = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for word, coeff in expr.terms:
        out += coeff * np.kron(*_word_matrices(word, cutoff))
    return out


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------

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


def squeezed_amplitudes(zeta: float, cutoff: int) -> np.ndarray:
    """Squeezed-vacuum amplitudes, even numbers only.

    ``c_{2m} = (-tanh zeta)^m sqrt((2m)!) / (2^m m!) / sqrt(cosh zeta)``.
    """
    v = np.zeros(cutoff, dtype=complex)
    v[0] = 1.0
    t = np.tanh(zeta)
    log_fact = _log_factorials(cutoff)
    for k in range(2, cutoff, 2):
        m = k // 2
        v[k] = (-t) ** m * np.exp(0.5 * log_fact[k] - m * np.log(2.0) - log_fact[m])
    return v / np.sqrt(np.cosh(zeta))


def _husimi_coefficients(params: StateParams) -> tuple[float, complex, float, complex]:
    """``(T, a11, a12, b1)`` of the coherent-state kernel of one mode.

    For unnormalized coherent states ``|z) = sum_n z^n / sqrt(n!) |n>``,
    ``(w|rho|z) = T exp(a11 x^2/2 + a12 x y + conj(a11) y^2/2 + b1 x +
    conj(b1) y)`` with ``x = conj(w)`` and ``y = z``.  This is the analytic
    continuation of the Husimi function, a Gaussian whose covariance is
    ``M = V + I/2`` with ``V = R_phi^T diag(e^(-2 zeta)/2 + nbar,
    e^(2 zeta)/2 + nbar) R_phi``.
    """
    m_x = np.exp(-2.0 * params.zeta) / 2.0 + params.nbar + 0.5
    m_p = np.exp(2.0 * params.zeta) / 2.0 + params.nbar + 0.5
    a11 = complex(0.5 * (1.0 / m_p - 1.0 / m_x) * np.exp(2j * params.phi))
    keep = float(0.5 * (1.0 / m_x + 1.0 / m_p))  # 1 - a12
    alpha = complex(params.alpha)
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


def _density_matrix(params: StateParams, cutoff: int) -> np.ndarray:
    """Fock elements of the mode by the 2-D recurrence, thermal part included.

    ``rho[m+1, n] = (b1 rho[m, n] + a11 sqrt(m) rho[m-1, n]
    + a12 sqrt(n) rho[m, n-1]) / sqrt(m+1)``; row 0 runs the 1-D recurrence
    in ``n`` with ``conj(b1)`` and ``conj(a11)`` from ``rho[0, 0] = T``.
    """
    t, a11, a12, b1 = _husimi_coefficients(params)
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


def _mode_factor(params: StateParams, cutoff: int) -> np.ndarray:
    """Amplitudes of a pure mode, or the density matrix of a thermal one."""
    if params.nbar > 0:
        return _density_matrix(params, cutoff)
    t, a11, _, b1 = _husimi_coefficients(params)
    return _hermite_sequence(np.sqrt(t), a11, b1, cutoff)


def pure_mode_amplitudes(params: StateParams, cutoff: int) -> tuple[np.ndarray, float]:
    """Pure (nbar = 0) single-mode amplitudes and their truncation deficit.

    The global phase is fixed by a real, positive vacuum amplitude.
    """
    if params.nbar > 0:
        raise ValueError(f"a pure mode needs nbar = 0, got {params.nbar}")
    v = _mode_factor(params, cutoff)
    return v, max(0.0, 1.0 - float(np.vdot(v, v).real))


@dataclass(frozen=True)
class FockState:
    """A truncated two-mode state.

    ``kind == "pure"`` stores the amplitude tensor ``data[n_a, n_b]`` of
    shape ``(cutoff, cutoff)``, which may be entangled.  ``kind == "mixed"``
    stores the factors ``data == (rho_si, rho_lo)`` of a product density
    operator; that factored form covers every mixed state this oracle has
    to build and keeps desk-scale cutoffs cheap.  ``deficit`` is the
    norm/trace mass lost to truncation; nothing is renormalized.
    """

    kind: str
    cutoff: int
    data: object
    deficit: float = 0.0

    @classmethod
    def pure(cls, amplitudes: np.ndarray, deficit: float = 0.0) -> "FockState":
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 2 or amplitudes.shape[0] != amplitudes.shape[1]:
            raise ValueError("pure amplitudes must form a square two-mode tensor")
        return cls(kind="pure", cutoff=amplitudes.shape[0], data=amplitudes,
                   deficit=deficit)

    @classmethod
    def pure_product(cls, vec_si: np.ndarray, vec_lo: np.ndarray,
                     deficit: float = 0.0) -> "FockState":
        return cls.pure(np.outer(vec_si, vec_lo), deficit=deficit)

    @classmethod
    def mixed_product(cls, rho_si: np.ndarray, rho_lo: np.ndarray,
                      deficit: float = 0.0) -> "FockState":
        rho_si = np.asarray(rho_si, dtype=complex)
        rho_lo = np.asarray(rho_lo, dtype=complex)
        if rho_si.shape != rho_lo.shape or rho_si.ndim != 2:
            raise ValueError("factors must be square matrices of equal cutoff")
        return cls(kind="mixed", cutoff=rho_si.shape[0], data=(rho_si, rho_lo),
                   deficit=deficit)

    def validate(self, psd_tol: float = 1e-10) -> None:
        """Check the norm/trace and positivity invariants; raise on failure."""
        if self.kind == "pure":
            norm = float(np.vdot(self.data, self.data).real)
            if not 1.0 - self.deficit - 1e-12 <= norm <= 1.0 + 1e-12:
                raise ValueError(f"pure norm {norm} outside [1 - deficit, 1]")
        else:
            for rho in self.data:
                trace = float(np.trace(rho).real)
                if trace > 1.0 + 1e-12:
                    raise ValueError(f"factor trace {trace} exceeds 1")
                if np.linalg.eigvalsh(rho).min() < -psd_tol:
                    raise ValueError("density factor is not positive semidefinite")
            total = float(np.trace(self.data[0]).real * np.trace(self.data[1]).real)
            if total < 1.0 - self.deficit - 1e-12:
                raise ValueError(f"trace {total} below 1 - deficit")


def _assemble(factors: list[np.ndarray], cutoff: int, budget: float) -> FockState:
    """Product state of the leading ``cutoff`` block of each mode factor.

    Raises
    ------
    TruncationError
        If the truncation deficit exceeds ``budget``.
    """
    parts = [f[:cutoff] if f.ndim == 1 else f[:cutoff, :cutoff] for f in factors]
    kept = [np.vdot(p, p).real if p.ndim == 1 else np.trace(p).real for p in parts]
    deficits = [max(0.0, 1.0 - float(k)) for k in kept]
    total_deficit = 1.0 - (1.0 - deficits[0]) * (1.0 - deficits[1])
    if total_deficit > budget:
        raise TruncationError(
            f"truncation deficit {total_deficit:.3e} exceeds budget {budget:.3e} "
            f"at cutoff {cutoff}"
        )
    if all(part.ndim == 1 for part in parts):
        return FockState.pure_product(parts[0], parts[1], deficit=total_deficit)
    factors = [p if p.ndim == 2 else np.outer(p, p.conj()) for p in parts]
    return FockState.mixed_product(factors[0], factors[1], deficit=total_deficit)


def fock_state(params_si: StateParams, params_lo: StateParams, cutoff: int,
               budget: float = DEFAULT_TRUNCATION_BUDGET) -> FockState:
    """Build the product state SI x LO at the given per-mode cutoff.

    Raises
    ------
    TruncationError
        If the truncation deficit exceeds ``budget``.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds the cap of {MAX_CUTOFF}")
    factors = [_mode_factor(params, cutoff) for params in (params_si, params_lo)]
    return _assemble(factors, cutoff, budget)


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

def _expect_word(word: tuple[str, ...], state: FockState) -> complex:
    mat_a, mat_b = _word_matrices(word, state.cutoff)
    if state.kind == "pure":
        psi = state.data
        return complex(np.vdot(psi, mat_a @ psi @ mat_b.T))
    rho_a, rho_b = state.data
    return complex(np.einsum("ij,ji->", mat_a, rho_a) *
                   np.einsum("ij,ji->", mat_b, rho_b))


def expect(expr: OperatorExpr, state: FockState) -> complex:
    """Expectation value ``<psi|M|psi>`` or ``tr(rho M)``.

    ``M`` is the matrix of ``reorder(expr)``, so every word is evaluated in
    its operator-preserving canonical form.
    """
    if expr.degree > 8:
        raise ExpressionError(f"expression degree {expr.degree} exceeds the cap of 8")
    value = 0j
    for word, coeff in reorder(expr).terms:
        value += coeff * _expect_word(word, state)
    return value


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


def converged_cutoff(params_si: StateParams, params_lo: StateParams,
                     expr: OperatorExpr, tol: float,
                     max_cutoff: int = MAX_CUTOFF,
                     budget: float = DEFAULT_TRUNCATION_BUDGET) -> tuple[int, FockState]:
    """Smallest cutoff in a doubling schedule with settled expectation values.

    Doubles the cutoff starting from 2 and returns the first cutoff whose
    expectation value of ``expr`` agrees with the next doubling to within
    ``tol``, together with the state at that next doubling, which was
    checked against the budget.  Cutoffs whose states exceed the truncation
    budget are skipped.
    Each mode is built once at the last cutoff of the schedule; the states
    at smaller cutoffs are its leading blocks, exactly as :func:`fock_state`
    would build them.

    Raises
    ------
    ConvergenceError
        If the schedule is exhausted without two successive agreements.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    ceiling = min(max_cutoff, MAX_CUTOFF)
    # 2, 4, 8, ... up to the ceiling.
    schedule = [2 ** k for k in range(1, max(int(ceiling), 1).bit_length())]
    top = max(schedule, default=2)
    factors = [_mode_factor(params, top) for params in (params_si, params_lo)]
    previous: tuple[int, complex] | None = None
    for cutoff in schedule:
        try:
            state = _assemble(factors, cutoff, budget)
        except TruncationError:
            previous = None
        else:
            value = expect(expr, state)
            if previous is not None and abs(value - previous[1]) < tol:
                return previous[0], state
            previous = (cutoff, value)
    raise ConvergenceError(
        f"expectation value did not settle to {tol:g} within cutoff {ceiling}"
    )
