"""Randomized property suites pitting the closed forms against the oracle.

Each suite draws reproducible random scenarios from a seeded generator and
reports the worst deviation it saw; a NaN is the worst, and fails the suite.
A trial count or seed that is not an integer, or is negative, raises
``ValueError`` before anything is drawn.
The suites are used both by the command-line ``validate`` command and by the
acceptance tests, so their tolerances and cutoffs are fixed here and nowhere
else, bar ``cutoff_max``: a power of two from 4 to ``MAX_CUTOFF``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ._pool import fork_map
from .channels import apply_gain_noise, apply_loss
from .fock import (
    MAX_CUTOFF,
    ConvergenceError,
    FockState,
    converged_cutoff,
    evolve,
    expect,
    fock_states,
    witness_general,
    _block_pairs,
    _word_bands,
)
from .gaussian import StateParams, make_state, mean_photon
from .opexpr import LETTERS, OperatorExpr, difference_observable, reorder
from .witness import TwoModeProduct, evaluate

__all__ = [
    "SuiteResult",
    "random_state_params",
    "haar_random_vector",
    "random_expression",
    "suite_gaussian_fock",
    "suite_classicality",
    "suite_channel_laws",
    "suite_reorder_matrix",
    "run_all_suites",
]

GAUSSIAN_FOCK_RTOL = 1e-6
CLASSICALITY_BOUND = 1e-8
CHANNEL_LAW_TOL = 1e-12
CHANNEL_FOLD_TOL = 1e-8
REORDER_TOL = 1e-10
CLASSICALITY_CUTOFF = 32
BATH_FOLD_CUTOFF = 36
REORDER_CUTOFF = 10
REORDER_MAX_DEGREE = 4


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one property suite."""

    name: str
    trials: int
    max_deviation: float
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        deviation = self.max_deviation
        return {
            "name": self.name,
            "trials": self.trials,
            "max_deviation": deviation if np.isfinite(deviation) else str(float(deviation)),
            "passed": self.passed,
            "detail": self.detail,
        }


def _worse(worst: float, deviation: float) -> float:
    """The larger of two deviations, or NaN if either is NaN: ``max`` would
    drop a NaN and let a suite pass on it."""
    return deviation if math.isnan(deviation) or deviation > worst else worst


def _draw_fields(rng: np.random.Generator, max_alpha: float = 2.0, max_zeta: float = 0.5,
                 max_nbar: float = 1.0) -> tuple[float, float, float, complex]:
    """``(zeta, nbar, phi, alpha)`` of one :func:`random_state_params` draw."""
    alpha = max_alpha * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    nbar = 0.0 if rng.uniform() < 1.0 / 3.0 else rng.uniform(0.0, max_nbar)
    zeta = rng.uniform(-max_zeta, max_zeta)
    return zeta, nbar, rng.uniform(0.0, np.pi), alpha


def random_state_params(rng: np.random.Generator, max_alpha: float = 2.0,
                        max_zeta: float = 0.5, max_nbar: float = 1.0) -> StateParams:
    """Random displaced-squeezed-thermal parameters within the test envelope."""
    return StateParams(*_draw_fields(rng, max_alpha, max_zeta, max_nbar))


def haar_random_vector(rng: np.random.Generator, cutoff: int) -> np.ndarray:
    """Uniformly random pure-state vector on the truncated unit sphere."""
    v = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
    return v / np.linalg.norm(v)


def random_expression(rng: np.random.Generator, max_degree: int) -> OperatorExpr:
    """Random operator polynomial of 1-4 terms, words up to ``max_degree`` letters."""
    terms: dict[tuple[str, ...], complex] = {}
    for _ in range(int(rng.integers(1, 5))):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(LETTERS[int(k)] for k in rng.integers(0, len(LETTERS), size=length))
        terms[word] = terms.get(word, 0j) + complex(rng.normal(), rng.normal())
    return OperatorExpr(terms)


def _generator(trials: int, seed: int) -> tuple[int, np.random.Generator]:
    """``trials`` as a plain ``int`` and a suite's generator, made from
    ``seed`` once both are checked to be integers that are not negative."""
    checked = []
    for label, value in (("trials", trials), ("seed", seed)):
        try:
            checked.append(operator.index(value))
        except TypeError:
            raise ValueError(f"{label} must be an integer, got {value!r}") from None
        if checked[-1] < 0:
            raise ValueError(f"{label} must be >= 0, got {checked[-1]}")
    trials, seed = checked
    return trials, np.random.default_rng(seed)


def _draw_pairs(rng: np.random.Generator, trials: int,
                *ranges: tuple[float, float]) -> tuple:
    """Per trial, in this order: SI and LO :func:`random_state_params`, then one
    uniform draw per ``(low, high)`` range; element ``k`` of the SI and LO
    :class:`StateParams` of arrays and of one array per range is trial ``k``."""
    rows = [(*_draw_fields(rng), *_draw_fields(rng),
             *(rng.uniform(low, high) for low, high in ranges)) for _ in range(trials)]
    columns = [np.array(column) for column in zip(*rows)] or [np.empty(0)] * (8 + len(ranges))
    return StateParams(*columns[:4]), StateParams(*columns[4:8]), *columns[8:]


def _oracle_variances(top: FockState, theta: float, tol: float) -> tuple[float, float, float]:
    """Raw, partially and fully ordered variances of ``L(theta)`` on the
    oracle, read at the next doubling above the cutoff that
    :func:`~squeezewitness.fock.converged_cutoff` certifies on ``top`` to
    within ``tol``; ``<L^2>`` is the value the walk settled on."""
    ell = difference_observable(theta)
    _, state, ell_sq = converged_cutoff(top, ell * ell, tol)
    var_f = (ell_sq - expect(ell, state) ** 2).real
    nb_f = expect(OperatorExpr.word(("bd", "b")), state).real
    na_f = expect(OperatorExpr.word(("ad", "a")), state).real
    return var_f, var_f - nb_f, var_f - na_f - nb_f


def _sliced(params: StateParams, part: slice) -> StateParams:
    """The trials ``part`` of a :class:`StateParams` of arrays."""
    return StateParams(**{name: value[part] for name, value in vars(params).items()})


def _gaussian_fock_chunk(params_si: StateParams, params_lo: StateParams, theta: np.ndarray,
                         closed, top: int, part: slice) -> tuple[float, str]:
    """The oracle's side of :func:`suite_gaussian_fock` on the trials
    ``part``, built as one block of :func:`fock_states`: the worst
    deviation from the closed forms ``closed``, and the detail of the
    first trial that fails to settle, or ``""``."""
    states = fock_states(_sliced(params_si, part), _sliced(params_lo, part), top)
    worst = 0.0
    for k in range(part.start, part.stop):
        # The convergence tolerance only decides how hard the oracle refines;
        # size it to the magnitude of the compared quantity.
        try:
            oracle = _oracle_variances(next(states), theta[k],
                                       tol=1e-7 * max(1.0, abs(closed.var_L[k])))
        except ConvergenceError as exc:
            return worst, f"trial {k}: {exc}"
        for a, b in zip((closed.var_L[k], closed.partial_no[k], closed.full_no[k]), oracle):
            worst = _worse(worst, abs(a - b) / max(1.0, abs(b)))
    return worst, ""


def _gaussian_fock_chunks(trials: int, seed: int,
                          cutoff_max: int) -> tuple[int, list[Callable[[], tuple[float, str]]]]:
    """``trials`` as a plain ``int``, and :func:`suite_gaussian_fock`'s trials
    as calls of :func:`_gaussian_fock_chunk`, one block of
    :func:`fock_states` each, at ``cutoff_max``; the draws and closed forms
    are made here, before any call, once the arguments are checked."""
    trials, rng = _generator(trials, seed)
    powers = {2 ** k for k in range(2, MAX_CUTOFF.bit_length())}
    # 128+0j equals 128, but a ceiling must be a real number.
    if not (isinstance(cutoff_max, numbers.Real) and cutoff_max in powers):
        raise ValueError(f"cutoff_max must be a power of two from 4 to {MAX_CUTOFF}, "
                         f"the oracle's cap, got {cutoff_max}")
    params_si, params_lo, theta = _draw_pairs(rng, trials, (0.0, 2.0 * np.pi))
    closed = evaluate(TwoModeProduct(si=make_state(params_si), lo=make_state(params_lo)), theta)
    top = int(cutoff_max)
    pairs = _block_pairs(top)
    return trials, [functools.partial(_gaussian_fock_chunk, params_si, params_lo, theta, closed,
                                      top, slice(start, min(start + pairs, trials)))
                    for start in range(0, trials, pairs)]


def _gaussian_fock_result(trials: int, chunks: Iterable[tuple[float, str]]) -> SuiteResult:
    """:func:`suite_gaussian_fock`'s result from its chunks' outcomes in
    trial order; it stops at the first failing chunk."""
    name = "gaussian_fock_agreement"
    worst = 0.0
    for chunk_worst, failure in chunks:
        if failure:
            return SuiteResult(name, trials, np.inf, False, failure)
        worst = _worse(worst, chunk_worst)
    return SuiteResult(name, trials, worst, bool(worst <= GAUSSIAN_FOCK_RTOL))


def suite_gaussian_fock(trials: int = 200, seed: int = 42,
                        cutoff_max: int = 256) -> SuiteResult:
    """Closed-form variances versus brute-force Fock expectations.

    For each draw, the raw, partially ordered, and fully ordered variances
    from the field-moment closed forms are compared against the truncated-space
    evaluation of the difference observable at a converged cutoff.  The
    draws are one :class:`StateParams` of arrays per side: the closed forms
    take them in one call, and :func:`fock_states` builds each pair once, a
    block at a time, at ``cutoff_max``, the top of the doubling schedule,
    which must be a power of two from 4 to ``MAX_CUTOFF``.
    """
    trials, chunks = _gaussian_fock_chunks(trials, seed, cutoff_max)
    return _gaussian_fock_result(trials, (chunk() for chunk in chunks))


def suite_classicality(trials: int = 200, seed: int = 42) -> SuiteResult:
    """Nonnegativity of the witness on coherent signals with arbitrary LOs.

    Draws a coherent SI, a Haar-random LO vector, both at
    ``CLASSICALITY_CUTOFF``, and a random operator of degree at most two;
    the partially ordered quadratic form must stay above ``-1e-8``.  Every
    SI is built, like every other oracle mode, by one
    :func:`~squeezewitness.fock.fock_states` call over all the drawn
    amplitudes.
    """
    name = "classicality_nonnegativity"
    trials, rng = _generator(trials, seed)
    alphas, draws = np.empty(trials, dtype=complex), []
    for k in range(trials):  # the reports depend on this draw order
        radius = 2.0 * np.sqrt(rng.uniform())
        alphas[k] = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        draws.append((haar_random_vector(rng, CLASSICALITY_CUTOFF),
                      random_expression(rng, max_degree=2)))
    signals = fock_states(StateParams(alpha=alphas), StateParams(), CLASSICALITY_CUTOFF)
    deviation = 0.0
    for signal, (psi_lo, f) in zip(signals, draws):
        value = witness_general(f, FockState.product(signal.data[0], psi_lo))
        # A witness that is not finite fails: at +inf, -value would pass.
        deviation = _worse(deviation, -value if math.isfinite(value) else math.nan)
    return SuiteResult(name, trials, deviation, bool(deviation <= CLASSICALITY_BOUND))


def suite_channel_laws(trials: int = 100, seed: int = 42) -> SuiteResult:
    """Scaling laws of the witness under loss and excess noise.

    Checks ``partial(loss) = eta * partial`` and ``partial(gain) = g *
    partial + (g - 1)(2 <b^dag b> + 1)`` on random scenarios, plus one
    explicit bath-unitary fold against the channels' moment maps: a pure
    signal and a vacuum ancilla ``b`` are evolved by
    :func:`~squeezewitness.fock.evolve` under ``a^dag b - a b^dag``, a beam
    splitter of transmissivity ``eta``, or ``a^dag b^dag - a b``, a two-mode
    squeezer of gain ``g``, and the signal's ``<a>``, ``<a^2>`` and ``<a^dag
    a>`` are read by :func:`~squeezewitness.fock.expect`.
    """
    name = "channel_laws"
    trials, rng = _generator(trials, seed)
    params_si, params_lo, theta, eta, gain = _draw_pairs(
        rng, trials, (0.0, 2.0 * np.pi), (0.0, 1.0), (1.0, 3.0))
    si, lo = make_state(params_si), make_state(params_lo)
    partial = evaluate(TwoModeProduct(si=si, lo=lo), theta).partial_no
    nb = mean_photon(lo)
    lossy = evaluate(TwoModeProduct(si=apply_loss(si, eta), lo=lo), theta).partial_no
    noisy = evaluate(TwoModeProduct(si=apply_gain_noise(si, gain), lo=lo), theta).partial_no
    laws = (np.abs(lossy - eta * partial),
            np.abs(noisy - gain * partial - (gain - 1.0) * (2.0 * nb + 1.0)))
    worst = float(np.max(np.concatenate(laws), initial=0.0))
    params = StateParams(zeta=0.35, nbar=0.0, phi=0.6, alpha=0.7 + 0.4j)
    (signal,) = fock_states(params, StateParams(), BATH_FOLD_CUTOFF)
    start = np.zeros((BATH_FOLD_CUTOFF, BATH_FOLD_CUTOFF), dtype=complex)
    start[:, 0] = signal.data[0]
    moments = [OperatorExpr.word(word) for word in (("a",), ("a", "a"), ("ad", "a"))]
    fold = 0.0
    for channel, strength, angle, generator in (
            (apply_loss, 0.6, np.arccos, {("ad", "b"): 1, ("a", "bd"): -1}),
            (apply_gain_noise, 1.4, np.arccosh, {("ad", "bd"): 1, ("a", "b"): -1})):
        mode = channel(make_state(params), strength)
        state = FockState.pure(evolve(start, OperatorExpr(generator), angle(np.sqrt(strength))))
        for word, want in zip(moments, (mode.alpha, mode.a_sq, mode.n_a)):
            fold = _worse(fold, abs(expect(word, state) - want))
    passed = worst <= CHANNEL_LAW_TOL and fold <= CHANNEL_FOLD_TOL
    return SuiteResult(name, trials, _worse(worst, fold), bool(passed),
                       detail=f"bath-fold deviation {fold:.3e}")


def _offset_bands(expr: OperatorExpr, cutoff: int) -> dict[tuple[int, int], np.ndarray]:
    """The expression's truncated matrix as one summed band per offset pair.

    A word maps ``|n_a, n_b>`` to a multiple of ``|n_a + k_a, n_b + k_b>``,
    so its matrix is ``coeff * outer(d_a, d_b)`` on its two mode bands
    (:func:`~squeezewitness.fock._word_bands`), indexed from the first state
    each band reads.  The words of one pair ``(k_a, k_b)`` are summed in
    ``expr.terms`` order, so every element equals, bit for bit, that of the
    dense matrix summed over the terms.
    """
    bands: dict[tuple[int, int], np.ndarray] = {}
    for word, coeff in expr.terms:
        (k_a, d_a), (k_b, d_b) = _word_bands(word, cutoff)
        bands[k_a, k_b] = bands.get((k_a, k_b), 0.0) + coeff * np.multiply.outer(d_a, d_b)
    return bands


def suite_reorder_matrix(trials: int = 100, seed: int = 42) -> SuiteResult:
    """Operator identity of the rewriter on truncated matrices.

    The matrices at ``REORDER_CUTOFF`` of an expression of degree at most
    ``REORDER_MAX_DEGREE`` and of its reordered form must agree on the
    interior block that stays that degree below the cutoff, where truncation
    cannot leak in.  Both are compared band by band: in a band of offset
    ``k``, the states ``n`` with ``n`` and ``n + k`` in the interior are its
    first ``interior - |k|``.
    """
    name = "reorder_matrix_equality"
    interior = REORDER_CUTOFF - REORDER_MAX_DEGREE
    trials, rng = _generator(trials, seed)
    worst = 0.0
    for _ in range(trials):
        expr = random_expression(rng, max_degree=REORDER_MAX_DEGREE)
        direct = _offset_bands(expr, REORDER_CUTOFF)
        ordered = _offset_bands(reorder(expr), REORDER_CUTOFF)
        for ks in direct.keys() | ordered.keys():
            rows, cols = (max(0, interior - abs(k)) for k in ks)
            diff = np.abs(direct.get(ks, 0.0) - ordered.get(ks, 0.0))[:rows, :cols]
            worst = _worse(worst, float(np.max(diff, initial=0.0)))
    return SuiteResult(name, trials, worst, bool(worst <= REORDER_TOL))


def run_all_suites(trials: int = 200, seed: int = 42,
                   cutoff_max: int = 256) -> list[SuiteResult]:
    """Run the four suites with a shared seed.

    The work runs in :func:`~squeezewitness._pool.fork_map`'s workers, one
    per available core: the classicality, channel-law and reorder suites
    are one item each, and the Gaussian-Fock suite's trials are one item
    per block of :func:`fock_states`, drawn and put in closed form here,
    before any worker is forked.  Each result comes back as a pickle, in
    item order, so they are the same for any core count.  A suite that
    raises, or a worker that dies, raises
    :class:`~squeezewitness._pool.WorkerError` here on any core count.  A
    bad argument, such as a ``cutoff_max`` that is not a power of two from 4
    to ``MAX_CUTOFF``, raises ``ValueError`` before any draw or fork.
    """
    trials, chunks = _gaussian_fock_chunks(trials, seed, cutoff_max)  # checks every argument
    suites = [functools.partial(suite_classicality, trials=trials, seed=seed),
              functools.partial(suite_channel_laws, trials=min(trials, 100), seed=seed),
              functools.partial(suite_reorder_matrix, trials=min(trials, 100), seed=seed)]
    with contextlib.closing(fork_map(lambda call: call(), suites + chunks)) as results:
        others = [next(results) for _ in suites]
        return [_gaussian_fock_result(trials, results), *others]
