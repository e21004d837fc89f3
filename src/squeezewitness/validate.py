"""Randomized property suites pitting the closed forms against the oracle.

Each suite draws reproducible random scenarios from a seeded generator and
reports the worst deviation it saw; a NaN is the worst, and fails the suite.
The suites are used both by the command-line ``validate`` command and by the
acceptance tests, so their tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ._pool import fork_map
from .channels import apply_gain_noise, apply_loss
from .fock import (
    DEFAULT_TRUNCATION_BUDGET,
    ConvergenceError,
    FockState,
    coherent_amplitudes,
    evolve,
    expect,
    fock_states,
    pure_mode_amplitudes,
    witness_general,
    _apply,
    _block_pairs,
    _mode_band,
    _mode_letters,
    _settle,
)
from .gaussian import StateParams, make_state, mean_photon
from .opexpr import LETTERS, OperatorExpr, difference_observable, reorder
from .witness import TwoModeProduct, evaluate

__all__ = [
    "SuiteResult",
    "random_state_params",
    "haar_random_vector",
    "random_expression",
    "bath_fold_moments",
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


def random_expression(rng: np.random.Generator, max_degree: int = 4,
                      max_terms: int = 4) -> OperatorExpr:
    """Random operator polynomial with words up to ``max_degree`` letters."""
    terms: dict[tuple[str, ...], complex] = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(LETTERS[int(k)] for k in rng.integers(0, len(LETTERS), size=length))
        terms[word] = terms.get(word, 0j) + complex(rng.normal(), rng.normal())
    return OperatorExpr(terms)


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
    within ``tol``; ``L^2`` is reordered once for the walk and the read."""
    ell = difference_observable(theta)
    _, state, ell_sq = _settle(top, reorder(ell * ell), tol, DEFAULT_TRUNCATION_BUDGET)
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
                          cutoff_max: int) -> list[Callable[[], tuple[float, str]]]:
    """:func:`suite_gaussian_fock`'s trials as calls of
    :func:`_gaussian_fock_chunk`, one block of :func:`fock_states` each, at
    the top of the doubling schedule; the draws and closed forms are made
    here, before any call."""
    if cutoff_max < 4:  # the doubling schedule needs two cutoffs, 2 and 4
        raise ValueError(f"cutoff_max must be >= 4, got {cutoff_max}")
    params_si, params_lo, theta = _draw_pairs(np.random.default_rng(seed), trials,
                                              (0.0, 2.0 * np.pi))
    closed = evaluate(TwoModeProduct(si=make_state(params_si), lo=make_state(params_lo)), theta)
    top = 2 ** (int(cutoff_max).bit_length() - 1)  # the schedule's last doubling
    pairs = _block_pairs(top)
    return [functools.partial(_gaussian_fock_chunk, params_si, params_lo, theta, closed, top,
                              slice(start, min(start + pairs, trials)))
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
    block at a time, at the top of the doubling schedule up to ``cutoff_max``.
    """
    chunks = _gaussian_fock_chunks(trials, seed, cutoff_max)
    return _gaussian_fock_result(trials, (chunk() for chunk in chunks))


def suite_classicality(trials: int = 200, seed: int = 42,
                       cutoff: int = 32) -> SuiteResult:
    """Nonnegativity of the witness on coherent signals with arbitrary LOs.

    Draws a coherent SI, a Haar-random LO vector, and a random operator of
    degree at most two; the partially ordered quadratic form must stay
    above ``-1e-8``.
    """
    name = "classicality_nonnegativity"
    rng = np.random.default_rng(seed)
    deviation = 0.0
    for _ in range(trials):
        radius = 2.0 * np.sqrt(rng.uniform())
        alpha = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        psi_si = coherent_amplitudes(alpha, cutoff)
        psi_lo = haar_random_vector(rng, cutoff)
        state = FockState.product(psi_si, psi_lo)
        f = random_expression(rng, max_degree=2, max_terms=4)
        value = witness_general(f, state)
        # A witness that is not finite fails: at +inf, -value would pass.
        deviation = _worse(deviation, -value if math.isfinite(value) else math.nan)
    return SuiteResult(name, trials, deviation, bool(deviation <= CLASSICALITY_BOUND))


def bath_fold_moments(params: StateParams, kind: str, strength: float,
                      cutoff: int) -> tuple[complex, complex, float]:
    """Signal moments ``(<a>, <a^2>, <a^dag a>)`` after a bath-unitary fold.

    Couples the pure signal ``params`` to a vacuum ancilla ``b`` by
    :func:`~squeezewitness.fock.evolve` under ``a^dag b - a b^dag``, a beam
    splitter of transmissivity ``strength`` (``kind == "loss"``), or ``a^dag
    b^dag - a b``, a two-mode squeezer of gain ``strength`` (``kind == "gain"``).
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    if kind == "loss":
        if not 0.0 <= strength <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {strength}")
        angle, generator = np.arccos(np.sqrt(strength)), {("ad", "b"): 1, ("a", "bd"): -1}
    elif kind == "gain":
        if not 1.0 <= strength < np.inf:
            raise ValueError(f"g must be finite and >= 1, got {strength}")
        angle, generator = np.arccosh(np.sqrt(strength)), {("ad", "bd"): 1, ("a", "b"): -1}
    else:
        raise ValueError(f"kind must be 'loss' or 'gain', got {kind!r}")
    psi = np.zeros((cutoff, cutoff), dtype=complex)
    psi[:, 0], _ = pure_mode_amplitudes(params, cutoff)
    psi = evolve(psi, OperatorExpr(generator), angle)
    a = OperatorExpr.word(("a",))
    lowered = _apply(a, psi)
    return (complex(np.vdot(psi, lowered)), complex(np.vdot(psi, _apply(a, lowered))),
            float(np.vdot(lowered, lowered).real))


def _bath_fold_deviation(cutoff: int = 36) -> float:
    """Worst moment error of the Gaussian channels against a bath unitary."""
    params = StateParams(zeta=0.35, nbar=0.0, phi=0.6, alpha=0.7 + 0.4j)
    worst = 0.0
    for kind, strength, channel in (("loss", 0.6, apply_loss),
                                    ("gain", 1.4, apply_gain_noise)):
        mode = channel(make_state(params), strength)
        folded = bath_fold_moments(params, kind, strength, cutoff)
        for got, want in zip(folded, (mode.alpha, mode.a_sq, mode.n_a)):
            worst = _worse(worst, abs(got - want))
    return worst


def suite_channel_laws(trials: int = 100, seed: int = 42) -> SuiteResult:
    """Scaling laws of the witness under loss and excess noise.

    Checks ``partial(loss) = eta * partial`` and ``partial(gain) = g *
    partial + (g - 1)(2 <b^dag b> + 1)`` on random scenarios, plus one
    explicit bath-unitary fold against the channels' moment maps.
    """
    name = "channel_laws"
    params_si, params_lo, theta, eta, gain = _draw_pairs(
        np.random.default_rng(seed), trials, (0.0, 2.0 * np.pi), (0.0, 1.0), (1.0, 3.0))
    si, lo = make_state(params_si), make_state(params_lo)
    partial = evaluate(TwoModeProduct(si=si, lo=lo), theta).partial_no
    nb = mean_photon(lo)
    lossy = evaluate(TwoModeProduct(si=apply_loss(si, eta), lo=lo), theta).partial_no
    noisy = evaluate(TwoModeProduct(si=apply_gain_noise(si, gain), lo=lo), theta).partial_no
    laws = (np.abs(lossy - eta * partial),
            np.abs(noisy - gain * partial - (gain - 1.0) * (2.0 * nb + 1.0)))
    worst = float(np.max(np.concatenate(laws), initial=0.0))
    fold = _bath_fold_deviation()
    passed = worst <= CHANNEL_LAW_TOL and fold <= CHANNEL_FOLD_TOL
    return SuiteResult(name, trials, _worse(worst, fold), bool(passed),
                       detail=f"bath-fold deviation {fold:.3e}")


def _offset_bands(expr: OperatorExpr, cutoff: int) -> dict[tuple[int, int], np.ndarray]:
    """The expression's truncated matrix as one summed band per offset pair.

    A word maps ``|n_a, n_b>`` to a multiple of ``|n_a + k_a, n_b + k_b>``,
    so its matrix is ``coeff * outer(d_a, d_b)`` on its two mode bands
    (:func:`~squeezewitness.fock._mode_band`), indexed from the first state
    each band reads.  The words of one pair ``(k_a, k_b)`` are summed in
    ``expr.terms`` order, so every element equals, bit for bit, that of the
    dense matrix summed over the terms.
    """
    bands: dict[tuple[int, int], np.ndarray] = {}
    for word, coeff in expr.terms:
        (k_a, d_a), (k_b, d_b) = (_mode_band(letters, cutoff)
                                  for letters in _mode_letters(word))
        bands[k_a, k_b] = bands.get((k_a, k_b), 0.0) + coeff * np.multiply.outer(d_a, d_b)
    return bands


def suite_reorder_matrix(trials: int = 100, seed: int = 42, cutoff: int = 10,
                         max_degree: int = 4) -> SuiteResult:
    """Operator identity of the rewriter on truncated matrices.

    The matrices of an expression and of its reordered form must agree on
    the interior block whose mode indices stay ``max_degree`` below the
    cutoff, where truncation cannot leak in.  Both are compared band by
    band: in a band of offset ``k``, the states ``n`` with ``n`` and ``n +
    k`` in the interior are its first ``interior - |k|``.
    """
    name = "reorder_matrix_equality"
    interior = cutoff - max_degree
    if interior < 1:  # no state to compare on, which would pass vacuously
        raise ValueError(f"cutoff must exceed max_degree, got {cutoff} and {max_degree}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        expr = random_expression(rng, max_degree=max_degree, max_terms=4)
        direct = _offset_bands(expr, cutoff)
        ordered = _offset_bands(reorder(expr), cutoff)
        for ks in direct.keys() | ordered.keys():
            rows, cols = (max(0, interior - abs(k)) for k in ks)
            diff = np.abs(direct.get(ks, 0.0) - ordered.get(ks, 0.0))[:rows, :cols]
            worst = _worse(worst, float(np.max(diff, initial=0.0)))
    return SuiteResult(name, trials, worst, bool(worst <= REORDER_TOL))


def run_all_suites(trials: int = 200, seed: int = 42,
                   cutoff_max: int = 256) -> list[SuiteResult]:
    """Run the four suites with a shared seed; vacuous at zero trials.

    The work runs in :func:`~squeezewitness._pool.fork_map`'s workers, one
    per available core: the classicality, channel-law and reorder suites
    are one item each, and the Gaussian-Fock suite's trials are one item
    per block of :func:`fock_states`, drawn and put in closed form here,
    before any worker is forked.  Each result comes back as a pickle, in
    item order, so they are the same for any core count.  A suite that
    raises, or a worker that dies, raises
    :class:`~squeezewitness._pool.WorkerError` here on any core count.
    """
    if trials == 0:
        return [
            SuiteResult(name, 0, 0.0, True, detail="vacuous pass: zero trials")
            for name in ("gaussian_fock_agreement", "classicality_nonnegativity",
                         "channel_laws", "reorder_matrix_equality")
        ]
    suites = [functools.partial(suite_classicality, trials=trials, seed=seed),
              functools.partial(suite_channel_laws, trials=min(trials, 100), seed=seed),
              functools.partial(suite_reorder_matrix, trials=min(trials, 100), seed=seed)]
    chunks = _gaussian_fock_chunks(trials, seed, cutoff_max)
    with contextlib.closing(fork_map(lambda call: call(), suites + chunks)) as results:
        others = [next(results) for _ in suites]
        return [_gaussian_fock_result(trials, results), *others]
