"""Randomized property suites pitting the closed forms against the oracle.

Each suite draws reproducible random scenarios from a seeded generator and
reports the worst deviation it saw.  The suites are used both by the
command-line ``validate`` command and by the acceptance tests, so their
tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import apply_gain_noise, apply_loss
from .fock import (
    ConvergenceError,
    FockState,
    build_ladder,
    coherent_amplitudes,
    converged_cutoff,
    expect,
    expr_matrix,
    pure_mode_amplitudes,
    witness_general,
)
from .gaussian import StateParams, field_moments, make_state, mean_photon
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
            "max_deviation": deviation if np.isfinite(deviation) else "inf",
            "passed": self.passed,
            "detail": self.detail,
        }


def random_state_params(rng: np.random.Generator, max_alpha: float = 2.0,
                        max_zeta: float = 0.5, max_nbar: float = 1.0) -> StateParams:
    """Random displaced-squeezed-thermal parameters within the test envelope."""
    radius = max_alpha * np.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * np.pi)
    nbar = 0.0 if rng.uniform() < 1.0 / 3.0 else rng.uniform(0.0, max_nbar)
    return StateParams(
        zeta=rng.uniform(-max_zeta, max_zeta),
        nbar=nbar,
        phi=rng.uniform(0.0, np.pi),
        alpha=radius * np.exp(1j * angle),
    )


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


def suite_gaussian_fock(trials: int = 200, seed: int = 42,
                        cutoff_max: int = 256) -> SuiteResult:
    """Closed-form variances versus brute-force Fock expectations.

    For each draw, the raw, partially ordered, and fully ordered variances
    from the field-moment closed forms are compared against the truncated-space
    evaluation of the difference observable at a converged cutoff.
    """
    name = "gaussian_fock_agreement"
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(trials):
        params_si = random_state_params(rng)
        params_lo = random_state_params(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        ell = difference_observable(theta)

        pair = TwoModeProduct(si=make_state(params_si), lo=make_state(params_lo))
        closed = evaluate(pair, theta)
        # The convergence tolerance only decides how hard the oracle refines;
        # size it to the magnitude of the compared quantity, then evaluate at
        # the next doubling above the certified cutoff for extra margin.
        scale = max(1.0, abs(closed.var_L))
        try:
            _, state = converged_cutoff(params_si, params_lo, ell * ell,
                                        tol=1e-7 * scale, max_cutoff=cutoff_max)
        except ConvergenceError as exc:
            return SuiteResult(name, trials, np.inf, False,
                               f"trial {k}: {exc}")
        var_f = (expect(ell * ell, state) - expect(ell, state) ** 2).real
        nb_f = expect(OperatorExpr.word(("bd", "b")), state).real
        na_f = expect(OperatorExpr.word(("ad", "a")), state).real
        oracle = (var_f, var_f - nb_f, var_f - na_f - nb_f)

        for a, b in zip((closed.var_L, closed.partial_no, closed.full_no), oracle):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return SuiteResult(name, trials, worst, bool(worst <= GAUSSIAN_FOCK_RTOL))


def suite_classicality(trials: int = 200, seed: int = 42,
                       cutoff: int = 32) -> SuiteResult:
    """Nonnegativity of the witness on coherent signals with arbitrary LOs.

    Draws a coherent SI, a Haar-random LO vector, and a random operator of
    degree at most two; the partially ordered quadratic form must stay
    above ``-1e-8``.
    """
    name = "classicality_nonnegativity"
    rng = np.random.default_rng(seed)
    lowest = 0.0
    for _ in range(trials):
        radius = 2.0 * np.sqrt(rng.uniform())
        alpha = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        psi_si = coherent_amplitudes(alpha, cutoff)
        psi_lo = haar_random_vector(rng, cutoff)
        state = FockState.pure_product(psi_si, psi_lo)
        f = random_expression(rng, max_degree=2, max_terms=4)
        lowest = min(lowest, witness_general(f, state))
    deviation = max(0.0, -lowest)
    return SuiteResult(name, trials, deviation, bool(deviation <= CLASSICALITY_BOUND))


def _bath_evolve(psi: np.ndarray, kind: str, strength: float) -> np.ndarray:
    """``exp(G) psi`` for the two-mode tensor ``psi[n_signal, n_ancilla]``.

    ``G = angle (a^dag R - a R^dag)`` with ``R`` the ancilla's ``a`` (loss)
    or ``a^dag`` (gain).  The signal's ladder acts from the left, the
    ancilla's from the right transposed; the real ladder's transpose is its
    adjoint.  The Taylor series runs over steps of norm at most one, each
    summed to machine precision, as ``expm_multiply`` does (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
    """
    a = build_ladder(psi.shape[0])
    if kind == "loss":
        if not 0.0 <= strength <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {strength}")
        angle, right = np.arccos(np.sqrt(strength)), a.T
    elif kind == "gain":
        if not 1.0 <= strength < np.inf:
            raise ValueError(f"g must be finite and >= 1, got {strength}")
        angle, right = np.arccosh(np.sqrt(strength)), a
    else:
        raise ValueError(f"kind must be 'loss' or 'gain', got {kind!r}")
    # ||a|| = sqrt(cutoff - 1) bounds ||G|| by this count.
    steps = max(1, int(np.ceil(2.0 * angle * (psi.shape[0] - 1))))
    for _ in range(steps):
        floor = np.finfo(float).eps * np.abs(psi).max()
        term, k = psi, 0
        while np.abs(term).max() > floor:
            k += 1
            term = angle / (steps * k) * (a.T @ term @ right - a @ term @ right.T)
            psi = psi + term
    return psi


def bath_fold_moments(params: StateParams, kind: str, strength: float,
                      cutoff: int) -> tuple[complex, complex, float]:
    """Signal moments ``(<a>, <a^2>, <a^dag a>)`` after a bath-unitary fold.

    Couples the pure signal ``params`` to a vacuum ancilla with a beam
    splitter of transmissivity ``strength`` (``kind == "loss"``) or a
    two-mode squeezer of gain ``strength`` (``kind == "gain"``), evolved on
    the truncated two-mode space.
    """
    psi = np.zeros((cutoff, cutoff), dtype=complex)
    psi[:, 0], _ = pure_mode_amplitudes(params, cutoff)
    psi = _bath_evolve(psi, kind, strength)
    a = build_ladder(cutoff)
    lowered = a @ psi
    return (complex(np.vdot(psi, lowered)), complex(np.vdot(psi, a @ lowered)),
            float(np.vdot(lowered, lowered).real))


def _bath_fold_deviation(cutoff: int = 36) -> float:
    """Worst moment error of the Gaussian channels against a bath unitary."""
    params = StateParams(zeta=0.35, nbar=0.0, phi=0.6, alpha=0.7 + 0.4j)
    worst = 0.0
    for kind, strength, channel in (("loss", 0.6, apply_loss),
                                    ("gain", 1.4, apply_gain_noise)):
        moments = field_moments(channel(make_state(params), strength))
        folded = bath_fold_moments(params, kind, strength, cutoff)
        for got, want in zip(folded, (moments.mean_a, moments.a_sq, moments.n_a)):
            worst = max(worst, abs(got - want))
    return worst


def suite_channel_laws(trials: int = 100, seed: int = 42) -> SuiteResult:
    """Scaling laws of the witness under loss and excess noise.

    Checks ``partial(loss) = eta * partial`` and ``partial(gain) = g *
    partial + (g - 1)(2 <b^dag b> + 1)`` on random scenarios, plus one
    explicit bath-unitary fold against the channels' moment maps.
    """
    name = "channel_laws"
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        params_si = random_state_params(rng)
        params_lo = random_state_params(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        eta = rng.uniform(0.0, 1.0)
        gain = rng.uniform(1.0, 3.0)
        si = make_state(params_si)
        lo = make_state(params_lo)
        partial = evaluate(TwoModeProduct(si=si, lo=lo), theta).partial_no
        nb = mean_photon(lo)

        lossy = evaluate(TwoModeProduct(si=apply_loss(si, eta), lo=lo), theta).partial_no
        worst = max(worst, abs(lossy - eta * partial))

        noisy = evaluate(TwoModeProduct(si=apply_gain_noise(si, gain), lo=lo),
                         theta).partial_no
        worst = max(worst, abs(noisy - gain * partial - (gain - 1.0) * (2.0 * nb + 1.0)))
    fold = _bath_fold_deviation()
    passed = worst <= CHANNEL_LAW_TOL and fold <= CHANNEL_FOLD_TOL
    return SuiteResult(name, trials, max(worst, fold), bool(passed),
                       detail=f"bath-fold deviation {fold:.3e}")


def suite_reorder_matrix(trials: int = 100, seed: int = 42, cutoff: int = 10,
                         max_degree: int = 4) -> SuiteResult:
    """Operator identity of the rewriter on truncated matrices.

    The matrices of an expression and of its reordered form must agree on
    the interior block whose mode indices stay ``max_degree`` below the
    cutoff, where truncation cannot leak in.
    """
    name = "reorder_matrix_equality"
    rng = np.random.default_rng(seed)
    interior = cutoff - max_degree
    keep = np.array([na * cutoff + nb
                     for na in range(interior) for nb in range(interior)])
    worst = 0.0
    for _ in range(trials):
        expr = random_expression(rng, max_degree=max_degree, max_terms=4)
        direct = expr_matrix(expr, cutoff)
        ordered = expr_matrix(reorder(expr), cutoff)
        diff = np.abs(direct - ordered)[np.ix_(keep, keep)]
        worst = max(worst, float(diff.max()))
    return SuiteResult(name, trials, worst, bool(worst <= REORDER_TOL))


def run_all_suites(trials: int = 200, seed: int = 42,
                   cutoff_max: int = 256) -> list[SuiteResult]:
    """Run the four suites with a shared seed; vacuous at zero trials."""
    if trials == 0:
        return [
            SuiteResult(name, 0, 0.0, True, detail="vacuous pass: zero trials")
            for name in ("gaussian_fock_agreement", "classicality_nonnegativity",
                         "channel_laws", "reorder_matrix_equality")
        ]
    return [
        suite_gaussian_fock(trials=trials, seed=seed, cutoff_max=cutoff_max),
        suite_classicality(trials=trials, seed=seed),
        suite_channel_laws(trials=min(trials, 100), seed=seed),
        suite_reorder_matrix(trials=min(trials, 100), seed=seed),
    ]
