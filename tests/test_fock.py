import itertools
import weakref

import numpy as np
import pytest
from coherent_reference import coherent_amplitudes
from dense_reference import (
    expr_matrix,
    ladder,
    ladder_fold,
    mode_matrix,
    reorder_deviation,
)
from density_reference import density_matrix
from hypothesis import given, settings, strategies as st
from squeezed_reference import squeezed_amplitudes

from squeezewitness.channels import apply_gain_noise, apply_loss
from squeezewitness.fock import (
    MAX_CUTOFF,
    ConvergenceError,
    FockState,
    TruncationError,
    converged_cutoff,
    evolve,
    expect,
    fock_state,
    fock_states,
    witness_general,
    _amplitudes,
    _apply,
    _density_matrices,
    _mode_band,
    _mode_factors,
)
from squeezewitness.gaussian import (
    ModeMoments,
    StateParams,
    db_to_squeeze,
    make_state,
)
from squeezewitness.opexpr import (
    LETTERS,
    ExpressionError,
    OperatorExpr,
    difference_observable,
    reorder,
)
from squeezewitness.validate import (
    CLASSICALITY_CUTOFF,
    random_expression,
    random_state_params,
    _BATH_UNITARIES,
    _bath_fold,
)
from squeezewitness.witness import TwoModeProduct, evaluate

ZETA_3DB = db_to_squeeze(3.0)
NUMBER_A = OperatorExpr.word(("ad", "a"))
NUMBER_B = OperatorExpr.word(("bd", "b"))


def _fields(params):
    """``(zeta, nbar, phi, alpha)``, the fields the recurrence takes."""
    return params.zeta, params.nbar, params.phi, params.alpha


def _stacked(params, thermal):
    """One ``StateParams`` of arrays from scalar ones: element ``k`` is
    ``params[k]``, made pure where ``thermal[k]`` is false and at least
    slightly thermal where it is true."""
    zeta, nbar, phi, alpha = (np.array(column) for column in zip(*map(_fields, params)))
    return StateParams(zeta, np.where(thermal, np.maximum(nbar, 0.05), 0.0), phi, alpha)


def _element(params, k):
    """Element ``k`` of a ``StateParams`` of arrays, a scalar field as it is."""
    return StateParams(*(f[k] if np.ndim(f) else f for f in _fields(params)))


def _pure_mode(params, cutoff):
    """A pure mode's amplitudes as ``fock_states`` builds them, whatever their deficit."""
    (state,) = fock_states(params, StateParams(), cutoff)
    return state.data[0]


def _random_tensor(cutoff, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))


class TestLadder:
    """Words applied to a two-mode tensor on their truncated bands."""

    def test_number_operator(self):
        psi = _random_tensor(3, 0)
        np.testing.assert_allclose(_apply(NUMBER_A, psi), np.arange(3.0)[:, None] * psi)

    def test_commutator_has_corner_defect(self):
        # [a, a^dag] = 1 except on the last number state the cutoff keeps.
        cutoff = 9
        psi = _random_tensor(cutoff, 1)
        expected = psi.copy()
        expected[-1] *= -(cutoff - 1)
        commutator = OperatorExpr({("a", "ad"): 1.0, ("ad", "a"): -1.0})
        np.testing.assert_allclose(_apply(commutator, psi), expected, rtol=0.0, atol=1e-13)


def _vacuum_tensor(cutoff):
    psi = np.zeros((cutoff, cutoff), dtype=complex)
    psi[0, 0] = 1.0
    return psi


def _displacement(alpha):
    """``alpha a^dag - conj(alpha) a``, which ``evolve`` at angle 1 makes ``D(alpha)``."""
    return OperatorExpr({("ad",): alpha, ("a",): -np.conj(alpha)})


class TestEvolve:
    """Unitary evolution on bands, independent of the Gaussian recurrence."""

    def test_displaced_vacuum_is_coherent(self):
        alpha = 1.2 - 0.7j
        psi = evolve(_vacuum_tensor(64), _displacement(alpha), 1.0)
        assert np.abs(psi[:, 0] - coherent_amplitudes(alpha, 64)).max() <= 1e-15
        assert not psi[:, 1:].any()

    @pytest.mark.parametrize("xi, beta", [(0.5 * np.exp(0.8j), 0.9 - 0.6j),
                                          (0.3 * np.exp(-2.1j), -0.4 + 0.3j)])
    def test_squeezed_then_displaced_matches_recurrence(self, xi, beta):
        # S(xi) = exp((conj(xi) a^2 - xi a^dag^2) / 2), then D(beta).
        squeeze = OperatorExpr({("a", "a"): np.conj(xi) / 2, ("ad", "ad"): -xi / 2})
        psi = evolve(evolve(_vacuum_tensor(96), squeeze, 1.0), _displacement(beta), 1.0)
        want = fock_state(StateParams(zeta=abs(xi), phi=np.angle(xi) / 2, alpha=beta),
                          StateParams(), 96).data[0]
        got = psi[:40, 0]
        phase = np.vdot(want[:40], got)
        assert np.abs(got * (abs(phase) / phase) - want[:40]).max() <= 2e-15


class TestStateConstruction:
    def test_coherent_is_number_eigenstate_on_average(self):
        state = FockState.product(
            coherent_amplitudes(1.0, 40), coherent_amplitudes(0.0, 40))
        assert expect(NUMBER_A, state).real == pytest.approx(1.0, abs=1e-12)

    def test_double_vacuum(self):
        state = fock_state(StateParams(), StateParams(), 4)
        assert state.kind == "product"
        for vec in state.data:
            assert vec.shape == (4,) and vec[0] == 1.0
            assert np.count_nonzero(vec) == 1
        assert state.deficit == 0.0

    def test_squeezed_lo_intensity(self):
        state = fock_state(StateParams(), StateParams(zeta=ZETA_3DB), 40)
        nb = expect(NUMBER_B, state).real
        assert nb == pytest.approx(np.sinh(ZETA_3DB) ** 2, abs=1e-8)
        assert nb == pytest.approx(0.124112, abs=1e-6)

    def test_coherent_si_intensity(self):
        state = fock_state(StateParams(alpha=1.0), StateParams(), 40)
        assert expect(NUMBER_A, state).real == pytest.approx(1.0, abs=1e-10)

    def test_squeezed_amplitudes_even_support(self):
        v = squeezed_amplitudes(0.4, 12)
        assert np.all(v[1::2] == 0)
        assert v[0] == pytest.approx(1 / np.sqrt(np.cosh(0.4)))
        assert v[2] == pytest.approx(-np.tanh(0.4) * np.sqrt(2) / 2
                                     / np.sqrt(np.cosh(0.4)))

    def test_truncation_budget_enforced(self):
        with pytest.raises(TruncationError):
            fock_state(StateParams(alpha=2.0), StateParams(), 8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [
        StateParams(zeta=400.0), StateParams(zeta=-400.0), StateParams(nbar=1e300),
        StateParams(alpha=1e200), StateParams(nbar=0.5, alpha=1e200j),
    ], ids=["zeta", "negative-zeta", "nbar", "alpha", "thermal-alpha"])
    def test_out_of_envelope_field_is_a_truncation_error(self, params):
        # The recurrence's coefficients overflow: an overflow warning, or
        # Python's OverflowError for |alpha|^2, once escaped here.
        with pytest.raises(TruncationError, match="truncation deficit 1.000e\\+00"):
            fock_state(params, StateParams(), 16)

    def test_nan_mass_is_a_nan_deficit(self):
        # Not 0.0, as max(0.0, nan) would read it: nothing was shown to be kept.
        assert np.isnan(FockState.pure(np.full((4, 4), np.nan)).deficit)
        assert np.isnan(FockState.product(np.full(4, np.nan), np.ones(4) / 2).deficit)
        assert np.isnan(FockState.product(np.ones(4) / 2, np.full((4, 4), np.nan)).deficit)

    def test_thermal_weights(self):
        nbar = 0.6
        state = fock_state(StateParams(nbar=nbar), StateParams(), 30)
        assert state.kind == "product"
        rho_a, vec_b = state.data
        exact = np.array([nbar**n / (1 + nbar) ** (n + 1) for n in range(30)])
        np.testing.assert_allclose(np.diag(rho_a).real, exact, atol=1e-8)
        off_diagonal = rho_a - np.diag(np.diag(rho_a))
        assert np.abs(off_diagonal).max() < 1e-8
        assert vec_b[0] == pytest.approx(1.0)
        assert np.trace(rho_a).real <= 1.0 + 1e-12
        assert np.vdot(vec_b, vec_b).real <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(rho_a).min() >= -1e-10

    def test_displaced_squeezed_matches_gaussian_moments(self):
        params = StateParams(zeta=0.45, phi=0.8, alpha=0.9 - 0.6j)
        state = fock_state(params, StateParams(), 64)
        assert state.deficit < 1e-10
        vec = state.data[0]
        a = ladder(64)
        moments = make_state(params)
        assert np.vdot(vec, a @ vec) == pytest.approx(moments.alpha, abs=1e-9)
        assert np.vdot(vec, a @ a @ vec) == pytest.approx(moments.a_sq, abs=1e-9)
        assert np.vdot(vec, a.conj().T @ a @ vec).real == pytest.approx(
            moments.n_a, abs=1e-9)

    def test_mixed_state_matches_gaussian_moments(self):
        params = StateParams(zeta=0.3, nbar=0.8, phi=1.2, alpha=0.5 + 0.2j)
        state = fock_state(params, StateParams(), 48)
        moments = make_state(params)
        mean = expect(OperatorExpr.word(("a",)), state)
        n = expect(NUMBER_A, state).real
        a_sq = expect(OperatorExpr.word(("a", "a")), state)
        assert mean == pytest.approx(moments.alpha, abs=1e-8)
        assert n == pytest.approx(moments.n_a, abs=1e-8)
        assert a_sq == pytest.approx(moments.a_sq, abs=1e-8)
        rho, vec = state.data
        assert np.trace(rho).real <= 1.0 + 1e-12
        assert np.vdot(vec, vec).real <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_pure_norm_invariant(self):
        state = fock_state(StateParams(alpha=1.2), StateParams(zeta=0.3), 48)
        norm = np.prod([np.vdot(vec, vec).real for vec in state.data])
        assert 1.0 - state.deficit - 1e-12 <= norm <= 1.0 + 1e-12
        for vec in state.data:
            assert np.vdot(vec, vec).real <= 1.0 + 1e-12


class TestExpect:
    def test_vacuum_number(self):
        state = fock_state(StateParams(), StateParams(), 8)
        assert expect(NUMBER_A, state) == 0

    def test_interference_mean_on_coherent_pair(self):
        state = fock_state(StateParams(alpha=1.0), StateParams(alpha=1.0), 40)
        value = expect(difference_observable(0.0), state)
        # Hand oracle: <L> = 2 Re(conj(alpha) beta) for coherent states.
        assert value.real == pytest.approx(2.0, abs=1e-9)
        assert value.imag == pytest.approx(0.0, abs=1e-10)

    def test_perfect_cancellation_for_twin_squeezing(self):
        state = fock_state(
            StateParams(zeta=ZETA_3DB), StateParams(zeta=ZETA_3DB), 60)
        ell = difference_observable(np.pi / 2.0)
        variance = (expect(ell * ell, state) - expect(ell, state) ** 2).real
        assert abs(variance) < 1e-8

    def test_degree_cap(self):
        state = fock_state(StateParams(), StateParams(), 8)
        with pytest.raises(ExpressionError):
            expect(OperatorExpr.word(("a",) * 8) * OperatorExpr.word(("a",)), state)

    def test_self_adjoint_expectations_are_real(self):
        rng = np.random.default_rng(7)
        state = fock_state(StateParams(alpha=0.8, zeta=0.2),
                           StateParams(alpha=0.5j, zeta=-0.3), 48)
        for _ in range(20):
            f = random_expression(rng, max_degree=2)
            value = expect(reorder(f.dagger() * f), state)
            assert abs(value.imag) <= 1e-10 * max(1.0, abs(value.real))


class TestExprMatrix:
    def test_number_operator_matrix(self):
        mat = expr_matrix(NUMBER_A, 3)
        expected = np.kron(np.diag([0.0, 1.0, 2.0]), np.eye(3))
        np.testing.assert_allclose(mat, expected, atol=1e-14)

    def test_expect_agrees_with_dense_matrix_on_entangled_states(self):
        # The per-mode contraction in expect() must match a literal dense
        # two-mode matrix sandwich, including for entangled tensors.
        rng = np.random.default_rng(5)
        cutoff = 7
        for _ in range(20):
            psi = rng.normal(size=(cutoff, cutoff)) \
                + 1j * rng.normal(size=(cutoff, cutoff))
            psi /= np.linalg.norm(psi)
            state = FockState.pure(psi)
            expr = reorder(random_expression(rng, max_degree=3))
            dense = expr_matrix(expr, cutoff)
            direct = np.vdot(psi.ravel(), dense @ psi.ravel())
            assert expect(expr, state) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(cutoff=st.sampled_from([2, 3, 7]),
           kind=st.sampled_from(["pure", "mixed", "amplitudes"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_expect_agrees_with_dense_matrix_at_any_cutoff(self, cutoff, kind, seed):
        # Degree-4 words at cutoffs 2 and 3 reach or pass the cutoff, where
        # the band keeps no states; the dense sandwich must still agree.
        rng = np.random.default_rng(seed)

        def gaussian_matrix():
            return rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))

        expr = reorder(random_expression(rng, max_degree=4)
                       + OperatorExpr.word(tuple(LETTERS[int(k)] for k in rng.integers(0, 4, 4))))
        dense = expr_matrix(expr, cutoff)
        if kind == "pure":
            psi = gaussian_matrix()
            psi /= np.linalg.norm(psi)
            state = FockState.pure(psi)
            direct = np.vdot(psi.ravel(), dense @ psi.ravel())
        else:
            densities = [g @ g.conj().T for g in (gaussian_matrix(), gaussian_matrix())]
            densities = [rho / np.trace(rho) for rho in densities]
            factors = list(densities)
            if kind == "amplitudes":
                # One mode, SI or LO, as amplitudes next to a density matrix.
                mode = int(rng.integers(2))
                vec = gaussian_matrix()[0]
                factors[mode] = vec / np.linalg.norm(vec)
                densities[mode] = np.outer(factors[mode], factors[mode].conj())
                assert expect(expr, FockState.product(*factors)) == pytest.approx(
                    expect(expr, FockState.product(*densities)), abs=1e-12)
            state = FockState.product(*factors)
            direct = np.trace(dense @ np.kron(*densities))
        assert expect(expr, state) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("word", [("a", "a", "a"), ("ad", "ad"), ("b", "b", "ad", "ad")])
    def test_word_past_the_cutoff_contributes_exactly_zero(self, word):
        # At cutoff 2 these words shift a mode by 2 or 3 number states.
        psi = np.full((2, 2), 0.5, dtype=complex)
        rho = np.full((2, 2), 0.5, dtype=complex)
        vec = np.full(2, np.sqrt(0.5), dtype=complex)
        expr = OperatorExpr.word(word)
        for state in (FockState.pure(psi), FockState.product(rho, rho),
                      FockState.product(vec, rho), FockState.product(rho, vec)):
            assert expect(expr, state) == 0
        assert not expr_matrix(expr, 2).any()

    def test_number_correlated_state_moments(self):
        # psi = (|0,0> + |1,1>)/sqrt(2): hand-computable moments.
        cutoff = 4
        psi = np.zeros((cutoff, cutoff), dtype=complex)
        psi[0, 0] = psi[1, 1] = 1.0 / np.sqrt(2.0)
        state = FockState.pure(psi)
        # The deficit is computed from the amplitudes, not passed in.
        assert state.deficit == pytest.approx(0.0, abs=1e-15)
        assert FockState.pure(psi * np.sqrt(0.5)).deficit == pytest.approx(0.5, abs=1e-15)
        assert expect(NUMBER_A, state).real == pytest.approx(0.5, abs=1e-14)
        ell = difference_observable(0.0)
        assert expect(ell, state) == pytest.approx(0.0, abs=1e-14)
        # L^2 on |0,0>: a ad bd b and cross terms annihilate it; on |1,1>
        # the surviving contributions give <1,1|L^2|1,1> = n_a(n_b + 1)
        # + (n_a + 1) n_b = 4, so the average is 2.
        assert expect(ell * ell, state).real == pytest.approx(2.0, abs=1e-13)

    @pytest.mark.parametrize("cutoff", [*range(2, 21), 128])
    def test_band_is_the_diagonal_of_the_mode_matrix(self, cutoff):
        # The ladder roots multiplied from the last letter to the first, as
        # the matrix product multiplies them, so the values agree bit for bit.
        for length in range(5):
            for daggers in itertools.product((False, True), repeat=length):
                k, band = _mode_band(daggers, cutoff)
                dense = np.diagonal(mode_matrix(daggers, cutoff), -k)
                assert k == 2 * sum(daggers) - length
                assert band.shape == dense.shape and not dense.imag.any()
                assert np.array_equal(band.view(np.uint64),
                                      dense.real.copy().view(np.uint64)), daggers

    def test_reorder_preserves_interior_block(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            expr = random_expression(rng, max_degree=4)
            assert reorder_deviation(expr, cutoff=10, max_degree=4) < 1e-10


class TestWitnessGeneral:
    def test_coherent_signal_fluctuation_vanishes(self):
        alpha = 0.7 + 0.3j
        state = fock_state(StateParams(alpha=alpha), StateParams(zeta=0.2), 40)
        f = OperatorExpr.word(("a",)) - alpha
        assert witness_general(f, state) == pytest.approx(0.0, abs=1e-10)

    def test_false_positive_scenario_stays_positive(self):
        state = fock_state(StateParams(alpha=1.0), StateParams(zeta=ZETA_3DB), 60)
        ell = difference_observable(0.0)
        f = ell - expect(ell, state).real
        value = witness_general(f, state)
        assert value == pytest.approx(np.exp(-2.0 * ZETA_3DB), abs=1e-8)
        assert value >= 0.0

    def test_squeezed_signal_detected_with_coherent_lo(self):
        state = fock_state(
            StateParams(zeta=ZETA_3DB), StateParams(alpha=np.sqrt(10.0)), 80)
        ell = difference_observable(0.0)
        f = ell - expect(ell, state).real
        value = witness_general(f, state)
        expected = np.sinh(ZETA_3DB) ** 2 + 10.0 * np.exp(-2.0 * ZETA_3DB) - 10.0
        assert value == pytest.approx(expected, abs=1e-7)
        assert value == pytest.approx(-4.864015, abs=1e-5)
        assert value < 0.0

    def test_degree_cap(self):
        state = fock_state(StateParams(), StateParams(), 8)
        with pytest.raises(ExpressionError):
            witness_general(OperatorExpr.word(("a",) * 5), state)

    @pytest.mark.parametrize("r, excess", [(0.2, 0.128), (0.5, 1.110), (0.8, 4.855)])
    def test_entangled_input_with_classical_marginal(self, r, excess):
        # The two-mode squeezed vacuum has a thermal, hence classical, A
        # marginal, yet the joint state is no mixture of |alpha> x rho_B.
        n = np.arange(60)
        state = FockState.pure(np.diag(np.tanh(r) ** n / np.cosh(r)))
        f = OperatorExpr.word(("ad",)) - 1.0 / np.tanh(r) * OperatorExpr.word(("b",))
        assert witness_general(f, state) == pytest.approx(-1.0, abs=1e-9)
        # The homodyne witness Var(L) - <b^dag b> = 4 nbar^2 + 3 nbar stays positive.
        nbar = np.sinh(r) ** 2
        for theta in (0.0, 1.0):
            ell = difference_observable(theta)
            var = (expect(ell * ell, state) - expect(ell, state) ** 2).real
            partial = var - expect(NUMBER_B, state).real
            assert partial == pytest.approx(4.0 * nbar**2 + 3.0 * nbar, abs=1e-9)
            assert partial == pytest.approx(excess, abs=1e-3)


class TestNonGaussianLO:
    """The closed forms read a mode only through its moments, so they hold
    for a non-Gaussian LO given as a ``ModeMoments``."""

    @pytest.mark.parametrize("beta, minimum", [(0.0, 0.3723), (2.0, -1.6229)],
                             ids=["fock-1", "displaced-fock-1"])
    def test_closed_form_matches_oracle(self, beta, minimum):
        # LO D(beta)|1> = (a^dag - beta*)|beta>: <b> = beta, delta_n = 1 and
        # delta_sq = 0.  At beta = 0 it is |1>, where the minimum is 3 sinh^2 zeta.
        cutoff = 48
        coh = coherent_amplitudes(beta, cutoff)
        vec_lo = ladder(cutoff).conj().T @ coh - np.conj(beta) * coh
        vec_si = fock_state(StateParams(zeta=ZETA_3DB), StateParams(), cutoff).data[0]
        state = FockState.product(vec_si, vec_lo)
        thetas = np.linspace(0.0, np.pi, 25)
        oracle = []
        for theta in thetas:
            ell = difference_observable(theta)
            var = (expect(ell * ell, state) - expect(ell, state) ** 2).real
            oracle.append(var - expect(NUMBER_B, state).real)

        pair = TwoModeProduct(si=make_state(StateParams(zeta=ZETA_3DB)),
                              lo=ModeMoments(alpha=beta, delta_n=1.0))
        closed = evaluate(pair, thetas).partial_no
        np.testing.assert_allclose(closed, oracle, rtol=0.0, atol=1e-12)
        assert closed.min() == pytest.approx(minimum, abs=1e-4)


def _walk(params_si, params_lo, expr, tol, top=MAX_CUTOFF):
    """``converged_cutoff`` on the pair built at ``top``, whatever its deficit."""
    (state,) = fock_states(params_si, params_lo, top)
    return converged_cutoff(state, expr, tol)


class TestConvergedCutoff:
    def test_vacuum_converges_immediately(self):
        ell = difference_observable(0.0)
        cutoff, state, value = _walk(StateParams(), StateParams(), ell * ell, 1e-9)
        assert cutoff == 2
        assert state.cutoff == 4
        assert value == expect(ell * ell, state)

    def test_typical_scenario_converges_modestly(self):
        ell = difference_observable(0.0)
        params_si, params_lo = StateParams(alpha=1.0), StateParams(zeta=ZETA_3DB)
        (top,) = fock_states(params_si, params_lo, MAX_CUTOFF)
        cutoff, state, value = converged_cutoff(top, ell * ell, 1e-9)
        assert cutoff <= 64
        # The value it settled on is the one expect reads on the returned block.
        assert value == expect(ell * ell, state)
        # The returned state is a leading block of the one it was handed,
        # equal to the one fock_state builds at the next doubling.
        assert all(np.shares_memory(part, whole) for part, whole in zip(state.data, top.data))
        fresh = fock_state(params_si, params_lo, 2 * cutoff)
        assert state.kind == fresh.kind and state.deficit == fresh.deficit
        np.testing.assert_array_equal(state.data, fresh.data)

    def test_heavy_tail_with_small_budget_fails(self):
        ell = difference_observable(0.0)
        with pytest.raises(ConvergenceError):
            _walk(StateParams(alpha=5.0), StateParams(), ell * ell, 1e-9, top=16)

    def test_failure_names_largest_cutoff_built(self):
        # A state built at 20 stops the doubling schedule at 16.
        ell = difference_observable(0.0)
        with pytest.raises(ConvergenceError, match=r"within cutoff 16$"):
            _walk(StateParams(alpha=5.0), StateParams(), ell * ell, 1e-9, top=20)

    @pytest.mark.parametrize("max_cutoff", [2, 3])
    def test_rejects_ceiling_below_4(self, max_cutoff):
        # The schedule would hold cutoff 2 alone, with nothing to agree with.
        with pytest.raises(ValueError,
                           match=f"the state's cutoff must be >= 4, got {max_cutoff}"):
            _walk(StateParams(), StateParams(), difference_observable(0.0), 1e-9,
                  top=max_cutoff)

    def test_nan_blocks_are_never_certified(self):
        # The zero operator settles on every block, but no block of a NaN
        # tensor is within the budget.
        with pytest.raises(ConvergenceError):
            converged_cutoff(FockState.pure(np.full((8, 8), np.nan)), OperatorExpr(), 1e-9)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            _walk(StateParams(), StateParams(), difference_observable(0.0), 0.0, top=8)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_non_finite_tol(self, tol):
        # A NaN tol never agrees and an infinite one agrees at once.
        with pytest.raises(ValueError, match=f"tol must be finite and > 0, got {tol}"):
            _walk(StateParams(), StateParams(), difference_observable(0.0), tol, top=8)

    def test_walks_a_pure_tensor(self):
        # The two-mode squeezed vacuum, r = 0.5: psi[n, n] = (-tanh r)^n / cosh r,
        # whose leading c x c block keeps all but tanh(r)^(2c) of the norm.
        r, top = 0.5, 64
        psi = np.diag((-np.tanh(r)) ** np.arange(top) / np.cosh(r)).astype(complex)
        state = FockState.pure(psi)
        for c in (2, 4, 8, 16, 32, 64):
            block = state.leading(c)
            assert (block.kind, block.cutoff) == ("pure", c)
            assert np.shares_memory(block.data, psi)
            np.testing.assert_array_equal(block.data, psi[:c, :c])
            assert block.deficit == FockState.pure(psi[:c, :c].copy()).deficit
            assert block.deficit == pytest.approx(np.tanh(r) ** (2 * c), abs=1e-14)
        # Blocks 2, 4 and 8 exceed the budget; 16 and 32 agree on <a^dag a>.
        cutoff, block, value = converged_cutoff(state, NUMBER_A, 1e-9)
        assert (cutoff, block.kind, block.cutoff) == (16, "pure", 32)
        assert value == expect(NUMBER_A, block)
        assert np.shares_memory(block.data, psi)
        for number in (NUMBER_A, NUMBER_B):
            assert expect(number, block).real == pytest.approx(np.sinh(r) ** 2, abs=1e-12)


def _bath_fold_moments(params, kind, strength, cutoff):
    """The signal's ``(<a>, <a^2>, <a^dag a>)`` after the channel-law
    suite's :func:`~squeezewitness.validate._bath_fold`, by ``expect``."""
    state = _bath_fold(params, kind, strength, cutoff)
    return tuple(expect(OperatorExpr.word(word), state)
                 for word in (("a",), ("a", "a"), ("ad", "a")))


class TestChannelFolds:
    """Independent bath-coupling oracles for the Gaussian channels."""

    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.9])
    def test_beam_splitter_fold_reproduces_loss(self, eta):
        params = StateParams(zeta=0.3, phi=0.4, alpha=0.6 + 0.5j)
        mean, a_sq, n = _bath_fold_moments(params, "loss", eta, cutoff=36)

        moments = apply_loss(make_state(params), eta)
        assert mean == pytest.approx(moments.alpha, abs=1e-8)
        assert a_sq == pytest.approx(moments.a_sq, abs=1e-8)
        assert n == pytest.approx(moments.n_a, abs=1e-8)

    def test_two_mode_squeezer_fold_reproduces_gain(self):
        g = 1.5
        params = StateParams(zeta=0.25, alpha=0.4 - 0.3j)
        mean, _, n = _bath_fold_moments(params, "gain", g, cutoff=40)

        moments = apply_gain_noise(make_state(params), g)
        assert mean == pytest.approx(moments.alpha, abs=1e-8)
        assert n == pytest.approx(moments.n_a, abs=1e-8)

    @staticmethod
    def _dense_fold_moments(params, kind, strength, cutoff):
        """The fold by a dense exponential: eigh of the Hermitian ``1j G``."""
        a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
        signal, ancilla = np.kron(a, np.eye(cutoff)), np.kron(np.eye(cutoff), a)
        if kind == "loss":
            gen = np.arccos(np.sqrt(strength)) * (signal.T @ ancilla - signal @ ancilla.T)
        else:
            gen = np.arccosh(np.sqrt(strength)) * (signal.T @ ancilla.T - signal @ ancilla)
        w, v = np.linalg.eigh(1j * gen)
        vec = _pure_mode(params, cutoff)
        start = np.kron(vec, np.eye(cutoff)[0])
        evolved = v @ (np.exp(-1j * w) * (v.conj().T @ start))
        lowered = signal @ evolved
        return (np.vdot(evolved, lowered), np.vdot(evolved, signal @ lowered),
                np.vdot(lowered, lowered).real)

    @pytest.mark.parametrize("kind, strength", [("loss", 0.3), ("loss", 0.75),
                                                ("gain", 1.4), ("gain", 2.5)])
    def test_matches_dense_exponential(self, kind, strength):
        params = StateParams(zeta=0.35, phi=0.6, alpha=0.7 + 0.4j)
        got = _bath_fold_moments(params, kind, strength, cutoff=8)
        want = self._dense_fold_moments(params, kind, strength, cutoff=8)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12

    @pytest.mark.parametrize("kind", ["loss", "gain"])
    def test_unit_strength_returns_input_moments(self, kind):
        params = StateParams(zeta=0.3, phi=0.4, alpha=0.6 + 0.5j)
        vec = _pure_mode(params, 16)
        a = ladder(16)
        want = (np.vdot(vec, a @ vec), np.vdot(vec, a @ a @ vec),
                np.vdot(a @ vec, a @ vec).real)
        for g, w in zip(_bath_fold_moments(params, kind, 1.0, cutoff=16), want):
            assert abs(g - w) < 1e-14

    @pytest.mark.parametrize("kind, strength", [("loss", 0.05), ("gain", 3.0)])
    def test_preserves_norm(self, kind, strength):
        psi = _random_tensor(24, 3)
        psi /= np.linalg.norm(psi)
        angle, generator = _BATH_UNITARIES[kind]
        psi = evolve(psi, generator, angle(np.sqrt(strength)))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-13

    @pytest.mark.parametrize("kind, strength, cutoff", [
        ("loss", 0.6, 36), ("gain", 1.4, 36), ("loss", 0.3, 8), ("gain", 2.5, 8),
    ])
    def test_matches_dense_ladder_fold_bit_for_bit(self, kind, strength, cutoff):
        params = StateParams(zeta=0.35, phi=0.6, alpha=0.7 + 0.4j)
        got = _bath_fold(params, kind, strength, cutoff).data
        assert np.array_equal(got.view(float),
                              ladder_fold(params, kind, strength, cutoff).view(float))


# Corners of the ``random_state_params`` envelope: |alpha| <= 2,
# |zeta| <= 0.5, nbar in [0, 1], phi in [0, pi].
ENVELOPE_CORNERS = [
    StateParams(zeta=zeta, nbar=nbar, phi=phi, alpha=alpha)
    for zeta in (-0.5, 0.5)
    for nbar in (0.0, 1.0)
    for phi in (0.0, np.pi)
    for alpha in (2.0, -2.0j)
]


# The coherent SI of suite_classicality, over its |alpha| <= 2 envelope.
CLASSICALITY_ALPHAS = [0.0, *(radius * np.exp(1j * phase)
                              for radius in (0.3, 1.0, 1.7, 2.0)
                              for phase in (0.0, 1.1, np.pi, 4.6))]


class TestRecurrence:
    """The exact Gaussian Fock recurrence that builds every oracle state."""

    @pytest.mark.parametrize("nbar", [0.0, 0.7])
    def test_prefix_property(self, nbar):
        params_si = StateParams(zeta=0.4, nbar=nbar, phi=1.1, alpha=1.2 - 0.8j)
        params_lo = StateParams(zeta=-0.3, phi=2.0, alpha=0.5j)
        for cutoff in (2, 8, 32, 128):
            # Built whatever their deficit, so the smallest cutoffs are built too.
            (small,) = fock_states(params_si, params_lo, cutoff)
            (large,) = fock_states(params_si, params_lo, 2 * cutoff)
            block = large.leading(cutoff)
            assert (block.kind, block.cutoff) == (small.kind, small.cutoff)
            assert block.deficit == small.deficit
            for part, lead in zip(small.data, block.data):
                assert part.ndim == lead.ndim
                np.testing.assert_array_equal(part, lead)

    @pytest.mark.parametrize("params", [
        StateParams(zeta=0.45, phi=0.8, alpha=0.9 - 0.6j),
        StateParams(zeta=-0.5, phi=3.0, alpha=-2.0j),
        StateParams(alpha=1.5 + 0.5j),
    ])
    def test_pure_density_is_outer_product(self, params):
        psi = fock_state(params, StateParams(), 128).data[0]
        (rho,) = _density_matrices([_fields(params)], 128)
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), rtol=0, atol=1e-15)

    def test_matches_closed_form_references(self):
        coherent = fock_state(StateParams(alpha=1.3 - 0.4j), StateParams(), 64).data[0]
        np.testing.assert_allclose(coherent, coherent_amplitudes(1.3 - 0.4j, 64),
                                   rtol=0, atol=1e-15)
        squeezed = fock_state(StateParams(zeta=0.4), StateParams(), 64).data[0]
        np.testing.assert_allclose(squeezed, squeezed_amplitudes(0.4, 64),
                                   rtol=0, atol=1e-15)

    @pytest.fixture(scope="class")
    def classicality_signals(self):
        """Each of ``CLASSICALITY_ALPHAS``' coherent SIs, by one ``fock_states``
        call over them all, as suite_classicality builds its SIs."""
        states = fock_states(StateParams(alpha=np.array(CLASSICALITY_ALPHAS)), StateParams(),
                             CLASSICALITY_CUTOFF)
        return {alpha: state.data[0] for alpha, state in zip(CLASSICALITY_ALPHAS, states)}

    @pytest.mark.parametrize("alpha", CLASSICALITY_ALPHAS)
    def test_classicality_signal_matches_closed_form(self, alpha, classicality_signals):
        np.testing.assert_allclose(classicality_signals[alpha],
                                   coherent_amplitudes(alpha, CLASSICALITY_CUTOFF),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("params", ENVELOPE_CORNERS)
    def test_density_is_physical_at_envelope_corners(self, params):
        (rho,) = _density_matrices([_fields(params)], 256)
        np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10  # FockState psd_tol
        assert np.trace(rho).real <= 1.0 + 1e-12

    @pytest.mark.parametrize("cutoff", [2, 3, 17, 64, 128, 256])
    def test_block_matches_the_one_mode_recurrence(self, cutoff):
        # Blocks of 1, 3 and 8 thermal modes among as many pure ones; each
        # factor is bit for bit the one the recurrence of that mode alone
        # gives.
        rng = np.random.default_rng(cutoff)
        for thermal in (1, 3, 8):
            drawn = [random_state_params(rng) for _ in range(2 * thermal)]
            modes = [StateParams(zeta=m.zeta, nbar=max(m.nbar, 0.05) if k < thermal else 0.0,
                                 phi=m.phi, alpha=m.alpha) for k, m in enumerate(drawn)]
            modes = [modes[k] for k in rng.permutation(len(modes))]
            factors = _mode_factors([_fields(m) for m in modes], cutoff)
            for params, factor in zip(modes, factors, strict=True):
                if params.nbar > 0:
                    want = density_matrix(params, cutoff)
                else:
                    want = _amplitudes(_fields(params), cutoff)
                assert factor.shape == want.shape
                assert np.array_equal(factor.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("cutoff, block", [(128, 8), (256, 2), (512, 1)])
    def test_block_holds_the_byte_budget_of_pairs(self, cutoff, block):
        # BLOCK_BYTES of density factors, two per pair, and at least one pair.
        thermal = StateParams(nbar=np.full(block + 1, 0.3), alpha=0.2)
        states = fock_states(thermal, thermal, cutoff)
        bases = [state.data[0].base for state in states]
        assert [b is bases[0] for b in bases] == [True] * block + [False]

    def test_block_is_freed_before_the_next_is_built(self):
        thermal = StateParams(nbar=np.full(3, 0.3), alpha=0.2)
        states = fock_states(thermal, thermal, 256)  # blocks of 2 pairs
        first = weakref.ref(next(states).data[0].base)
        next(states)
        assert first() is not None
        next(states)
        assert first() is None

    @pytest.mark.parametrize("cutoff", [1, MAX_CUTOFF + 1])
    def test_rejects_cutoff_outside_range(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            next(fock_states(StateParams(), StateParams(), cutoff))

    @pytest.mark.parametrize("cutoff", [8.0, "8"])
    def test_rejects_cutoff_that_is_not_an_integer(self, cutoff):
        # Before the recurrence, which would fail on it with a TypeError.
        with pytest.raises(ValueError, match=f"^cutoff must be an integer, got {cutoff!r}$"):
            fock_state(StateParams(), StateParams(), cutoff)

    def test_numpy_integer_cutoff_builds_the_plain_int_state(self):
        params = StateParams(zeta=0.3, nbar=0.2, alpha=0.5j)
        (got,) = fock_states(params, StateParams(alpha=0.4), np.int64(8))
        (want,) = fock_states(params, StateParams(alpha=0.4), 8)
        assert type(got.cutoff) is int and got.cutoff == 8
        assert got.deficit == want.deficit
        for g, w in zip(got.data, want.data, strict=True):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    @pytest.mark.parametrize("cutoff, pairs, scalar_lo", [
        (128, 9, False), (256, 3, False), (128, 9, True),
    ])
    def test_arrays_match_one_pair_calls_bit_for_bit(self, cutoff, pairs, scalar_lo):
        # Past the first block (8 pairs at 128, 2 at 256), pure and thermal
        # modes on both sides; a scalar LO broadcasts against every SI.
        rng = np.random.default_rng(cutoff + pairs)
        k = np.arange(pairs)
        si = _stacked([random_state_params(rng) for _ in k], k % 2 == 1)
        lo = (StateParams(zeta=-0.3, nbar=0.4, phi=2.0, alpha=0.5j) if scalar_lo
              else _stacked([random_state_params(rng) for _ in k], k % 3 == 0))
        states = list(fock_states(si, lo, cutoff))
        assert len(states) == pairs
        for j, state in enumerate(states):
            (one,) = fock_states(_element(si, j), _element(lo, j), cutoff)
            assert (state.kind, state.cutoff, state.deficit) == (one.kind, one.cutoff,
                                                                 one.deficit)
            for got, want in zip(state.data, one.data, strict=True):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rejects_fields_that_do_not_broadcast(self):
        with pytest.raises(ValueError):
            next(fock_states(StateParams(zeta=np.zeros(3)), StateParams(zeta=np.zeros(2)), 8))

    @pytest.mark.parametrize("pairs", [0, 2, 3])
    def test_one_pair_call_rejects_other_counts(self, pairs):
        # Instead of returning the first of several states, or none.
        with pytest.raises(ValueError, match="values to unpack"):
            fock_state(StateParams(zeta=np.zeros(pairs)), StateParams(), 512)

    @settings(max_examples=40, deadline=None)
    @given(radius=st.floats(0.0, 2.0), angle=st.floats(0.0, 2.0 * np.pi),
           zeta=st.floats(-0.5, 0.5), nbar=st.floats(0.0, 1.0),
           phi=st.floats(0.0, np.pi))
    def test_moments_match_closed_form(self, radius, angle, zeta, nbar, phi):
        params = StateParams(zeta=zeta, nbar=nbar, phi=phi,
                             alpha=radius * np.exp(1j * angle))
        state = fock_state(params, StateParams(), 128)
        moments = make_state(params)
        assert expect(OperatorExpr.word(("a",)), state) == pytest.approx(
            moments.alpha, abs=1e-9)
        assert expect(OperatorExpr.word(("a", "a")), state) == pytest.approx(
            moments.a_sq, abs=1e-9)
        assert expect(NUMBER_A, state).real == pytest.approx(moments.n_a, abs=1e-9)
