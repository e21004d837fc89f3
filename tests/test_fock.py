import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezewitness.channels import apply_gain_noise, apply_loss
from squeezewitness.fock import (
    ConvergenceError,
    FockState,
    TruncationError,
    build_ladder,
    coherent_amplitudes,
    converged_cutoff,
    expect,
    expr_matrix,
    fock_state,
    pure_mode_amplitudes,
    squeezed_amplitudes,
    witness_general,
    _density_matrix,
)
from squeezewitness.gaussian import (
    StateParams,
    db_to_squeeze,
    field_moments,
    make_state,
)
from squeezewitness.opexpr import (
    ExpressionError,
    OperatorExpr,
    difference_observable,
    parse,
    reorder,
)
from squeezewitness.validate import _bath_evolve, bath_fold_moments, random_expression

ZETA_3DB = db_to_squeeze(3.0)
NUMBER_A = OperatorExpr.word(("ad", "a"))
NUMBER_B = OperatorExpr.word(("bd", "b"))


class TestLadder:
    def test_cutoff_two(self):
        np.testing.assert_array_equal(
            build_ladder(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_number_operator(self):
        a = build_ladder(3)
        np.testing.assert_allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0]))

    def test_commutator_has_corner_defect(self):
        cutoff = 9
        a = build_ladder(cutoff)
        commutator = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(cutoff)
        expected[-1, -1] = -(cutoff - 1)
        np.testing.assert_allclose(commutator, expected, atol=1e-14)

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            build_ladder(1)

    def test_coherent_is_number_eigenstate_on_average(self):
        state = FockState.pure_product(
            coherent_amplitudes(1.0, 40), coherent_amplitudes(0.0, 40))
        assert expect(NUMBER_A, state).real == pytest.approx(1.0, abs=1e-12)


class TestStateConstruction:
    def test_double_vacuum(self):
        state = fock_state(StateParams(), StateParams(), 4)
        assert state.kind == "pure"
        assert state.data[0, 0] == 1.0
        assert np.count_nonzero(state.data) == 1
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

    def test_thermal_weights(self):
        nbar = 0.6
        state = fock_state(StateParams(nbar=nbar), StateParams(), 30)
        assert state.kind == "mixed"
        rho_a, rho_b = state.data
        exact = np.array([nbar**n / (1 + nbar) ** (n + 1) for n in range(30)])
        np.testing.assert_allclose(np.diag(rho_a).real, exact, atol=1e-8)
        off_diagonal = rho_a - np.diag(np.diag(rho_a))
        assert np.abs(off_diagonal).max() < 1e-8
        assert rho_b[0, 0] == pytest.approx(1.0)
        state.validate()

    def test_displaced_squeezed_matches_gaussian_moments(self):
        params = StateParams(zeta=0.45, phi=0.8, alpha=0.9 - 0.6j)
        vec, deficit = pure_mode_amplitudes(params, 64)
        assert deficit < 1e-10
        a = build_ladder(64)
        moments = field_moments(make_state(params))
        assert np.vdot(vec, a @ vec) == pytest.approx(moments.mean_a, abs=1e-9)
        assert np.vdot(vec, a @ a @ vec) == pytest.approx(moments.a_sq, abs=1e-9)
        assert np.vdot(vec, a.conj().T @ a @ vec).real == pytest.approx(
            moments.n_a, abs=1e-9)

    def test_mixed_state_matches_gaussian_moments(self):
        params = StateParams(zeta=0.3, nbar=0.8, phi=1.2, alpha=0.5 + 0.2j)
        state = fock_state(params, StateParams(), 48)
        moments = field_moments(make_state(params))
        mean = expect(OperatorExpr.word(("a",)), state)
        n = expect(NUMBER_A, state).real
        a_sq = expect(OperatorExpr.word(("a", "a")), state)
        assert mean == pytest.approx(moments.mean_a, abs=1e-8)
        assert n == pytest.approx(moments.n_a, abs=1e-8)
        assert a_sq == pytest.approx(moments.a_sq, abs=1e-8)
        state.validate()

    def test_pure_norm_invariant(self):
        state = fock_state(StateParams(alpha=1.2), StateParams(zeta=0.3), 48)
        norm = float(np.vdot(state.data, state.data).real)
        assert 1.0 - state.deficit - 1e-12 <= norm <= 1.0 + 1e-12
        state.validate()


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
            f = random_expression(rng, max_degree=2, max_terms=3)
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
            expr = reorder(random_expression(rng, max_degree=3, max_terms=4))
            dense = expr_matrix(expr, cutoff)
            direct = np.vdot(psi.ravel(), dense @ psi.ravel())
            assert expect(expr, state) == pytest.approx(direct, abs=1e-12)

    def test_number_correlated_state_moments(self):
        # psi = (|0,0> + |1,1>)/sqrt(2): hand-computable moments.
        cutoff = 4
        psi = np.zeros((cutoff, cutoff), dtype=complex)
        psi[0, 0] = psi[1, 1] = 1.0 / np.sqrt(2.0)
        state = FockState.pure(psi)
        assert expect(NUMBER_A, state).real == pytest.approx(0.5, abs=1e-14)
        ell = difference_observable(0.0)
        assert expect(ell, state) == pytest.approx(0.0, abs=1e-14)
        # L^2 on |0,0>: a ad bd b and cross terms annihilate it; on |1,1>
        # the surviving contributions give <1,1|L^2|1,1> = n_a(n_b + 1)
        # + (n_a + 1) n_b = 4, so the average is 2.
        assert expect(ell * ell, state).real == pytest.approx(2.0, abs=1e-13)

    def test_reorder_preserves_interior_block(self):
        rng = np.random.default_rng(11)
        cutoff, degree = 10, 4
        keep = [na * cutoff + nb for na in range(cutoff - degree)
                for nb in range(cutoff - degree)]
        for _ in range(25):
            expr = random_expression(rng, max_degree=degree, max_terms=4)
            direct = expr_matrix(expr, cutoff)
            ordered = expr_matrix(reorder(expr), cutoff)
            block = np.abs(direct - ordered)[np.ix_(keep, keep)]
            assert block.max() < 1e-10


class TestWitnessGeneral:
    def test_coherent_signal_fluctuation_vanishes(self):
        alpha = 0.7 + 0.3j
        state = fock_state(StateParams(alpha=alpha), StateParams(zeta=0.2), 40)
        f = parse("a") - alpha
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
        f = parse("ad") - OperatorExpr.word(("b",), 1.0 / np.tanh(r))
        assert witness_general(f, state) == pytest.approx(-1.0, abs=1e-9)
        # The homodyne witness Var(L) - <b^dag b> = 4 nbar^2 + 3 nbar stays positive.
        nbar = np.sinh(r) ** 2
        for theta in (0.0, 1.0):
            ell = difference_observable(theta)
            var = (expect(ell * ell, state) - expect(ell, state) ** 2).real
            partial = var - expect(NUMBER_B, state).real
            assert partial == pytest.approx(4.0 * nbar**2 + 3.0 * nbar, abs=1e-9)
            assert partial == pytest.approx(excess, abs=1e-3)


class TestConvergedCutoff:
    def test_vacuum_converges_immediately(self):
        ell = difference_observable(0.0)
        cutoff, state = converged_cutoff(StateParams(), StateParams(), ell * ell, 1e-9)
        assert cutoff == 2
        assert state.cutoff == 4

    def test_typical_scenario_converges_modestly(self):
        ell = difference_observable(0.0)
        params_si, params_lo = StateParams(alpha=1.0), StateParams(zeta=ZETA_3DB)
        cutoff, state = converged_cutoff(params_si, params_lo, ell * ell, 1e-9)
        assert cutoff <= 64
        # The returned state is the one fock_state builds at the next doubling.
        fresh = fock_state(params_si, params_lo, 2 * cutoff)
        assert state.kind == fresh.kind and state.deficit == fresh.deficit
        np.testing.assert_array_equal(state.data, fresh.data)

    def test_heavy_tail_with_small_budget_fails(self):
        ell = difference_observable(0.0)
        with pytest.raises(ConvergenceError):
            converged_cutoff(StateParams(alpha=5.0), StateParams(), ell * ell,
                             1e-9, max_cutoff=16)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            converged_cutoff(StateParams(), StateParams(),
                             difference_observable(0.0), 0.0)


class TestChannelFolds:
    """Independent bath-coupling oracles for the Gaussian channels."""

    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.9])
    def test_beam_splitter_fold_reproduces_loss(self, eta):
        params = StateParams(zeta=0.3, phi=0.4, alpha=0.6 + 0.5j)
        mean, a_sq, n = bath_fold_moments(params, "loss", eta, cutoff=36)

        moments = field_moments(apply_loss(make_state(params), eta))
        assert mean == pytest.approx(moments.mean_a, abs=1e-8)
        assert a_sq == pytest.approx(moments.a_sq, abs=1e-8)
        assert n == pytest.approx(moments.n_a, abs=1e-8)

    def test_two_mode_squeezer_fold_reproduces_gain(self):
        g = 1.5
        params = StateParams(zeta=0.25, alpha=0.4 - 0.3j)
        mean, _, n = bath_fold_moments(params, "gain", g, cutoff=40)

        moments = field_moments(apply_gain_noise(make_state(params), g))
        assert mean == pytest.approx(moments.mean_a, abs=1e-8)
        assert n == pytest.approx(moments.n_a, abs=1e-8)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bath_fold_moments(StateParams(), "dephasing", 0.5, cutoff=4)

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
        vec, _ = pure_mode_amplitudes(params, cutoff)
        start = np.kron(vec, np.eye(cutoff)[0])
        evolved = v @ (np.exp(-1j * w) * (v.conj().T @ start))
        lowered = signal @ evolved
        return (np.vdot(evolved, lowered), np.vdot(evolved, signal @ lowered),
                np.vdot(lowered, lowered).real)

    @pytest.mark.parametrize("kind, strength", [("loss", 0.3), ("loss", 0.75),
                                                ("gain", 1.4), ("gain", 2.5)])
    def test_matches_dense_exponential(self, kind, strength):
        params = StateParams(zeta=0.35, phi=0.6, alpha=0.7 + 0.4j)
        got = bath_fold_moments(params, kind, strength, cutoff=8)
        want = self._dense_fold_moments(params, kind, strength, cutoff=8)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12

    @pytest.mark.parametrize("kind", ["loss", "gain"])
    def test_unit_strength_returns_input_moments(self, kind):
        params = StateParams(zeta=0.3, phi=0.4, alpha=0.6 + 0.5j)
        vec, _ = pure_mode_amplitudes(params, 16)
        a = build_ladder(16)
        want = (np.vdot(vec, a @ vec), np.vdot(vec, a @ a @ vec),
                np.vdot(a @ vec, a @ vec).real)
        for g, w in zip(bath_fold_moments(params, kind, 1.0, cutoff=16), want):
            assert abs(g - w) < 1e-14

    @pytest.mark.parametrize("kind, strength", [("loss", 0.05), ("gain", 3.0)])
    def test_preserves_norm(self, kind, strength):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        psi /= np.linalg.norm(psi)
        assert abs(np.linalg.norm(_bath_evolve(psi, kind, strength)) - 1.0) < 1e-13

    @pytest.mark.parametrize("kind, strength", [
        ("loss", -0.1), ("loss", 1.1), ("loss", np.nan),
        ("gain", 0.5), ("gain", np.nan), ("gain", np.inf),
    ])
    def test_rejects_out_of_range_strength(self, kind, strength):
        with pytest.raises(ValueError, match="must"):
            bath_fold_moments(StateParams(), kind, strength, cutoff=4)


# Corners of the ``random_state_params`` envelope: |alpha| <= 2,
# |zeta| <= 0.5, nbar in [0, 1], phi in [0, pi].
ENVELOPE_CORNERS = [
    StateParams(zeta=zeta, nbar=nbar, phi=phi, alpha=alpha)
    for zeta in (-0.5, 0.5)
    for nbar in (0.0, 1.0)
    for phi in (0.0, np.pi)
    for alpha in (2.0, -2.0j)
]


class TestRecurrence:
    """The exact Gaussian Fock recurrence that builds every oracle state."""

    @pytest.mark.parametrize("nbar", [0.0, 0.7])
    def test_prefix_property(self, nbar):
        params_si = StateParams(zeta=0.4, nbar=nbar, phi=1.1, alpha=1.2 - 0.8j)
        params_lo = StateParams(zeta=-0.3, phi=2.0, alpha=0.5j)
        for cutoff in (2, 8, 32, 128):
            # The whole budget, so the smallest cutoffs are built too.
            small = fock_state(params_si, params_lo, cutoff, budget=1.0)
            large = fock_state(params_si, params_lo, 2 * cutoff, budget=1.0)
            if small.kind == "pure":
                np.testing.assert_array_equal(small.data, large.data[:cutoff, :cutoff])
            else:
                for part, whole in zip(small.data, large.data):
                    np.testing.assert_array_equal(part, whole[:cutoff, :cutoff])

    @pytest.mark.parametrize("params", [
        StateParams(zeta=0.45, phi=0.8, alpha=0.9 - 0.6j),
        StateParams(zeta=-0.5, phi=3.0, alpha=-2.0j),
        StateParams(alpha=1.5 + 0.5j),
    ])
    def test_pure_density_is_outer_product(self, params):
        psi, _ = pure_mode_amplitudes(params, 128)
        rho = _density_matrix(params, 128)
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), rtol=0, atol=1e-15)

    def test_matches_closed_form_references(self):
        coherent, _ = pure_mode_amplitudes(StateParams(alpha=1.3 - 0.4j), 64)
        np.testing.assert_allclose(coherent, coherent_amplitudes(1.3 - 0.4j, 64),
                                   rtol=0, atol=1e-15)
        squeezed, _ = pure_mode_amplitudes(StateParams(zeta=0.4), 64)
        np.testing.assert_allclose(squeezed, squeezed_amplitudes(0.4, 64),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("params", ENVELOPE_CORNERS)
    def test_density_is_physical_at_envelope_corners(self, params):
        rho = _density_matrix(params, 256)
        np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10  # FockState psd_tol
        assert np.trace(rho).real <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(radius=st.floats(0.0, 2.0), angle=st.floats(0.0, 2.0 * np.pi),
           zeta=st.floats(-0.5, 0.5), nbar=st.floats(0.0, 1.0),
           phi=st.floats(0.0, np.pi))
    def test_moments_match_closed_form(self, radius, angle, zeta, nbar, phi):
        params = StateParams(zeta=zeta, nbar=nbar, phi=phi,
                             alpha=radius * np.exp(1j * angle))
        state = fock_state(params, StateParams(), 128)
        moments = field_moments(make_state(params))
        assert expect(OperatorExpr.word(("a",)), state) == pytest.approx(
            moments.mean_a, abs=1e-9)
        assert expect(OperatorExpr.word(("a", "a")), state) == pytest.approx(
            moments.a_sq, abs=1e-9)
        assert expect(NUMBER_A, state).real == pytest.approx(moments.n_a, abs=1e-9)
