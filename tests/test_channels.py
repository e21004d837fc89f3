import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezewitness.channels import apply_gain_noise, apply_loss
from squeezewitness.gaussian import (
    StateParams,
    coherent,
    db_to_squeeze,
    field_moments,
    is_physical,
    make_state,
    mean_photon,
    squeezed_vacuum,
    vacuum,
)
from squeezewitness.witness import ColumnError, TwoModeProduct, evaluate

ZETA_3DB = db_to_squeeze(3.0)


def partial_no(si, lo, theta):
    """``evaluate(...).partial_no``, or ``None`` for a dark LO (drawn LOs can
    shrink to the vacuum) after checking that ``evaluate`` rejects it."""
    pair = TwoModeProduct(si=si, lo=lo)
    if mean_photon(lo) > 0:
        return evaluate(pair, theta).partial_no
    with pytest.raises(ColumnError, match=r"^nb\[0\] = .*shot-noise"):
        evaluate(pair, theta)
    return None


def params_strategy():
    return st.builds(
        StateParams,
        zeta=st.floats(-1.0, 1.0),
        nbar=st.floats(0.0, 2.0),
        phi=st.floats(0.0, np.pi, exclude_max=True),
        alpha=st.complex_numbers(max_magnitude=2.0, allow_infinity=False,
                                 allow_nan=False),
    )


class TestLoss:
    def test_unit_efficiency_is_identity(self):
        state = make_state(StateParams(zeta=0.4, nbar=0.3, alpha=1 + 2j))
        out = apply_loss(state, 1.0)
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-15)
        np.testing.assert_allclose(out.disp, state.disp, atol=1e-15)

    def test_full_loss_gives_vacuum(self):
        state = make_state(StateParams(zeta=0.8, nbar=1.0, alpha=2.0))
        out = apply_loss(state, 0.0)
        np.testing.assert_allclose(out.cov, 0.5 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(out.disp, np.zeros(2), atol=1e-15)

    def test_half_loss_on_squeezed(self):
        out = apply_loss(squeezed_vacuum(ZETA_3DB), 0.5)
        # Frozen from the channel formula; cross-checked against a
        # beam-splitter fold in the Fock tests.
        np.testing.assert_allclose(
            np.diag(out.cov), [0.37529680840681806, 0.7488155787422199], rtol=1e-13)
        assert out.cov[0, 1] == 0.0

    @pytest.mark.parametrize("eta", [-0.1, 1.1, 2.0])
    def test_rejects_bad_efficiency(self, eta):
        with pytest.raises(ValueError, match="eta"):
            apply_loss(vacuum(), eta)

    @given(params_strategy(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_moment_maps(self, params, eta):
        state = make_state(params)
        before = field_moments(state)
        after = field_moments(apply_loss(state, eta))
        assert after.mean_a == pytest.approx(np.sqrt(eta) * before.mean_a, abs=1e-12)
        assert after.a_sq == pytest.approx(eta * before.a_sq, abs=1e-12)
        assert after.n_a == pytest.approx(eta * before.n_a, abs=1e-12)
        assert after.aa_dag == pytest.approx(eta * before.aa_dag + 1 - eta, abs=1e-12)

    @given(params_strategy(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_composition(self, params, eta1, eta2):
        state = make_state(params)
        twice = apply_loss(apply_loss(state, eta1), eta2)
        once = apply_loss(state, eta1 * eta2)
        np.testing.assert_allclose(twice.cov, once.cov, atol=1e-12)
        np.testing.assert_allclose(twice.disp, once.disp, atol=1e-12)

    @given(params_strategy(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_output_physical(self, params, eta):
        assert is_physical(apply_loss(make_state(params), eta))


class TestGainNoise:
    def test_unit_gain_is_identity(self):
        state = make_state(StateParams(zeta=0.4, nbar=0.3, alpha=1 + 2j))
        out = apply_gain_noise(state, 1.0)
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-15)
        np.testing.assert_allclose(out.disp, state.disp, atol=1e-15)

    def test_vacuum_gain_two(self):
        out = apply_gain_noise(vacuum(), 2.0)
        np.testing.assert_allclose(out.cov, 1.5 * np.eye(2), atol=1e-15)
        assert mean_photon(out) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_gain_two(self):
        out = apply_gain_noise(coherent(1.0), 2.0)
        np.testing.assert_allclose(out.disp, [2.0, 0.0], atol=1e-14)
        assert mean_photon(out) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.5, 0.999])
    def test_rejects_gain_below_one(self, g):
        with pytest.raises(ValueError, match="g"):
            apply_gain_noise(vacuum(), g)

    @given(params_strategy(), st.floats(1.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_moment_maps(self, params, g):
        state = make_state(params)
        before = field_moments(state)
        after = field_moments(apply_gain_noise(state, g))
        assert after.mean_a == pytest.approx(np.sqrt(g) * before.mean_a, abs=1e-12)
        assert after.a_sq == pytest.approx(g * before.a_sq, abs=1e-12)
        assert after.aa_dag == pytest.approx(g * before.aa_dag, abs=1e-12)
        assert after.n_a == pytest.approx(g * before.n_a + g - 1, abs=1e-12)

    @given(params_strategy(), st.floats(1.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_output_physical(self, params, g):
        assert is_physical(apply_gain_noise(make_state(params), g))


class TestWitnessScalingLaws:
    @given(params_strategy(), params_strategy(),
           st.floats(0.0, 2 * np.pi), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_loss_rescales_witness(self, si_params, lo_params, theta, eta):
        si = make_state(si_params)
        lo = make_state(lo_params)
        ideal = partial_no(si, lo, theta)
        if ideal is None:
            return
        lossy = partial_no(apply_loss(si, eta), lo, theta)
        assert lossy == pytest.approx(eta * ideal, abs=1e-12)

    @given(params_strategy(), params_strategy(),
           st.floats(0.0, 2 * np.pi), st.floats(1.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_gain_shifts_witness_affinely(self, si_params, lo_params, theta, g):
        si = make_state(si_params)
        lo = make_state(lo_params)
        ideal = partial_no(si, lo, theta)
        if ideal is None:
            return
        noisy = partial_no(apply_gain_noise(si, g), lo, theta)
        offset = (g - 1.0) * (2.0 * mean_photon(lo) + 1.0)
        assert noisy == pytest.approx(g * ideal + offset, abs=1e-12)

    def test_loss_cannot_flip_sign(self):
        # A genuinely nonclassical scenario stays nonpositive under loss.
        si = squeezed_vacuum(ZETA_3DB)
        lo = squeezed_vacuum(ZETA_3DB)
        assert partial_no(si, lo, np.pi / 2) < 0
        for eta in np.linspace(0.0, 1.0, 11):
            assert partial_no(apply_loss(si, float(eta)), lo, np.pi / 2) <= 1e-15
