import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from covariance_reference import OMEGA, T_MAP, covariance
from hypothesis import given, settings, strategies as st

from squeezewitness.channels import apply_gain_noise, apply_loss
from squeezewitness.gaussian import (
    ColumnError,
    ModeMoments,
    StateParams,
    coherent,
    db_to_squeeze,
    is_physical,
    make_state,
    mean_photon,
    squeezed_vacuum,
    vacuum,
)
from squeezewitness.validate import haar_random_vector
from squeezewitness.witness import TwoModeProduct

ZETA_3DB = db_to_squeeze(3.0)


def covariance_det(state):
    """Determinant of the quadrature covariance, in moment form."""
    return (state.delta_n + 0.5) ** 2 - abs(state.delta_sq) ** 2


def params_strategy(max_alpha=3.0, max_zeta=2.0, max_nbar=3.0):
    return st.builds(
        StateParams,
        zeta=st.floats(-max_zeta, max_zeta),
        nbar=st.floats(0.0, max_nbar),
        phi=st.floats(0.0, np.pi, exclude_max=True),
        alpha=st.complex_numbers(max_magnitude=max_alpha, allow_infinity=False,
                                 allow_nan=False),
    )


class TestMakeState:
    def test_vacuum(self):
        state = make_state(StateParams())
        assert (state.alpha, state.delta_sq, state.delta_n) == (0, 0, 0)

    def test_coherent_unit_amplitude(self):
        state = make_state(StateParams(alpha=1.0))
        assert state.alpha == pytest.approx(1.0, abs=1e-15)
        assert mean_photon(state) == pytest.approx(1.0, abs=1e-12)

    def test_3db_squeezed_mean_photon(self):
        state = make_state(StateParams(zeta=0.345388))
        assert mean_photon(state) == pytest.approx(np.sinh(0.345388) ** 2, rel=1e-12)
        assert mean_photon(state) == pytest.approx(0.124112, abs=1e-6)

    def test_db_conversion(self):
        # 3 dB of squeezing means the squeezed variance is 10^(-0.3)/2.
        from squeezewitness.gaussian import squeeze_to_db

        assert ZETA_3DB == pytest.approx(0.345388, abs=1e-6)
        assert np.exp(-2.0 * ZETA_3DB) == pytest.approx(10.0 ** -0.3, rel=1e-14)
        assert squeeze_to_db(ZETA_3DB) == pytest.approx(3.0, rel=1e-14)

    def test_rejects_negative_nbar(self):
        with pytest.raises(ValueError, match="nbar"):
            StateParams(nbar=-0.1)

    @pytest.mark.parametrize("field", ["zeta", "nbar", "phi", "alpha"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ColumnError, match=rf"^{field}\[0\] = {value!r} is not finite$"):
            StateParams(**{field: value})

    @pytest.mark.parametrize("alpha", [complex(float("nan"), 0.0),
                                       complex(0.0, float("inf"))])
    def test_rejects_non_finite_alpha_part(self, alpha):
        # The value is reported whole: (nan+0j) and infj, not nan and 0.0.
        with pytest.raises(ColumnError,
                           match=rf"^alpha\[0\] = {re.escape(repr(alpha))} is not finite$"):
            StateParams(alpha=alpha)

    def test_squeezing_orientation(self):
        # Positive zeta squeezes x at phi = 0.
        state = make_state(StateParams(zeta=0.5))
        var_x = state.delta_n + 0.5 + state.delta_sq.real
        var_p = state.delta_n + 0.5 - state.delta_sq.real
        assert var_x < 0.5 < var_p

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_always_physical(self, params):
        assert is_physical(make_state(params))

    @given(params_strategy(max_nbar=0.0))
    @settings(max_examples=60, deadline=None)
    def test_pure_states_are_minimum_uncertainty(self, params):
        # Exact up to rounding of the squares, which can reach
        # (e^(2 zeta)/2)^2.
        state = make_state(params)
        slack = 1e-15 * max(1.0, (2.0 * state.delta_n + 1.0) ** 2)
        assert abs(covariance_det(state) - 0.25) <= slack


class TestMeanPhoton:
    def test_vacuum_zero(self):
        assert mean_photon(vacuum()) == 0.0

    def test_displaced_squeezed_thermal(self):
        params = StateParams(zeta=0.4, nbar=0.7, phi=1.1, alpha=0.6 - 0.8j)
        expected = np.sinh(0.4) ** 2 + 0.7 + abs(0.6 - 0.8j) ** 2
        assert mean_photon(make_state(params)) == pytest.approx(expected, rel=1e-12)


class TestFieldMoments:
    def test_vacuum(self):
        moments = vacuum()
        assert moments.alpha == 0
        assert moments.a_sq == 0
        assert moments.n_a == pytest.approx(0.0, abs=1e-15)
        assert moments.aa_dag == pytest.approx(1.0, abs=1e-15)

    def test_squeezed_second_moment(self):
        moments = squeezed_vacuum(ZETA_3DB)
        expected = -np.sinh(ZETA_3DB) * np.cosh(ZETA_3DB)
        assert moments.a_sq.real == pytest.approx(expected, rel=1e-12)
        assert moments.a_sq.imag == pytest.approx(0.0, abs=1e-15)

    def test_coherent_moments(self):
        moments = coherent(1.0)
        assert moments.alpha == pytest.approx(1.0)
        assert moments.a_sq == pytest.approx(1.0)
        assert moments.n_a == pytest.approx(1.0, abs=1e-12)

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_number_identity_and_positivity(self, params):
        moments = make_state(params)
        assert moments.aa_dag - moments.n_a == pytest.approx(1.0, abs=1e-12)
        assert moments.n_a >= abs(moments.alpha) ** 2 - 1e-12

    def test_matrix_transform_oracle(self):
        # make_state's central moments must match the literal quadrature to
        # ladder transformation T (cov +- (i/2) Omega) T^dag of the reference
        # covariance.
        params = StateParams(zeta=0.4, nbar=0.3, phi=0.9, alpha=1.1 - 0.7j)
        state = make_state(params)
        cov = covariance(params)
        upper = T_MAP @ (cov + 0.5j * OMEGA) @ T_MAP.conj().T
        lower = T_MAP @ (cov - 0.5j * OMEGA) @ T_MAP.conj().T
        assert state.delta_n + 1.0 == pytest.approx(upper[0, 0].real, abs=1e-12)
        assert state.delta_sq == pytest.approx(upper[0, 1], abs=1e-12)
        assert state.delta_n == pytest.approx(upper[1, 1].real, abs=1e-12)
        assert state.delta_n == pytest.approx(lower[0, 0].real, abs=1e-12)

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_covariance_round_trip(self, params):
        state = make_state(params)
        cxx = state.delta_n + 0.5 + state.delta_sq.real
        cpp = state.delta_n + 0.5 - state.delta_sq.real
        cxp = state.delta_sq.imag
        rebuilt = np.array([[cxx, cxp], [cxp, cpp]])
        np.testing.assert_allclose(rebuilt, covariance(params), atol=1e-12)


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(vacuum())

    def test_below_uncertainty_bound(self):
        state = ModeMoments(delta_n=-0.3)
        assert not is_physical(state)

    def test_minimum_uncertainty_boundary(self):
        state = squeezed_vacuum(0.8, phi=0.9)
        assert is_physical(state)
        assert covariance_det(state) == pytest.approx(0.25, abs=1e-14)

    def test_negative_definite_rejected(self):
        # det = 1 passes the uncertainty bound; positivity must reject it.
        state = ModeMoments(delta_n=-1.5)
        assert covariance_det(state) == pytest.approx(1.0)
        assert not is_physical(state)
        with pytest.raises(ValueError, match="si"):
            TwoModeProduct(si=state, lo=vacuum())

    def test_indefinite_rejected_where_the_guard_is_wide(self):
        # At trace 1e7 the rounding guard exceeds 1/4, so det < 0 must still fail.
        state = ModeMoments(delta_sq=(1e7 + 1e-8) / 2,
                            delta_n=(1e7 - 1e-8 - 1) / 2)
        assert not is_physical(state)

    def test_accepts_haar_random_states(self):
        # The bound is necessary for any state: exact ladder moments of
        # random vectors in a 12-level space must all pass.
        cutoff = 12
        lower = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            psi = haar_random_vector(rng, cutoff)
            alpha = np.vdot(psi, lower @ psi)
            a_sq = np.vdot(psi, lower @ lower @ psi)
            n = np.vdot(lower @ psi, lower @ psi).real
            state = ModeMoments(alpha=alpha, delta_sq=a_sq - alpha**2,
                                delta_n=n - abs(alpha) ** 2)
            assert is_physical(state)

    def test_accepts_bright_displaced_squeezed_state(self):
        state = make_state(StateParams(zeta=1.0, phi=0.7, alpha=1e4 * (0.6 + 0.8j)))
        assert is_physical(state)
        assert is_physical(apply_loss(state, 0.3))
        assert is_physical(apply_gain_noise(state, 2.5))


class TestSingleModeGaussian:
    def test_alpha_property(self):
        state = make_state(StateParams(alpha=0.5 + 0.25j))
        assert state.alpha == pytest.approx(0.5 + 0.25j)

    def test_immutable_arrays(self):
        state = vacuum()
        with pytest.raises(FrozenInstanceError):
            state.delta_n = 7.0
