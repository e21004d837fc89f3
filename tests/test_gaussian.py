import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezewitness.gaussian import (
    FieldMoments,
    SingleModeGaussian,
    StateParams,
    coherent,
    db_to_squeeze,
    diagonalize,
    field_moments,
    is_physical,
    make_state,
    mean_photon,
    rotate,
    rotation_matrix,
    squeezed_vacuum,
    vacuum,
)

ZETA_3DB = db_to_squeeze(3.0)


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
        np.testing.assert_array_equal(state.cov, 0.5 * np.eye(2))
        np.testing.assert_array_equal(state.disp, np.zeros(2))

    def test_coherent_unit_amplitude(self):
        state = make_state(StateParams(alpha=1.0))
        np.testing.assert_allclose(state.disp, [np.sqrt(2.0), 0.0], atol=1e-15)
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
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StateParams(**{field: value})

    @pytest.mark.parametrize("alpha", [complex(float("nan"), 0.0),
                                       complex(0.0, float("inf"))])
    def test_rejects_non_finite_alpha_part(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            StateParams(alpha=alpha)

    def test_squeezing_orientation(self):
        # Positive zeta squeezes x at phi = 0.
        state = make_state(StateParams(zeta=0.5))
        assert state.cov[0, 0] < 0.5 < state.cov[1, 1]

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_always_physical(self, params):
        assert is_physical(make_state(params), 0.0)

    @given(params_strategy(max_nbar=0.0))
    @settings(max_examples=60, deadline=None)
    def test_pure_states_are_minimum_uncertainty(self, params):
        # Exact up to rounding of the rotation products, whose entries can
        # reach e^(2 zeta)/2.
        cov = make_state(params).cov
        slack = 1e-15 * max(1.0, np.trace(cov) ** 2)
        assert abs(np.linalg.det(cov) - 0.25) <= slack


class TestRotate:
    def test_identity_rotation(self):
        state = make_state(StateParams(zeta=0.3, alpha=1 + 1j))
        rotated = rotate(state, 0.0)
        np.testing.assert_array_equal(rotated.cov, state.cov)
        np.testing.assert_array_equal(rotated.disp, state.disp)

    def test_vacuum_invariant(self):
        for theta in (0.3, 1.0, 2.2):
            rotated = rotate(vacuum(), theta)
            np.testing.assert_allclose(rotated.cov, 0.5 * np.eye(2), atol=1e-15)

    def test_quarter_turn_swaps_squeezed_axes(self):
        state = squeezed_vacuum(ZETA_3DB)
        rotated = rotate(state, np.pi / 2.0)
        # Independent oracle: the explicit matrix product.
        r = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = r.T @ state.cov @ r
        np.testing.assert_allclose(rotated.cov, expected, atol=1e-15)
        np.testing.assert_allclose(
            np.diag(rotated.cov), np.diag(state.cov)[::-1], atol=1e-15)

    @given(params_strategy(), st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))
    @settings(max_examples=60, deadline=None)
    def test_rotations_compose(self, params, t1, t2):
        state = make_state(params)
        once = rotate(rotate(state, t1), t2)
        direct = rotate(state, t1 + t2)
        np.testing.assert_allclose(once.cov, direct.cov, atol=1e-12)
        np.testing.assert_allclose(once.disp, direct.disp, atol=1e-12)

    @given(params_strategy(), st.floats(-7.0, 7.0))
    @settings(max_examples=60, deadline=None)
    def test_mean_photon_rotation_invariant(self, params, theta):
        state = make_state(params)
        assert mean_photon(rotate(state, theta)) == pytest.approx(
            mean_photon(state), abs=1e-12)


class TestMeanPhoton:
    def test_vacuum_zero(self):
        assert mean_photon(vacuum()) == 0.0

    def test_displaced_squeezed_thermal(self):
        params = StateParams(zeta=0.4, nbar=0.7, phi=1.1, alpha=0.6 - 0.8j)
        expected = np.sinh(0.4) ** 2 + 0.7 + abs(0.6 - 0.8j) ** 2
        assert mean_photon(make_state(params)) == pytest.approx(expected, rel=1e-12)


class TestFieldMoments:
    def test_vacuum(self):
        moments = field_moments(vacuum())
        assert moments.mean_a == 0
        assert moments.a_sq == 0
        assert moments.n_a == pytest.approx(0.0, abs=1e-15)
        assert moments.aa_dag == pytest.approx(1.0, abs=1e-15)

    def test_squeezed_second_moment(self):
        moments = field_moments(squeezed_vacuum(ZETA_3DB))
        expected = -np.sinh(ZETA_3DB) * np.cosh(ZETA_3DB)
        assert moments.a_sq.real == pytest.approx(expected, rel=1e-12)
        assert moments.a_sq.imag == pytest.approx(0.0, abs=1e-15)

    def test_coherent_moments(self):
        moments = field_moments(coherent(1.0))
        assert moments.mean_a == pytest.approx(1.0)
        assert moments.a_sq == pytest.approx(1.0)
        assert moments.n_a == pytest.approx(1.0, abs=1e-12)

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_number_identity_and_positivity(self, params):
        moments = field_moments(make_state(params))
        assert moments.aa_dag - moments.n_a == pytest.approx(1.0, abs=1e-12)
        assert moments.n_a >= abs(moments.mean_a) ** 2 - 1e-12

    def test_matrix_transform_oracle(self):
        # The worked-out moment formulas must match the literal quadrature
        # to ladder transformation T (cov +- (i/2) Omega) T^dag.
        from squeezewitness.gaussian import OMEGA, T_MAP

        state = make_state(StateParams(zeta=0.4, nbar=0.3, phi=0.9,
                                       alpha=1.1 - 0.7j))
        m = field_moments(state)
        mean = m.mean_a
        upper = T_MAP @ (state.cov + 0.5j * OMEGA) @ T_MAP.conj().T
        lower = T_MAP @ (state.cov - 0.5j * OMEGA) @ T_MAP.conj().T
        assert m.aa_dag - abs(mean) ** 2 == pytest.approx(upper[0, 0].real, abs=1e-12)
        assert m.a_sq - mean**2 == pytest.approx(upper[0, 1], abs=1e-12)
        assert m.n_a - abs(mean) ** 2 == pytest.approx(upper[1, 1].real, abs=1e-12)
        assert m.n_a - abs(mean) ** 2 == pytest.approx(lower[0, 0].real, abs=1e-12)

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_covariance_round_trip(self, params):
        state = make_state(params)
        moments = field_moments(state)
        mean = moments.mean_a
        central_n = moments.n_a - abs(mean) ** 2
        central_sq = moments.a_sq - mean**2
        cxx = central_n + 0.5 + central_sq.real
        cpp = central_n + 0.5 - central_sq.real
        cxp = central_sq.imag
        rebuilt = np.array([[cxx, cxp], [cxp, cpp]])
        np.testing.assert_allclose(rebuilt, state.cov, atol=1e-12)


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(vacuum(), 0.0)

    def test_below_uncertainty_bound(self):
        state = SingleModeGaussian(cov=np.diag([0.2, 0.2]))
        assert not is_physical(state, 0.0)

    def test_minimum_uncertainty_boundary(self):
        state = squeezed_vacuum(0.8, phi=0.9)
        assert is_physical(state, 0.0)
        assert np.linalg.det(state.cov) == pytest.approx(0.25, abs=1e-14)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            is_physical(vacuum(), -1.0)


class TestDiagonalize:
    def test_already_diagonal(self):
        phi, sx, sp = diagonalize(np.diag([0.3, 0.9]))
        assert (phi, sx, sp) == (0.0, pytest.approx(0.3), pytest.approx(0.9))

    def test_rotated_construction_inverse(self):
        r = rotation_matrix(np.pi / 4.0)
        cov = r.T @ np.diag([0.3, 0.9]) @ r
        cov = (cov + cov.T) / 2.0
        phi, sx, sp = diagonalize(cov)
        assert phi == pytest.approx(np.pi / 4.0, abs=1e-12)
        assert sx == pytest.approx(0.3, abs=1e-12)
        assert sp == pytest.approx(0.9, abs=1e-12)

    def test_degenerate_tie_break(self):
        phi, sx, sp = diagonalize(0.5 * np.eye(2))
        assert phi == 0.0
        assert sx == sp == pytest.approx(0.5)

    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0),
           st.floats(0.0, np.pi, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_variances_match_eigenvalues(self, lam1, lam2, angle):
        r = rotation_matrix(angle)
        cov = r.T @ np.diag([lam1, lam2]) @ r
        cov = (cov + cov.T) / 2.0
        _, sx, sp = diagonalize(cov)
        np.testing.assert_allclose([sx, sp], np.linalg.eigvalsh(cov), atol=1e-12)

    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0),
           st.floats(0.0, np.pi, exclude_max=True))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_round_trip(self, lam1, lam2, angle):
        r = rotation_matrix(angle)
        cov = r.T @ np.diag([lam1, lam2]) @ r
        cov = (cov + cov.T) / 2.0
        phi, sx, sp = diagonalize(cov)
        assert 0.0 <= phi < np.pi
        assert sx <= sp
        rebuilt = rotation_matrix(phi).T @ np.diag([sx, sp]) @ rotation_matrix(phi)
        np.testing.assert_allclose(rebuilt, cov, atol=1e-12)


class TestSingleModeGaussian:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError, match="symmetric"):
            SingleModeGaussian(cov=np.array([[0.5, 0.1], [0.2, 0.5]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SingleModeGaussian(cov=np.eye(3))
        with pytest.raises(ValueError):
            SingleModeGaussian(cov=0.5 * np.eye(2), disp=np.zeros(3))

    def test_alpha_property(self):
        state = make_state(StateParams(alpha=0.5 + 0.25j))
        assert state.alpha == pytest.approx(0.5 + 0.25j)

    def test_immutable_arrays(self):
        state = vacuum()
        with pytest.raises(ValueError):
            state.cov[0, 0] = 7.0

    def test_field_moments_type(self):
        assert isinstance(field_moments(vacuum()), FieldMoments)
