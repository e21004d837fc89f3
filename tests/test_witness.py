import numpy as np
import pytest
from covariance_reference import covariance, quadrature_means, rotation_matrix
from hypothesis import given, settings, strategies as st

from squeezewitness.gaussian import (
    ModeMoments,
    StateParams,
    coherent,
    db_to_squeeze,
    make_state,
    mean_photon,
    squeezed_vacuum,
    vacuum,
)
from squeezewitness.validate import random_state_params
from squeezewitness.witness import (
    ZERO_VARIANCE_TOL,
    ColumnError,
    TwoModeProduct,
    evaluate,
    homodyne_variance,
    witness_values,
)

ZETA_3DB = db_to_squeeze(3.0)
E_MINUS = np.exp(-2.0 * ZETA_3DB)  # 10^-0.3
E_PLUS = np.exp(2.0 * ZETA_3DB)


def params_strategy(max_alpha=2.0):
    return st.builds(
        StateParams,
        zeta=st.floats(-1.0, 1.0),
        nbar=st.floats(0.0, 2.0),
        phi=st.floats(0.0, np.pi, exclude_max=True),
        alpha=st.complex_numbers(max_magnitude=max_alpha, allow_infinity=False,
                                 allow_nan=False),
    )


def fig2_pair():
    return TwoModeProduct(si=coherent(1.0), lo=squeezed_vacuum(ZETA_3DB))


def evaluate_lit(pair, theta):
    """``evaluate(pair, theta)``, or ``None`` for a dark LO (drawn LOs can
    shrink to the vacuum) after checking that ``evaluate`` rejects it."""
    if mean_photon(pair.lo) > 0:
        return evaluate(pair, theta)
    with pytest.raises(ColumnError, match=r"^nb\[0\] = .*shot-noise"):
        evaluate(pair, theta)
    return None


class TestTwoModeProduct:
    def test_rejects_unphysical_mode(self):
        bad = ModeMoments(delta_n=-0.3)
        with pytest.raises(ValueError, match="si"):
            TwoModeProduct(si=bad, lo=vacuum())
        with pytest.raises(ValueError, match="lo"):
            TwoModeProduct(si=vacuum(), lo=bad)


class TestHomodyneVariance:
    @given(params_strategy(), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=80, deadline=None)
    def test_blocked_signal_measures_lo_intensity(self, lo_params, theta):
        pair = TwoModeProduct(si=vacuum(), lo=make_state(lo_params))
        assert homodyne_variance(pair, theta) == mean_photon(pair.lo)

    def test_twin_squeezing_cancels(self):
        pair = TwoModeProduct(si=squeezed_vacuum(ZETA_3DB),
                              lo=squeezed_vacuum(ZETA_3DB))
        assert abs(homodyne_variance(pair, np.pi / 2.0)) < 1e-15

    def test_opposite_squeezing_cancels_in_phase(self):
        pair = TwoModeProduct(si=squeezed_vacuum(ZETA_3DB),
                              lo=squeezed_vacuum(-ZETA_3DB))
        assert abs(homodyne_variance(pair, 0.0)) < 1e-15

    def test_coherent_si_squeezed_lo(self):
        assert homodyne_variance(fig2_pair(), 0.0) == pytest.approx(
            0.6252996207763102, rel=1e-13)

    @given(params_strategy(), params_strategy(), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, si_params, lo_params, theta):
        pair = TwoModeProduct(si=make_state(si_params), lo=make_state(lo_params))
        assert homodyne_variance(pair, theta) >= -1e-12

    @given(params_strategy(), params_strategy(), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=80, deadline=None)
    def test_moment_expansion_oracle(self, si_params, lo_params, theta):
        """Second closed-form route: the covariance-matrix sandwich
        ``tr(C R^T C' R) - 1/2 + xi^T R^T C' R xi + xi'^T R C R^T xi'``
        (primes for the LO) on the reference covariances, against the moment
        expansion, with a literal transcription of ``<L^2> - <L>^2`` in
        ladder moments alongside."""
        si = make_state(si_params)
        lo = make_state(lo_params)
        c_si, c_lo = covariance(si_params), covariance(lo_params)
        xi_si, xi_lo = quadrature_means(si_params), quadrature_means(lo_params)
        r = rotation_matrix(theta)
        rot_lo = r.T @ c_lo @ r
        sandwich = (np.trace(c_si @ rot_lo) - 0.5 + xi_si @ rot_lo @ xi_si
                    + xi_lo @ r @ c_si @ r.T @ xi_lo)
        phase = np.exp(1j * theta)
        second = (phase**2 * np.conj(si.a_sq) * lo.a_sq
                  + np.conj(phase) ** 2 * si.a_sq * np.conj(lo.a_sq)
                  + si.n_a * lo.aa_dag + si.aa_dag * lo.n_a)
        first = (phase * np.conj(si.alpha) * lo.alpha
                 + np.conj(phase) * si.alpha * np.conj(lo.alpha))
        pair = TwoModeProduct(si=si, lo=lo)
        got = homodyne_variance(pair, theta)
        assert got == pytest.approx(sandwich, abs=1e-11)
        assert got == pytest.approx((second - first**2).real, abs=1e-11)

    @given(params_strategy(), params_strategy(), st.floats(-7.0, 7.0),
           st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_common_phase_shift_invariance(self, si_params, lo_params, phi0, theta):
        def shifted(params):
            return make_state(StateParams(zeta=params.zeta, nbar=params.nbar,
                                          phi=params.phi + phi0,
                                          alpha=params.alpha * np.exp(1j * phi0)))

        pair = TwoModeProduct(si=make_state(si_params), lo=make_state(lo_params))
        turned = TwoModeProduct(si=shifted(si_params), lo=shifted(lo_params))
        assert homodyne_variance(turned, theta) == pytest.approx(
            homodyne_variance(pair, theta), abs=1e-12)
        for mode in ("si", "lo"):
            assert mean_photon(getattr(turned, mode)) == pytest.approx(
                mean_photon(getattr(pair, mode)), abs=1e-12)

    def test_arrays_match_scalar_calls_bit_for_bit(self):
        pair = TwoModeProduct(
            si=make_state(StateParams(zeta=0.4, nbar=0.3, phi=0.7, alpha=1.2 - 0.5j)),
            lo=make_state(StateParams(zeta=-0.6, nbar=0.1, phi=2.1, alpha=0.3 + 1.9j)))
        thetas = np.random.default_rng(17).uniform(-10.0, 10.0, 257)
        var = homodyne_variance(pair, thetas)
        whole = evaluate(pair, thetas)
        assert var.shape == (257,)
        for i, theta in enumerate(thetas.tolist()):
            assert var[i] == homodyne_variance(pair, theta)
            for got, want in zip(whole, evaluate(pair, theta)):
                assert got[i] == want

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_pi_periodic_without_displacement(self, z_si, z_lo, theta):
        pair = TwoModeProduct(si=squeezed_vacuum(z_si, phi=0.3),
                              lo=squeezed_vacuum(z_lo, phi=1.1))
        assert homodyne_variance(pair, theta) == pytest.approx(
            homodyne_variance(pair, theta + np.pi), abs=1e-12)
        assert homodyne_variance(pair, theta) == pytest.approx(
            homodyne_variance(pair, theta + 2 * np.pi), abs=1e-12)


class TestOrderedVariances:
    def test_false_positive_point(self):
        values = evaluate(fig2_pair(), 0.0)
        partial, full = values.partial_no, values.full_no
        assert partial == pytest.approx(E_MINUS, rel=1e-12)
        assert partial == pytest.approx(0.501187, abs=1e-6)
        assert full == pytest.approx(E_MINUS - 1.0, rel=1e-12)
        assert full == pytest.approx(-0.498813, abs=1e-6)

    def test_quarter_phase_point(self):
        values = evaluate(fig2_pair(), np.pi / 2.0)
        partial, full = values.partial_no, values.full_no
        assert partial == pytest.approx(E_PLUS, rel=1e-12)
        assert partial == pytest.approx(1.995262, abs=1e-6)
        assert full == pytest.approx(0.995262, abs=1e-6)

    def test_double_vacuum_is_all_zero(self):
        # Zero variance, but a dark LO gives no shot-noise reference.
        pair = TwoModeProduct(si=vacuum(), lo=vacuum())
        assert homodyne_variance(pair, 0.7) == 0.0
        assert evaluate_lit(pair, 0.7) is None

    def test_closed_form_phase_dependence(self):
        # partial_no(theta) = cos^2 e^(-2 zeta') + sin^2 e^(2 zeta') for a
        # unit coherent signal and a squeezed LO.
        thetas = np.linspace(0.0, 2.0 * np.pi, 17)
        expected = np.cos(thetas) ** 2 * E_MINUS + np.sin(thetas) ** 2 * E_PLUS
        np.testing.assert_allclose(evaluate(fig2_pair(), thetas).partial_no, expected,
                                   rtol=1e-12)

    @given(params_strategy(), params_strategy(), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_ordering_differences_are_intensities(self, si_params, lo_params, theta):
        pair = TwoModeProduct(si=make_state(si_params), lo=make_state(lo_params))
        values = evaluate_lit(pair, theta)
        if values is None:
            return
        assert values.var_L - values.partial_no == pytest.approx(
            mean_photon(pair.lo), abs=1e-12)
        assert values.partial_no - values.full_no == pytest.approx(
            mean_photon(pair.si), abs=1e-12)

    @given(params_strategy(max_alpha=2.0), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=80, deadline=None)
    def test_classical_signal_never_negative(self, lo_params, theta):
        for alpha in (0.0, 1.0, 0.5 - 1.5j):
            pair = TwoModeProduct(si=coherent(alpha), lo=make_state(lo_params))
            values = evaluate_lit(pair, theta)
            if values is None:
                return
            assert values.partial_no >= -1e-12


class TestNoiseParameter:
    def test_blocked_signal_sits_at_shot_noise(self):
        pair = TwoModeProduct(si=vacuum(), lo=coherent(1.3))
        assert evaluate(pair, 0.9).noise_db == pytest.approx(0.0, abs=1e-12)

    def test_squeezed_si_with_strong_coherent_lo(self):
        pair = TwoModeProduct(si=squeezed_vacuum(ZETA_3DB),
                              lo=coherent(np.sqrt(10.0)))
        expected = 10.0 * np.log10(
            (np.sinh(ZETA_3DB) ** 2 + 10.0 * E_MINUS) / 10.0)
        got = evaluate(pair, 0.0).noise_db
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-2.8936, abs=2e-4)

    def test_perfect_cancellation_returns_minus_infinity(self):
        lo = squeezed_vacuum(ZETA_3DB)
        assert mean_photon(lo) == pytest.approx(0.124112, abs=1e-6)
        pair = TwoModeProduct(si=squeezed_vacuum(ZETA_3DB), lo=lo)
        report = evaluate(pair, np.pi / 2.0)
        assert report.noise_db == -np.inf
        assert report.nonclassical

    def test_near_dark_lo_gives_finite_noise_db(self):
        # Var(L) / <b^dag b> overflows; the noise parameter stays finite.
        lo = make_state(StateParams(alpha=5.98e-155))
        values = evaluate(TwoModeProduct(si=coherent(2.0), lo=lo), 0.3)
        assert np.isfinite(values.noise_db)
        assert values.noise_db == pytest.approx(
            10.0 * (np.log10(values.var_L) - np.log10(mean_photon(lo))), rel=1e-15)
        assert values.noise_db == pytest.approx(3090.49, abs=0.01)

    def test_rejects_dark_lo(self):
        pair = TwoModeProduct(si=coherent(1.0), lo=vacuum())
        for theta in (0.0, np.linspace(0.0, np.pi, 5)):
            with pytest.raises(ColumnError, match="shot-noise") as caught:
                evaluate(pair, theta)
            assert caught.value.column == "nb"

    def test_blocked_signal_calibration_is_exact(self):
        # A vacuum signal sits exactly at shot noise, over criterion 1's
        # envelope of LOs.
        rng = np.random.default_rng(123)
        for _ in range(2000):
            lo = make_state(random_state_params(rng, 3.0, 1.5, 3.0))
            theta = rng.uniform(0.0, 2.0 * np.pi)
            assert evaluate(TwoModeProduct(si=vacuum(), lo=lo), theta).partial_no == 0.0

    @given(params_strategy(), params_strategy(max_alpha=2.0),
           st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_sign_equivalence_with_witness(self, si_params, lo_params, theta):
        lo = make_state(lo_params)
        values = evaluate_lit(TwoModeProduct(si=make_state(si_params), lo=lo), theta)
        if values is None or mean_photon(lo) <= 1e-12:
            return
        partial, noise_db = values.partial_no, values.noise_db
        if partial < -1e-12:
            assert noise_db < 0
        if noise_db < -1e-12:
            assert partial < 0


class TestWitnessValues:
    """The verdict kernel shared by ``evaluate``, the figures and ``witness``."""

    def test_quantities(self):
        values = witness_values([0.25, 0.5, 2.0], [0.5, 0.5, 0.5], [1.0, 0.0, 0.25],
                                tol=0.0)
        np.testing.assert_array_equal(values.partial_no, [-0.25, 0.0, 1.5])
        np.testing.assert_array_equal(values.full_no, [-1.25, 0.0, 1.25])
        np.testing.assert_array_equal(values.nonclassical, [True, False, False])
        np.testing.assert_array_equal(values.standard_negativity, [True, False, False])
        np.testing.assert_allclose(values.noise_db, [-3.0103, 0.0, 6.0206], atol=1e-4)

    def test_full_ordering_only_with_na(self):
        values = witness_values([0.1], [0.2])
        assert values.full_no is None and values.standard_negativity is None

    def test_vanishing_variance_gives_minus_infinity(self):
        values = witness_values([0.0, ZERO_VARIANCE_TOL, -1e-17, 2 * ZERO_VARIANCE_TOL],
                                [0.1] * 4)
        np.testing.assert_array_equal(values.noise_db[:3], [-np.inf] * 3)
        assert np.isfinite(values.noise_db[3])

    def test_arrays_match_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(5)
        var_l = rng.uniform(0.0, 10.0, 257)
        nb = rng.uniform(0.01, 10.0, 257)
        na = rng.uniform(0.0, 5.0, 257)
        whole = witness_values(var_l, nb, na, tol=0.01)
        for i in range(257):
            one = witness_values(float(var_l[i]), float(nb[i]), float(na[i]), tol=0.01)
            for got, want in zip(whole, one):
                assert got[i] == want

    @pytest.mark.parametrize("column", ["var_L", "nb", "na"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_naming_column_and_index(self, column, bad):
        cells = {"var_L": [0.1, 0.2, 0.3], "nb": [0.1, 0.2, 0.3], "na": [0.0, 0.1, 0.2]}
        cells[column][1] = bad
        with pytest.raises(ColumnError, match=rf"{column}\[1\]") as caught:
            witness_values(cells["var_L"], cells["nb"], cells["na"])
        assert (caught.value.column, caught.value.index) == (column, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cells, column", [
        (([0.1, 0.0], [0.2, 1.7e308], [0.0, 1.7e308]), "full_no"),
        (([0.1, -1.7e308], [0.2, 1.7e308]), "partial_no"),
    ])
    def test_rejects_overflowing_difference(self, cells, column):
        with pytest.raises(ColumnError, match=rf"{column}\[1\] = -inf") as caught:
            witness_values(*cells)
        assert (caught.value.column, caught.value.index) == (column, 1)

    @pytest.mark.parametrize("nb", [0.0, -0.5])
    def test_rejects_nonpositive_nb(self, nb):
        with pytest.raises(ColumnError, match="shot-noise") as caught:
            witness_values([0.1, 0.2, 0.3], [0.2, 0.1, nb])
        assert (caught.value.column, caught.value.index) == ("nb", 2)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            witness_values([0.1], [0.2], tol=tol)


class TestClassifyAndReports:
    def test_negative_witness_detected(self):
        values = witness_values(0.1, 0.4, 0.2, tol=1e-9)
        assert values.partial_no == pytest.approx(-0.3)
        assert values.nonclassical

    def test_false_positive_is_exposed(self):
        report = evaluate(fig2_pair(), 0.0)
        assert report.partial_no == pytest.approx(0.501187, abs=1e-6)
        assert report.full_no == pytest.approx(-0.498813, abs=1e-6)
        assert not report.nonclassical

    def test_boundary_is_classical(self):
        assert not witness_values(0.1, 0.1, tol=1e-9).nonclassical
        assert not witness_values(0.1, 0.1, tol=0.0).nonclassical
        # partial_no == -tol exactly is not below -tol.
        values = witness_values(0.5, 0.75, tol=0.25)
        assert values.partial_no == -0.25
        assert not values.nonclassical

    def test_report_ordering_identities_are_exact(self):
        report = evaluate(fig2_pair(), 0.7)
        assert report.var_L - mean_photon(fig2_pair().lo) == report.partial_no
        assert report.partial_no - report.full_no == mean_photon(fig2_pair().si)

    def test_matches_closed_form_ordered_variances(self):
        pair = TwoModeProduct(si=squeezed_vacuum(ZETA_3DB), lo=coherent(1.5))
        nb, na = mean_photon(pair.lo), mean_photon(pair.si)
        for theta in np.linspace(0.0, np.pi, 7):
            report = evaluate(pair, float(theta))
            var = homodyne_variance(pair, float(theta))
            assert (report.var_L, report.partial_no, report.full_no) == \
                (var, var - nb, var - nb - na)
            assert report.nonclassical == (report.partial_no < -1e-9)


class TestSweep:
    def test_fig2_family(self):
        values = evaluate(fig2_pair(), 2.0 * np.pi * np.arange(361) / 361)
        assert len(values.partial_no) == 361
        assert values.partial_no.min() >= -1e-12
        assert values.full_no.min() == pytest.approx(-0.498813, abs=1e-4)
        assert not values.nonclassical.any()

    def test_noise_sweep_family_decreases(self):
        si = squeezed_vacuum(ZETA_3DB)
        intensities = [10.0 ** e for e in np.linspace(-2, 4, 25)]
        noise = [evaluate(TwoModeProduct(si=si, lo=coherent(np.sqrt(nb))), 0.0).noise_db
                 for nb in intensities]
        assert all(b < a for a, b in zip(noise, noise[1:]))
        assert noise[-1] > -3.0
