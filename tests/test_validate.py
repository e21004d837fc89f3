import json
import math
import os

import numpy as np
import pytest
from dense_reference import reorder_deviation
from forking import assert_no_child_left, use_cores

from squeezewitness import validate
from squeezewitness.opexpr import OperatorExpr, formal_normal_order
from squeezewitness.validate import (
    _draw_pairs,
    random_expression,
    random_state_params,
    run_all_suites,
    suite_channel_laws,
    suite_classicality,
    suite_gaussian_fock,
    suite_reorder_matrix,
)


def test_gaussian_fock_suite_passes_on_a_slow_settling_seed():
    # Trial 9 of seed 110 is a thermal pair whose expectation value settles
    # only at cutoff 128, which takes cutoff 256 to confirm.
    result = suite_gaussian_fock(trials=10, seed=110)
    assert result.passed, result.detail


@pytest.mark.parametrize("trials", [0, 1, 7])
def test_draw_pairs_keeps_the_draw_order(trials):
    # Per trial: the SI's random_state_params, the LO's, then each range;
    # the reports are byte-identical only in this order.
    ranges = ((0.0, 2.0 * np.pi), (1.0, 3.0))
    rng = np.random.default_rng(11)
    si, lo, theta, gain = _draw_pairs(rng, trials, *ranges)
    reference = np.random.default_rng(11)
    fields = ("zeta", "nbar", "phi", "alpha")
    for k in range(trials):
        for side in (si, lo):
            want = random_state_params(reference)
            assert [getattr(side, f)[k] for f in fields] == [getattr(want, f) for f in fields]
        assert [theta[k], gain[k]] == [reference.uniform(low, high) for low, high in ranges]
    for column in (*(getattr(side, f) for side in (si, lo) for f in fields), theta, gain):
        assert np.shape(column) == (trials,)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_random_state_params_keeps_its_draw_order():
    # Radius, angle, the thermal coin (then nbar), zeta, phi: the order every
    # seeded report was made with.
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        params = random_state_params(rng)
        radius = 2.0 * np.sqrt(reference.uniform())
        angle = reference.uniform(0.0, 2.0 * np.pi)
        nbar = 0.0 if reference.uniform() < 1.0 / 3.0 else reference.uniform(0.0, 1.0)
        zeta = reference.uniform(-0.5, 0.5)
        want = (zeta, nbar, reference.uniform(0.0, np.pi), radius * np.exp(1j * angle))
        assert (params.zeta, params.nbar, params.phi, params.alpha) == want


def test_failing_channel_law_still_reports_the_fold(monkeypatch):
    passing = suite_channel_laws(trials=5)
    monkeypatch.setattr(validate, "CHANNEL_LAW_TOL", -1.0)  # no law can pass
    failing = suite_channel_laws(trials=5)
    assert passing.passed and not failing.passed
    assert failing.detail == passing.detail
    assert failing.detail.startswith("bath-fold deviation ")


def test_failing_gaussian_fock_suite_names_the_trial():
    # Trial 0 of seed 3 needs a cutoff above 64 to settle.
    result = suite_gaussian_fock(trials=40, seed=3, cutoff_max=64)
    assert not result.passed
    assert result.detail == ("trial 0: expectation value did not settle to "
                             "6.44335e-07 within cutoff 64")


def test_gaussian_fock_suite_rejects_a_ceiling_below_4():
    # The doubling schedule would hold cutoff 2 alone, with nothing to agree with.
    with pytest.raises(ValueError, match="cutoff_max must be >= 4, got 3"):
        suite_gaussian_fock(trials=1, cutoff_max=3)


@pytest.mark.parametrize("seed", [42, 7])
def test_reorder_suite_gives_the_dense_deviation(seed):
    # The suite compares band by band; on the same draws, the dense interior
    # block must give the same worst deviation, bit for bit.
    rng = np.random.default_rng(seed)
    dense = max(reorder_deviation(random_expression(rng, max_degree=4, max_terms=4),
                                  cutoff=10, max_degree=4) for _ in range(100))
    result = suite_reorder_matrix(100, seed)
    assert result.passed
    assert result.max_deviation == dense


def test_reorder_suite_fails_when_commutators_are_dropped(monkeypatch):
    monkeypatch.setattr(validate, "reorder", lambda e: formal_normal_order(e, {"A", "B"}))
    assert suite_reorder_matrix(100, 42).passed is False


def test_reorder_suite_rejects_an_empty_interior():
    with pytest.raises(ValueError, match="cutoff must exceed max_degree, got 4 and 4"):
        suite_reorder_matrix(trials=1, cutoff=4, max_degree=4)


def assert_fails_on_nan(result):
    """``max`` drops a NaN; a suite must fail on it and report it as strict JSON."""
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert json.dumps(result.to_json_dict(), allow_nan=False)
    assert result.to_json_dict()["max_deviation"] == "nan"


def test_gaussian_fock_suite_fails_on_a_nan_oracle(monkeypatch):
    monkeypatch.setattr(validate, "_oracle_variances", lambda *args, **kwargs: (math.nan,) * 3)
    assert_fails_on_nan(suite_gaussian_fock(3, 42, 16))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_classicality_suite_fails_on_a_witness_that_is_not_finite(monkeypatch, value):
    monkeypatch.setattr(validate, "witness_general", lambda f, state: value)
    assert_fails_on_nan(suite_classicality(3, 42))


@pytest.mark.parametrize("spot", ["laws", "fold"])
def test_channel_suite_fails_on_nan(monkeypatch, spot):
    if spot == "laws":
        monkeypatch.setattr(validate, "mean_photon", lambda mode: math.nan)
    else:
        monkeypatch.setattr(validate, "bath_fold_moments", lambda *args: (math.nan,) * 3)
    assert_fails_on_nan(suite_channel_laws(5, 42))


def test_reorder_suite_fails_on_nan(monkeypatch):
    reorder = validate.reorder
    monkeypatch.setattr(validate, "reorder",
                        lambda expr: reorder(expr) + OperatorExpr.constant(math.nan))
    assert_fails_on_nan(suite_reorder_matrix(3, 42))


def suite_report(results) -> str:
    return json.dumps([result.to_json_dict() for result in results], indent=2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the suites fork their workers")
@pytest.mark.parametrize("trials, seed, cutoff_max", [
    # Blocks of 8 pairs at ceiling 128 and of 2 at 256, the last one short.
    (37, 42, 128), (37, 42, 256),
    # Trial 9 fails to settle within 128, in the second block.
    (10, 110, 128),
])
def test_suites_give_the_same_report_on_any_core_count(monkeypatch, trials, seed, cutoff_max):
    # Each suite run on its own in this process is the reference.
    reference = suite_report([
        suite_gaussian_fock(trials, seed, cutoff_max), suite_classicality(trials, seed),
        suite_channel_laws(min(trials, 100), seed), suite_reorder_matrix(min(trials, 100), seed)])
    if seed == 110:
        assert ('"detail": "trial 9: expectation value did not settle to 1.63313e-06 '
                'within cutoff 128"') in reference
    for cores in (1, 2, 3):
        forks = use_cores(monkeypatch, cores)
        assert suite_report(run_all_suites(trials, seed, cutoff_max)) == reference
        assert len(forks) == cores  # the items outnumber the cores
        assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert suite_report(run_all_suites(trials, seed, cutoff_max)) == reference
