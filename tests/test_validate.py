import json
import math
import os

import numpy as np
import pytest
from dense_reference import reorder_deviation
from forking import assert_no_child_left, use_cores

from squeezewitness import validate
from squeezewitness.channels import apply_gain_noise, apply_loss
from squeezewitness.fock import expect
from squeezewitness.gaussian import StateParams, make_state
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

CEILING_RULE = "cutoff_max must be a power of two from 4 to 512, the oracle's cap, got "


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


def test_the_suite_reports_the_fold_that_the_tests_pin():
    # At zero trials the scaling laws add 0, so the suite's deviation is
    # that of the fold that the dense references in test_fock.py pin.
    params = StateParams(zeta=0.35, phi=0.6, alpha=0.7 + 0.4j)
    words = [OperatorExpr.word(word) for word in (("a",), ("a", "a"), ("ad", "a"))]
    deviations = []
    for kind, channel, strength in (("loss", apply_loss, 0.6), ("gain", apply_gain_noise, 1.4)):
        state = validate._bath_fold(params, kind, strength, 36)
        mode = channel(make_state(params), strength)
        deviations += [abs(expect(word, state) - want)
                       for word, want in zip(words, (mode.alpha, mode.a_sq, mode.n_a))]
    assert suite_channel_laws(0, 42).max_deviation == max(deviations)


def test_failing_gaussian_fock_suite_names_the_trial():
    # Trial 0 of seed 3 needs a cutoff above 64 to settle.
    result = suite_gaussian_fock(trials=40, seed=3, cutoff_max=64)
    assert not result.passed
    assert result.detail == ("trial 0: expectation value did not settle to "
                             "6.44335e-07 within cutoff 64")


def test_gaussian_fock_suite_rejects_a_ceiling_below_4():
    # The doubling schedule would hold cutoff 2 alone, with nothing to agree with.
    with pytest.raises(ValueError, match=f"^{CEILING_RULE}3$"):
        suite_gaussian_fock(trials=1, cutoff_max=3)


@pytest.mark.parametrize("cutoff_max", [4, 8, 16])
def test_gaussian_fock_suite_builds_its_states_at_the_ceiling(monkeypatch, cutoff_max):
    cutoffs = []
    fock_states = validate.fock_states

    def recorded(si, lo, cutoff):
        cutoffs.append(cutoff)
        return fock_states(si, lo, cutoff)

    monkeypatch.setattr(validate, "fock_states", recorded)
    suite_gaussian_fock(trials=1, cutoff_max=cutoff_max)
    assert cutoffs == [cutoff_max] and type(cutoffs[0]) is int


@pytest.mark.parametrize("cutoff_max", [4, 8, 16, 32, 64, 128, 256, 512, 128.0])
def test_every_power_of_two_ceiling_is_accepted(cutoff_max):
    assert all(result.passed for result in run_all_suites(0, 42, cutoff_max))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="counts the forks of the suites")
@pytest.mark.parametrize("suite", [suite_gaussian_fock, suite_classicality, suite_channel_laws,
                                   suite_reorder_matrix, run_all_suites],
                         ids=lambda suite: suite.__name__)
@pytest.mark.parametrize("argument, value, message", [
    ("trials", -5, "trials must be >= 0, got -5"),
    ("seed", -5, "seed must be >= 0, got -5"),
    # range() and SeedSequence would raise a TypeError, after the other
    # argument's checks or draws.
    ("trials", 2.5, r"trials must be an integer, got 2\.5"),
    ("seed", 2.5, r"seed must be an integer, got 2\.5"),
], ids=["trials", "seed", "trials-not-an-integer", "seed-not-an-integer"])
def test_negative_trials_or_seed_is_rejected_before_any_fork(monkeypatch, suite, argument,
                                                             value, message):
    # A negative trial count would pass vacuously, and report itself.
    forks = use_cores(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        suite(**{argument: value})
    assert forks == []


@pytest.mark.parametrize("trials, seed", [(True, 42), (np.int64(1), np.int64(42))],
                         ids=["bool", "numpy"])
def test_integer_like_arguments_report_plain_integers(trials, seed):
    # True once ran as one trial but reported "trials": true, and a numpy
    # integer's report could not be written as JSON.
    results = run_all_suites(trials, seed, 128)
    assert suite_report(results) == suite_report(run_all_suites(1, 42, 128))
    assert all(type(result.trials) is int for result in results)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="counts the forks of the suites")
@pytest.mark.parametrize("suite", [suite_gaussian_fock, run_all_suites],
                         ids=lambda suite: suite.__name__)
@pytest.mark.parametrize("trials", [0, 2])
@pytest.mark.parametrize("cutoff_max, message", [
    (3, f"{CEILING_RULE}3"),
    # The oracle builds no state above MAX_CUTOFF, so a larger ceiling would
    # be reported but never used.
    (513, f"{CEILING_RULE}513"),
    (10 ** 6, f"{CEILING_RULE}1000000"),
    # The cutoff doubles from 2, so any other ceiling would run as the power
    # of two below it and be reported as itself.
    (5, f"{CEILING_RULE}5"),
    (200, f"{CEILING_RULE}200"),
    (511, f"{CEILING_RULE}511"),
    # Equal to 128, but not a real number: int() would raise a TypeError, and
    # numpy's complex a ComplexWarning.
    (128 + 0j, rf"{CEILING_RULE}\(128\+0j\)"),
    (np.complex128(128), rf"{CEILING_RULE}\(128\+0j\)"),
], ids=["below-4", "cap", "far-above-cap", "not-a-power-5", "not-a-power-200",
        "not-a-power-511", "complex", "numpy-complex"])
def test_ceiling_outside_the_oracle_range_is_rejected_before_any_fork(
        monkeypatch, suite, trials, cutoff_max, message):
    forks = use_cores(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        suite(trials, 42, cutoff_max)
    assert forks == []


@pytest.mark.parametrize("seed", [42, 7])
def test_reorder_suite_gives_the_dense_deviation(seed):
    # The suite compares band by band; on the same draws, the dense interior
    # block must give the same worst deviation, bit for bit.
    rng = np.random.default_rng(seed)
    degree = validate.REORDER_MAX_DEGREE
    dense = max(reorder_deviation(random_expression(rng, max_degree=degree),
                                  cutoff=validate.REORDER_CUTOFF, max_degree=degree)
                for _ in range(100))
    result = suite_reorder_matrix(100, seed)
    assert result.passed
    assert result.max_deviation == dense


def test_reorder_suite_fails_when_commutators_are_dropped(monkeypatch):
    monkeypatch.setattr(validate, "reorder", lambda e: formal_normal_order(e, {"A", "B"}))
    assert suite_reorder_matrix(100, 42).passed is False


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


def test_classicality_suite_builds_every_signal_in_one_call(monkeypatch):
    want = suite_classicality(7, 3)
    calls = []
    fock_states = validate.fock_states

    def recorder(si, lo, cutoff):
        calls.append((si, lo, cutoff))
        return fock_states(si, lo, cutoff)

    monkeypatch.setattr(validate, "fock_states", recorder)
    assert suite_classicality(7, 3) == want
    ((si, lo, cutoff),) = calls
    assert cutoff == validate.CLASSICALITY_CUTOFF
    assert np.shape(si.alpha) == (7,) and np.all(np.abs(si.alpha) <= 2.0)
    assert (si.zeta, si.nbar, si.phi) == (0.0, 0.0, 0.0)
    assert lo == StateParams()


@pytest.mark.parametrize("spot", ["laws", "fold"])
def test_channel_suite_fails_on_nan(monkeypatch, spot):
    if spot == "laws":
        monkeypatch.setattr(validate, "mean_photon", lambda mode: math.nan)
    else:
        monkeypatch.setattr(validate, "expect", lambda expr, state: complex(math.nan))
    assert_fails_on_nan(suite_channel_laws(5, 42))


def test_channel_suite_fails_when_the_fold_does_not_evolve(monkeypatch):
    # With no evolution the signal keeps its input moments, which neither
    # channel map gives: the fold checks the maps against the bath unitaries.
    monkeypatch.setattr(validate, "evolve", lambda psi, generator, angle: psi)
    result = suite_channel_laws(5, 42)
    assert not result.passed
    fold = float(result.detail.removeprefix("bath-fold deviation "))
    assert fold > validate.CHANNEL_FOLD_TOL


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
    # No draw at all: the three other suites still fill the cores, and the
    # channel-law suite still runs its bath fold.
    (0, 42, 128),
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
