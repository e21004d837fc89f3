import numpy as np
import pytest
from dense_reference import reorder_deviation

from squeezewitness import validate
from squeezewitness.opexpr import formal_normal_order
from squeezewitness.validate import (
    _draw_pairs,
    random_expression,
    random_state_params,
    suite_channel_laws,
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
