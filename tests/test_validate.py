from squeezewitness import validate
from squeezewitness.validate import suite_channel_laws, suite_gaussian_fock


def test_gaussian_fock_suite_passes_on_a_slow_settling_seed():
    # Trial 9 of seed 110 is a thermal pair whose expectation value settles
    # only at cutoff 128, which takes cutoff 256 to confirm.
    result = suite_gaussian_fock(trials=10, seed=110)
    assert result.passed, result.detail


def test_failing_channel_law_still_reports_the_fold(monkeypatch):
    passing = suite_channel_laws(trials=5)
    monkeypatch.setattr(validate, "CHANNEL_LAW_TOL", -1.0)  # no law can pass
    failing = suite_channel_laws(trials=5)
    assert passing.passed and not failing.passed
    assert failing.detail == passing.detail
    assert failing.detail.startswith("bath-fold deviation ")
