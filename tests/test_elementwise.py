"""The moment layer is elementwise: an array of states through ``make_state``,
a channel and the closed forms equals the per-point scalar loop bit for bit."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezewitness.channels import apply_gain_noise, apply_loss
from squeezewitness.gaussian import (
    ModeMoments,
    StateParams,
    is_physical,
    make_state,
    mean_photon,
)
from squeezewitness.witness import ColumnError, TwoModeProduct, evaluate, homodyne_variance

FIELDS = ("zeta", "nbar", "phi", "alpha")


def envelope(n: int):
    """Arrays of ``n`` draws of each field within the ``random_state_params``
    envelope: ``|alpha| <= 2``, ``|zeta| <= 1/2``, ``0 <= nbar <= 1`` and
    ``0 <= phi <= pi``; ``nbar`` is often exactly 0."""
    def column(elements):
        return st.lists(elements, min_size=n, max_size=n)

    return st.fixed_dictionaries({
        "zeta": column(st.floats(-0.5, 0.5)),
        "nbar": column(st.sampled_from([0.0]) | st.floats(0.0, 1.0)),
        "phi": column(st.floats(0.0, np.pi)),
        "alpha": column(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                           allow_infinity=False)),
    })


@st.composite
def scenarios(draw):
    """An SI and an LO field table, an LO phase, an ``eta`` and a ``g`` per
    element; ``g`` is drawn in the validate suite's range [1, 3]."""
    n = draw(st.integers(1, 8))
    per_point = st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n)
    return (draw(envelope(n)), draw(envelope(n)), draw(per_point),
            draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
            draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n)))


def as_params(fields: dict) -> StateParams:
    return StateParams(**{name: np.array(values, dtype=complex if name == "alpha" else float)
                          for name, values in fields.items()})


def point(fields: dict, i: int) -> StateParams:
    return StateParams(**{name: values[i] for name, values in fields.items()})


def assert_bits(array, scalars):
    """``array`` and the list of per-point ``scalars`` hold the same bits."""
    expected = np.array(scalars)
    assert np.shape(array) == expected.shape
    assert np.asarray(array, dtype=expected.dtype).tobytes() == expected.tobytes()


def assert_same_moments(array_mode, scalar_modes):
    for name in ("alpha", "delta_sq", "delta_n", "a_sq", "n_a", "aa_dag"):
        assert_bits(np.broadcast_to(getattr(array_mode, name), (len(scalar_modes),)),
                    [getattr(mode, name) for mode in scalar_modes])


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_array_path_equals_scalar_loop(scenario):
    si_fields, lo_fields, thetas, etas, gains = scenario
    n = len(thetas)
    si, lo = make_state(as_params(si_fields)), make_state(as_params(lo_fields))
    si_points = [make_state(point(si_fields, i)) for i in range(n)]
    lo_points = [make_state(point(lo_fields, i)) for i in range(n)]
    signals = {
        "ideal": (si, si_points),
        "loss": (apply_loss(si, etas),
                 [apply_loss(mode, eta) for mode, eta in zip(si_points, etas)]),
        "gain": (apply_gain_noise(si, gains),
                 [apply_gain_noise(mode, g) for mode, g in zip(si_points, gains)]),
    }
    assert_same_moments(lo, lo_points)
    theta = np.array(thetas)
    for signal, signal_points in signals.values():
        assert_same_moments(signal, signal_points)
        assert is_physical(signal) == all(map(is_physical, signal_points))
        pair = TwoModeProduct(si=signal, lo=lo)
        pairs = [TwoModeProduct(si=s, lo=b) for s, b in zip(signal_points, lo_points)]
        assert_bits(homodyne_variance(pair, theta),
                    [homodyne_variance(p, t) for p, t in zip(pairs, thetas)])
        assert_bits(mean_photon(signal), [mean_photon(s) for s in signal_points])

        dark = [i for i, b in enumerate(lo_points) if mean_photon(b) <= 0]
        if dark:
            with pytest.raises(ColumnError, match=rf"^nb\[{dark[0]}\] ="):
                evaluate(pair, theta)
            continue
        values = evaluate(pair, theta)
        points = [evaluate(p, t) for p, t in zip(pairs, thetas)]
        for name, got in values._asdict().items():
            assert_bits(got, [getattr(v, name) for v in points])


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(envelope(n), st.integers(0, n - 1))),
       st.sampled_from(FIELDS), st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=80, deadline=None)
def test_one_non_finite_element_names_its_field(drawn, field, bad):
    fields, i = drawn
    fields[field][i] = value = complex(bad, 0.0) if field == "alpha" else bad
    with pytest.raises(ColumnError,
                       match=rf"^{field}\[{i}\] = {re.escape(repr(value))} is not finite$"):
        as_params(fields)


def test_negative_nbar_element_is_rejected():
    with pytest.raises(ColumnError, match=r"^nbar\[1\] = -1e-300 is not >= 0$"):
        StateParams(nbar=np.array([0.5, -1e-300, 0.0]))


def test_scalar_input_gives_scalars():
    mode = make_state(StateParams(zeta=0.3, nbar=0.2, phi=0.4, alpha=1 + 0.5j))
    assert type(mode.alpha) is complex
    assert all(np.ndim(value) == 0 for value in (*vars(mode).values(),
                                                 mode.a_sq, mode.n_a, mode.aa_dag))
    assert type(is_physical(mode)) is bool
    variance = homodyne_variance(TwoModeProduct(si=mode, lo=mode), 0.3)
    assert np.ndim(variance) == 0


def test_is_physical_needs_every_element():
    modes = apply_gain_noise(make_state(StateParams(zeta=np.array([0.1, 0.2]))), 1.0)
    assert is_physical(modes)
    with pytest.raises(ValueError, match="lo state violates"):
        TwoModeProduct(si=modes, lo=ModeMoments(delta_n=np.array([0.0, -0.3])))
