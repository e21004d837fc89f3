"""The column-at-a-time figure renderers against the per-cell reference."""

import re
from xml.etree import ElementTree

import numpy as np
import pytest
from figure_reference import figure_svg
from figure_reference import line_plot_svg as reference_svg
from figure_reference import render_csv as reference_csv
from hypothesis import given, settings, strategies as st

from squeezewitness.cli import cmd_reproduce
from squeezewitness.figures import FIGURE_IDS, FigureData, build_figure, render_csv
from squeezewitness.svgplot import DB_FLOOR, line_plot_svg

# Finite values whose span, and the y axis's 5 % pad, stay finite, and whose
# log-axis ticks 10 ** x do not overflow.
WIDE = st.floats(-1e300, 1e300)
SPECIAL = st.sampled_from([0.0, -0.0, DB_FLOOR, np.nextafter(DB_FLOOR, -np.inf), -1e3])
Y = WIDE | SPECIAL | st.just(-np.inf)
POSITIVE = st.floats(5e-324, 1e300)
SVG_NS = "http://www.w3.org/2000/svg"
TEXT = st.text("abcxyz -_", min_size=1, max_size=8)


@st.composite
def series(draw, log_x):
    """One ``(label, xs, ys)``, its x or y at times constant, each value at
    times a ``np.float64``."""
    n = draw(st.integers(1, 12))
    x = POSITIVE if log_x else WIDE | SPECIAL
    xs = draw(st.lists(x, min_size=n, max_size=n) | x.map(lambda v: [v] * n))
    ys = draw(st.lists(Y, min_size=n, max_size=n) | Y.map(lambda v: [v] * n))
    box = draw(st.sampled_from([float, np.float64]))
    return draw(TEXT), [box(v) for v in xs], [box(v) for v in ys]


@st.composite
def plots(draw):
    log_x = draw(st.booleans())
    return draw(st.lists(series(log_x), min_size=1, max_size=5)), log_x


@st.composite
def figures(draw):
    """A figure of text and numeric columns; numeric cells of any float, as
    ``float`` or ``np.float64``."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    cell = {True: TEXT, False: st.floats().map(float) | st.floats().map(np.float64)}
    rows = draw(st.lists(st.tuples(*(cell[text] for text in kinds)), max_size=12))
    header = tuple(f"c{i}" for i in range(len(kinds)))
    return FigureData(name="f", header=header, rows=rows, summary={}, series=[],
                      x_label="x", y_label="y")


@settings(max_examples=300, deadline=None)
@given(figures())
def test_csv_matches_the_per_cell_reference(figure):
    assert render_csv(figure) == reference_csv(figure)


@settings(max_examples=300, deadline=None)
@given(plots())
def test_svg_matches_the_per_cell_reference(plot):
    data, log_x = plot
    try:
        expected = reference_svg(data, "t", "x", "y", log_x=log_x)
    except ZeroDivisionError:  # a constant axis beyond 2**53, where v + 1.0 == v
        with pytest.raises(ValueError, match="no width"):
            line_plot_svg(data, "t", "x", "y", log_x=log_x)
    else:
        assert line_plot_svg(data, "t", "x", "y", log_x=log_x) == expected


@pytest.mark.parametrize("points", [2, 3, 4031])
@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_reproduce_matches_the_reference(tmp_path, figure_id, points):
    csv, _, svg = cmd_reproduce(figure_id, str(tmp_path), svg=True, points=points)
    figure = build_figure(figure_id, points=points)
    assert csv.read_bytes() == reference_csv(figure).encode("utf-8")
    assert svg.read_bytes() == figure_svg(figure).encode("utf-8")


@pytest.mark.parametrize("xs, ys, log_x, message", [
    ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0], False, r"'s': y\[1\] = nan "),
    ([0.0, 1.0, 2.0], [0.0, np.inf, 1.0], False, r"'s': y\[1\] = inf "),
    ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], False, r"'s': x\[1\] = nan "),
    ([0.0, 1.0, -np.inf], [0.0, 1.0, 2.0], False, r"'s': x\[2\] = -inf "),
    ([1.0, np.inf, 2.0], [0.0, 1.0, 2.0], True, r"'s': x\[1\] = inf "),
    ([1.0, 10.0, 0.0], [0.0, 1.0, 2.0], True, r"'s': x\[2\] = 0.0 "),
    ([-1.0, 10.0, 2.0], [0.0, 1.0, 2.0], True, r"'s': x\[0\] = -1.0 "),
])
def test_a_value_off_the_plot_names_its_series_and_index(xs, ys, log_x, message):
    data = [("ok", [1.0, 2.0], [0.0, 1.0]), ("s", xs, ys)]
    with pytest.raises(ValueError, match=message):
        line_plot_svg(data, "t", "x", "y", log_x=log_x)


@pytest.mark.parametrize("xs, ys, axis", [
    ([-1e308, 1e308], [0.0, 1.0], "x"),
    ([0.0, 1.0], [-1.7e308, 1.7e308], "y"),
    ([2.0 ** 53] * 2, [0.0, 1.0], "x"),
    ([0.0, 1.0], [2.0 ** 60] * 2, "y"),
])
def test_an_axis_without_a_float_width_is_refused(xs, ys, axis):
    with pytest.raises(ValueError, match=f"the {axis} axis .* no width"):
        line_plot_svg([("s", xs, ys)], "t", "x", "y")


def test_minus_infinity_clamps_to_the_floor():
    def svg(y):
        return line_plot_svg([("s", [0.0, 1.0, 2.0], [0.0, y, 1.0])], "t", "x", "y")

    assert svg(-np.inf) == svg(DB_FLOOR) == svg(-1e3)


def test_markup_characters_in_text_are_escaped():
    title, x_label, y_label, first, second = "a<b & c", "x > 0 & y", "y<0", "s<1>", "t & u"
    svg = line_plot_svg([(first, [0.0, 1.0], [0.0, 1.0]), (second, [0.0, 1.0], [1.0, 0.0])],
                        title, x_label, y_label)
    texts = [node.text for node in ElementTree.fromstring(svg).iter(f"{{{SVG_NS}}}text")]
    # The title comes first, then the tick labels, the axis labels and the legend.
    assert texts[0] == title
    assert texts[-4:] == [x_label, y_label, first, second]


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
@pytest.mark.parametrize("points", [2.5, 11.0, "11"])
def test_points_that_are_not_an_integer_are_refused(figure_id, points):
    with pytest.raises(ValueError, match=re.escape(f"points must be an integer, got {points!r}")):
        build_figure(figure_id, points=points)


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_numpy_integer_points_build_the_same_figure(figure_id):
    figure = build_figure(figure_id, points=np.int64(11))
    assert figure == build_figure(figure_id, points=11)
    assert type(figure.summary["points"]) is int
