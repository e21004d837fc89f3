"""Per-cell figure renderers, kept by the tests as the reference that the
column-at-a-time ``figures.render_csv`` and ``svgplot.line_plot_svg`` must
match byte for byte.

Run as a script, ``python tests/figure_reference.py POINTS OUT_DIR``, it
writes each built-in figure's CSV and SVG at ``POINTS`` grid points, named
as ``squeezewitness reproduce --svg`` names them.
"""

import math
import sys
from pathlib import Path

import numpy as np

from squeezewitness.figures import FIGURE_IDS, FigureData, build_figure
from squeezewitness.svgplot import (
    DB_FLOOR,
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    PALETTE,
    WIDTH,
)


def format_value(value) -> str:
    """Render one CSV cell; floats use shortest round-trip form."""
    if isinstance(value, str):
        return value
    value = float(value)
    if value == -np.inf:
        return "-inf"
    return repr(value)


def render_csv(figure: FigureData) -> str:
    lines = [",".join(figure.header)]
    lines.extend(",".join(format_value(cell) for cell in row) for row in figure.rows)
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.6g}"


def line_plot_svg(series, title: str, x_label: str, y_label: str,
                  log_x: bool = False) -> str:
    """Render series of ``(label, xs, ys)`` to an SVG document string."""
    clamped = []
    for label, xs, ys in series:
        ys = [max(float(y), DB_FLOOR) for y in ys]
        xs = [math.log10(x) for x in xs] if log_x else [float(x) for x in xs]
        clamped.append((label, xs, ys))

    all_x = [x for _, xs, _ in clamped for x in xs]
    all_y = [y for _, _, ys in clamped for y in ys]
    x_min, x_max = min(all_x), max(all_x)
    y_min, y_max = min(all_y), max(all_y)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    # Axes box.
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>')

    # Ticks: 5 per axis.
    for k in range(5):
        xv = x_min + k * (x_max - x_min) / 4.0
        px = sx(xv)
        label = _tick_label(10.0 ** xv) if log_x else _tick_label(xv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_BOTTOM}" '
            f'x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#000000"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_BOTTOM + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{label}</text>')
        yv = y_min + k * (y_max - y_min) / 4.0
        py = sy(yv)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(py)}" '
            f'x2="{MARGIN_LEFT}" y2="{_fmt(py)}" stroke="#000000"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(yv)}</text>')

    # Axis labels.
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>')
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">{y_label}</text>')

    # Zero line if it is inside the range.
    if y_min < 0.0 < y_max:
        py = sy(0.0)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py)}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(py)}" stroke="#bbbbbb" stroke-width="1" stroke-dasharray="3,3"/>')

    # Data series.
    for index, (label, xs, ys) in enumerate(clamped):
        color, dash = PALETTE[index % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} '
            f'points="{points}"/>')

    # Legend, top right inside the plot area.
    for index, (label, _, _) in enumerate(clamped):
        color, dash = PALETTE[index % len(PALETTE)]
        ly = MARGIN_TOP + 16 + 18 * index
        lx = MARGIN_LEFT + plot_w - 150
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>')
        parts.append(
            f'<text x="{lx + 32}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def figure_svg(figure) -> str:
    """``line_plot_svg`` of a figure, with the arguments ``reproduce`` passes."""
    return line_plot_svg(figure.series, title=figure.name, x_label=figure.x_label,
                         y_label=figure.y_label, log_x=figure.log_x)


def main(points: str, out: str) -> None:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for figure_id in FIGURE_IDS:
        figure = build_figure(figure_id, points=int(points))
        stem = figure.name.replace("-", "_")
        (out_dir / f"{stem}.csv").write_bytes(render_csv(figure).encode("utf-8"))
        (out_dir / f"{stem}.svg").write_bytes(figure_svg(figure).encode("utf-8"))


if __name__ == "__main__":
    main(*sys.argv[1:])
