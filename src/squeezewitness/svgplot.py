"""A minimal SVG line-plot writer, on numpy arrays.

Just axes, polylines, tick labels, and a legend; every coordinate is
formatted with fixed precision so identical data produces identical bytes.
A ``-inf`` or any other y value below a fixed floor of -60 dB is clamped to
the floor before plotting (the data files keep them unclamped).  A y value
that is NaN or ``+inf``, or an x value that is not finite (after ``log10``
on a log axis, so also one that is not positive there), has no place on the
plot: it raises ``ValueError`` naming its series and index.  So does an
axis whose span overflows a float, or is 0 (a constant beyond 2**53).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot_svg", "DB_FLOOR"]

DB_FLOOR = -60.0

# What ``xml.sax.saxutils.escape`` does to text, without its import of
# ``urllib`` and ``http``, which every command that loads ``cli`` would pay.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 40, 55

PALETTE = (
    ("#000000", None),
    ("#888888", "6,4"),
    ("#3465a4", None),
    ("#cc0000", "2,3"),
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.6g}"


def _plotted(label, xs, ys, log_x: bool):
    """One series as float64 arrays of plot values: ``log10`` of each x on a
    log axis, and each y clamped to :data:`DB_FLOOR`."""
    raw_x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    x = raw_x
    if log_x:
        # math.log10, not numpy's SIMD log10, which may differ in the last bit.
        x = np.fromiter(map(math.log10, np.where(raw_x > 0.0, raw_x, np.nan).tolist()),
                        dtype=float, count=raw_x.size)
    for axis, values, bad in (("x", raw_x, ~np.isfinite(x)),
                              ("y", y, np.isnan(y) | (y == np.inf))):
        if bad.any():
            index = int(bad.argmax())
            raise ValueError(f"series {label!r}: {axis}[{index}] = "
                             f"{float(values[index])!r} cannot be plotted")
    return label, x, np.maximum(y, DB_FLOOR)


def line_plot_svg(series, title: str, x_label: str, y_label: str,
                  log_x: bool = False) -> str:
    """Render series of ``(label, xs, ys)`` to an SVG document string."""
    clamped = [_plotted(label, xs, ys, log_x) for label, xs, ys in series]

    all_x = np.concatenate([xs for _, xs, _ in clamped]).tolist()
    all_y = np.concatenate([ys for _, _, ys in clamped]).tolist()
    x_min, x_max = min(all_x), max(all_x)
    y_min, y_max = min(all_y), max(all_y)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad
    for axis, low, high in (("x", x_min, x_max), ("y", y_min, y_max)):
        if not 0.0 < high - low < math.inf:  # 0 where v + 1.0 == v, past 2**53
            raise ValueError(f"the {axis} axis from {low!r} to {high!r} has no width "
                             "that a float can hold")

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
        f'font-family="sans-serif" font-size="15">{title.translate(_XML_TEXT)}</text>',
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
        f'font-family="sans-serif" font-size="13">{x_label.translate(_XML_TEXT)}</text>')
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" transform="rotate(-90 18 '
        f'{MARGIN_TOP + plot_h // 2})">{y_label.translate(_XML_TEXT)}</text>')

    # Zero line if it is inside the range.
    if y_min < 0.0 < y_max:
        py = sy(0.0)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py)}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(py)}" stroke="#bbbbbb" stroke-width="1" stroke-dasharray="3,3"/>')

    # Data series.
    for index, (label, xs, ys) in enumerate(clamped):
        color, dash = PALETTE[index % len(PALETTE)]
        points = " ".join(map("%.2f,%.2f".__mod__, zip(sx(xs).tolist(), sy(ys).tolist())))
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
            f'font-size="12">{label.translate(_XML_TEXT)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
