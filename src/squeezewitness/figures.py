"""Deterministic data generation for the built-in demonstration figures.

Three scenarios are provided:

* ``fluctuations`` -- a classical (coherent) signal probed with a squeezed
  LO.  The conventional fully ordered variance dips negative (a false
  positive caused by the LO), while the LO-agnostic variance stays
  nonnegative for every phase.
* ``noise-sweep`` -- noise suppression for a squeezed signal as a function
  of LO intensity, for a coherent and for a squeezed LO.  The coherent LO
  approaches the signal's squeezing level only asymptotically; the
  squeezed LO reaches a perfect null at finite intensity.
* ``robustness`` -- the witness under signal loss and excess noise: pure
  rescaling through the origin, and an affine positive offset,
  respectively.  Negativity is never created by either channel.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .channels import apply_gain_noise, apply_loss
from .gaussian import coherent, db_to_squeeze, mean_photon, squeezed_vacuum
from .witness import TwoModeProduct, evaluate

__all__ = ["FigureData", "FIGURE_IDS", "build_figure", "db_json_value", "render_csv"]

SQUEEZING_DB = 3.0


@dataclass(frozen=True)
class FigureData:
    """Tabular figure payload plus plot metadata."""

    name: str
    header: tuple[str, ...]
    rows: list[tuple]
    summary: dict
    series: list[tuple[str, list[float], list[float]]]
    x_label: str
    y_label: str
    log_x: bool = False


def db_json_value(value: float):
    """A noise parameter for a JSON report: ``-inf`` becomes ``"-inf"``."""
    return "-inf" if value == -np.inf else value


def _csv_column(column: tuple) -> Iterable[str]:
    return column if isinstance(column[0], str) else map(repr, map(float, column))


def render_csv(figure: FigureData) -> str:
    """The figure's header and rows as CSV text, a column at a time.

    A column whose first cell is a ``str`` is text and is written as it is;
    every other cell is written as ``repr(float(cell))``, the shortest form
    that round-trips, so ``-inf`` is ``-inf``.
    """
    rows = map(",".join, zip(*map(_csv_column, zip(*figure.rows))))
    return "\n".join(itertools.chain([",".join(figure.header)], rows)) + "\n"


def figure_fluctuations(points: int = 361) -> FigureData:
    """Ordered variances versus LO phase for a coherent signal."""
    zeta_lo = db_to_squeeze(SQUEEZING_DB)
    pair = TwoModeProduct(si=coherent(1.0), lo=squeezed_vacuum(zeta_lo))
    grid = 2.0 * np.pi * np.arange(points) / points
    values = evaluate(pair, grid)
    thetas, partials, fulls = grid.tolist(), values.partial_no.tolist(), values.full_no.tolist()
    rows = list(zip(thetas, partials, fulls))
    summary = {
        "figure": "fluctuations",
        "points": points,
        "si": "coherent, mean photon 1",
        "lo": f"squeezed vacuum, {SQUEEZING_DB} dB",
        "min_partial_no": min(partials),
        "min_full_no": min(fulls),
        "theta_at_min_full_no": thetas[int(np.argmin(fulls))],
        "full_no_negative_fraction": int(np.count_nonzero(values.full_no < 0)) / points,
    }
    return FigureData(
        name="fluctuations",
        header=("theta_rad", "partial_no", "full_no"),
        rows=rows,
        summary=summary,
        series=[("partial_no", thetas, partials), ("full_no", thetas, fulls)],
        x_label="theta (rad)",
        y_label="ordered variance",
    )


def figure_noise_sweep(points: int = 61) -> FigureData:
    """Noise parameter versus LO intensity for coherent and squeezed LOs."""
    zeta_si = db_to_squeeze(SQUEEZING_DB)
    si = squeezed_vacuum(zeta_si)
    grid = [10.0 ** e for e in np.linspace(-2.0, 4.0, points)]
    dip_nb = float(np.sinh(zeta_si) ** 2)

    squeezed_nbs = sorted(set(grid) | {dip_nb})
    curves = {  # kind: (LO mean photon numbers, theta, one LO per element)
        "coherent": (grid, 0.0, coherent(np.sqrt(grid))),
        "squeezed": (squeezed_nbs, np.pi / 2.0,
                     squeezed_vacuum(np.arcsinh(np.sqrt(squeezed_nbs)))),
    }
    rows = []
    noise: dict[str, list[float]] = {}
    for kind, (nbs, theta, los) in curves.items():
        values = evaluate(TwoModeProduct(si=si, lo=los), theta)
        noise[kind] = values.noise_db.tolist()
        rows.extend((kind, nb, theta, v, n)
                    for nb, v, n in zip(nbs, values.var_L.tolist(), noise[kind]))

    summary = {
        "figure": "noise-sweep",
        "points": points,
        "si": f"squeezed vacuum, {SQUEEZING_DB} dB",
        "coherent_lo": {
            "noise_db_first": noise["coherent"][0],
            "noise_db_last": noise["coherent"][-1],
            "min_noise_db": db_json_value(min(noise["coherent"])),
        },
        "squeezed_lo": {
            "dip_nb": dip_nb,
            "min_noise_db": db_json_value(min(noise["squeezed"])),
        },
    }
    return FigureData(
        name="noise-sweep",
        header=("lo_kind", "nb", "theta_rad", "var_L", "noise_db"),
        rows=rows,
        summary=summary,
        series=[(f"{kind} LO", nbs, noise[kind])
                for kind, (nbs, _, _) in curves.items()],
        x_label="LO mean photon number",
        y_label="noise parameter (dB)",
        log_x=True,
    )


def figure_robustness(points: int = 21) -> FigureData:
    """Witness value under signal loss and under amplifier excess noise."""
    zeta = db_to_squeeze(SQUEEZING_DB)
    si = squeezed_vacuum(zeta)
    lo = squeezed_vacuum(zeta)
    theta = np.pi / 2.0
    nb = mean_photon(lo)
    etas = np.linspace(0.0, 1.0, points)
    gains = np.linspace(1.0, 2.0, points)
    ideal, lossy, noisy = (evaluate(TwoModeProduct(si=signal, lo=lo), theta).partial_no
                           for signal in (si, apply_loss(si, etas), apply_gain_noise(si, gains)))
    ideal = float(ideal)
    laws = {  # channel: (parameter, partial_no, the law's prediction)
        "loss": (etas, lossy, etas * ideal),
        "gain": (gains, noisy, gains * ideal + (gains - 1.0) * (2.0 * nb + 1.0)),
    }
    rows = [row for channel, columns in laws.items()
            for row in zip(itertools.repeat(channel), *(c.tolist() for c in columns))]

    summary = {
        "figure": "robustness",
        "points": points,
        "scenario": f"squeezed SI and LO ({SQUEEZING_DB} dB), theta = pi/2",
        "ideal_partial_no": ideal,
        "max_loss_law_deviation": float(np.max(np.abs(lossy - laws["loss"][2]))),
        "max_gain_law_deviation": float(np.max(np.abs(noisy - laws["gain"][2]))),
        "loss_creates_negativity": bool(np.any(lossy < ideal - 1e-12)),
    }
    return FigureData(
        name="robustness",
        header=("channel", "param", "partial_no", "predicted"),
        rows=rows,
        summary=summary,
        series=[("loss (vs eta)", etas.tolist(), lossy.tolist()),
                ("gain (vs g)", gains.tolist(), noisy.tolist())],
        x_label="channel parameter",
        y_label="LO-agnostic variance",
    )


_BUILDERS = {"fluctuations": figure_fluctuations, "noise-sweep": figure_noise_sweep,
             "robustness": figure_robustness}
FIGURE_IDS = tuple(_BUILDERS)


def build_figure(figure_id: str, points: int | None = None) -> FigureData:
    """Build one of the :data:`FIGURE_IDS` figures; unknown ids raise
    ``KeyError``, and ``points`` that are not an integer, or fewer than 2,
    raise ``ValueError``."""
    build = _BUILDERS[figure_id]
    if points is None:
        return build()
    try:
        count = operator.index(points)
    except TypeError:
        raise ValueError(f"points must be an integer, got {points!r}") from None
    if count < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    return build(points=count)
