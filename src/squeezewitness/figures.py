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

from dataclasses import dataclass

import numpy as np

from .channels import apply_gain_noise, apply_loss
from .gaussian import (
    StateParams,
    coherent,
    db_to_squeeze,
    make_state,
    mean_photon,
    squeezed_vacuum,
)
from .witness import TwoModeProduct, evaluate, homodyne_variance, witness_values

__all__ = ["FigureData", "FIGURE_IDS", "build_figure", "db_json_value", "format_value",
           "render_csv"]

FIGURE_IDS = ("fluctuations", "noise-sweep", "robustness")

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


def format_value(value) -> str:
    """Render one CSV cell; floats use shortest round-trip form."""
    if isinstance(value, str):
        return value
    value = float(value)
    if value == -np.inf:
        return "-inf"
    return repr(value)


def db_json_value(value: float):
    """A noise parameter for a JSON report: ``-inf`` becomes ``"-inf"``."""
    return "-inf" if value == -np.inf else value


def render_csv(figure: FigureData) -> str:
    lines = [",".join(figure.header)]
    lines.extend(",".join(format_value(cell) for cell in row) for row in figure.rows)
    return "\n".join(lines) + "\n"


def figure_fluctuations(points: int = 361) -> FigureData:
    """Ordered variances versus LO phase for a coherent signal."""
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
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
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    zeta_si = db_to_squeeze(SQUEEZING_DB)
    si = squeezed_vacuum(zeta_si)
    grid = [10.0 ** e for e in np.linspace(-2.0, 4.0, points)]
    dip_nb = float(np.sinh(zeta_si) ** 2)

    squeezed_nbs = sorted(set(grid) | {dip_nb})
    curves = {  # kind: (LO mean photon numbers, theta, LO states)
        "coherent": (grid, 0.0, [coherent(np.sqrt(nb)) for nb in grid]),
        "squeezed": (squeezed_nbs, np.pi / 2.0,
                     [squeezed_vacuum(float(np.arcsinh(np.sqrt(nb))))
                      for nb in squeezed_nbs]),
    }
    rows = []
    noise: dict[str, list[float]] = {}
    for kind, (nbs, theta, los) in curves.items():
        pairs = [TwoModeProduct(si=si, lo=lo) for lo in los]
        var = [homodyne_variance(pair, theta) for pair in pairs]
        noise[kind] = witness_values(
            var, [mean_photon(lo) for lo in los]).noise_db.tolist()
        rows.extend((kind, nb, theta, v, n) for nb, v, n in zip(nbs, var, noise[kind]))

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
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    zeta = db_to_squeeze(SQUEEZING_DB)
    si = squeezed_vacuum(zeta)
    lo = squeezed_vacuum(zeta)
    theta = np.pi / 2.0
    nb = mean_photon(lo)
    etas = np.linspace(0.0, 1.0, points).tolist()
    gains = np.linspace(1.0, 2.0, points).tolist()
    signals = ([si] + [apply_loss(si, eta) for eta in etas]
               + [apply_gain_noise(si, g) for g in gains])
    var = [homodyne_variance(TwoModeProduct(si=signal, lo=lo), theta) for signal in signals]
    partials = witness_values(var, nb).partial_no.tolist()
    ideal, lossy, noisy = partials[0], partials[1:points + 1], partials[points + 1:]
    rows = [("loss", eta, p, eta * ideal) for eta, p in zip(etas, lossy)]
    rows += [("gain", g, p, g * ideal + (g - 1.0) * (2.0 * nb + 1.0))
             for g, p in zip(gains, noisy)]

    summary = {
        "figure": "robustness",
        "points": points,
        "scenario": f"squeezed SI and LO ({SQUEEZING_DB} dB), theta = pi/2",
        "ideal_partial_no": ideal,
        "max_loss_law_deviation": max(
            abs(row[2] - row[3]) for row in rows if row[0] == "loss"),
        "max_gain_law_deviation": max(
            abs(row[2] - row[3]) for row in rows if row[0] == "gain"),
        "loss_creates_negativity": bool(any(
            row[2] < ideal - 1e-12 for row in rows if row[0] == "loss")),
    }
    return FigureData(
        name="robustness",
        header=("channel", "param", "partial_no", "predicted"),
        rows=rows,
        summary=summary,
        series=[("loss (vs eta)", etas, lossy), ("gain (vs g)", gains, noisy)],
        x_label="channel parameter",
        y_label="LO-agnostic variance",
    )


def build_figure(figure_id: str, points: int | None = None) -> FigureData:
    """Build one of the known figures; unknown ids raise ``KeyError``."""
    builders = {
        "fluctuations": figure_fluctuations,
        "noise-sweep": figure_noise_sweep,
        "robustness": figure_robustness,
    }
    if figure_id not in builders:
        raise KeyError(figure_id)
    if points is None:
        return builders[figure_id]()
    return builders[figure_id](points=points)
