"""Command-line surface: figure reproduction, measured-data witnessing,
and oracle validation.

Commands
--------
``reproduce --figure <id> --out <dir> [--svg] [--points N]``
    Write the CSV data, a JSON summary, and optionally an SVG plot for one
    of the built-in figures (``fluctuations``, ``noise-sweep``,
    ``robustness``).
``witness --input <csv> [--tol T] --out <json>``
    Evaluate measured moment records.  The CSV schema is
    ``theta_rad,var_L,nb[,na]`` with a header row; ``nb`` is the
    blocked-signal (vacuum) calibration of the difference variance.
``validate [--trials N] [--seed S] [--cutoff-max C] [--out <json>]``
    Run the randomized property suites; exit status 1 if any fails.

Exit codes: 0 success, 1 validation failure, 2 input error.  All outputs
are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .figures import FIGURE_IDS, build_figure, render_csv
from .svgplot import DEFAULT_DB_FLOOR, line_plot_svg
from .validate import run_all_suites
from .witness import DEFAULT_VERDICT_TOL, CLASSICAL, NONCLASSICAL

__all__ = ["MomentRecord", "RunConfig", "InputError", "main",
           "cmd_reproduce", "cmd_witness", "cmd_validate"]

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_INPUT_ERROR = 2

WITNESS_COLUMNS = ("theta_rad", "var_L", "nb", "na")


class InputError(Exception):
    """Bad user input (malformed CSV, unknown figure, unwritable path)."""


@dataclass(frozen=True)
class MomentRecord:
    """One measured row: LO phase, difference variance, calibrations."""

    theta_rad: float
    var_L: float
    nb: float
    na: float | None = None

    def __post_init__(self):
        if self.var_L < 0:
            raise ValueError(f"var_L must be >= 0, got {self.var_L}")
        if self.nb <= 0:
            raise ValueError(f"nb must be > 0, got {self.nb}")
        if self.na is not None and self.na < 0:
            raise ValueError(f"na must be >= 0, got {self.na}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved command parameters."""

    figure: str = ""
    out: str = ""
    svg: bool = False
    points: int | None = None
    input_path: str = ""
    tol: float = DEFAULT_VERDICT_TOL
    seed: int = 42
    trials: int = 200
    cutoff_max: int = 256
    db_floor: float = DEFAULT_DB_FLOOR

    def __post_init__(self):
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.cutoff_max < 2:
            raise ValueError(f"cutoff_max must be >= 2, got {self.cutoff_max}")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def cmd_reproduce(config: RunConfig) -> list[Path]:
    """Generate one figure's CSV, JSON summary, and optional SVG."""
    try:
        figure = build_figure(config.figure, points=config.points)
    except KeyError:
        raise InputError(
            f"unknown figure {config.figure!r}; choose from {', '.join(FIGURE_IDS)}"
        ) from None
    out_dir = Path(config.out)
    stem = figure.name.replace("-", "_")
    written = []

    csv_path = out_dir / f"{stem}.csv"
    _write_text(csv_path, render_csv(figure))
    written.append(csv_path)

    summary_path = out_dir / f"{stem}_summary.json"
    _write_text(summary_path, _dump_json(figure.summary))
    written.append(summary_path)

    if config.svg:
        svg_path = out_dir / f"{stem}.svg"
        _write_text(svg_path, line_plot_svg(
            figure.series, title=figure.name, x_label=figure.x_label,
            y_label=figure.y_label, log_x=figure.log_x, floor=config.db_floor))
        written.append(svg_path)
    return written


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def read_moment_records(path: str) -> tuple[list[MomentRecord], list[str]]:
    """Parse a measured-moments CSV; returns records and warnings.

    Errors carry the 1-based line number of the offending row.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [cell.strip() for cell in lines[0].split(",")]
    for required in ("theta_rad", "var_L", "nb"):
        if required not in header:
            raise InputError(f"{path}: missing required column {required!r}")
    warnings = []
    extras = [name for name in header if name not in WITNESS_COLUMNS]
    if extras:
        warnings.append(f"ignoring extra columns: {', '.join(extras)}")
    index = {name: header.index(name) for name in WITNESS_COLUMNS if name in header}

    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise InputError(
                f"line {line_no}: expected {len(header)} cells, got {len(cells)}")

        def cell(name: str) -> str:
            return cells[index[name]].strip()

        try:
            na = float(cell("na")) if "na" in index and cell("na") != "" else None
            record = MomentRecord(
                theta_rad=float(cell("theta_rad")),
                var_L=float(cell("var_L")),
                nb=float(cell("nb")),
                na=na,
            )
        except ValueError as exc:
            raise InputError(f"line {line_no}: {exc}") from exc
        records.append(record)
    return records, warnings


def _witness_row(record: MomentRecord, tol: float) -> dict:
    partial = record.var_L - record.nb
    if record.var_L <= 1e-15:
        noise_db = "-inf"
    else:
        noise_db = 10.0 * math.log10(record.var_L / record.nb)
    row = {
        "theta_rad": record.theta_rad,
        "var_L": record.var_L,
        "nb": record.nb,
        "partial_no": partial,
        "noise_db": noise_db,
        "verdict": NONCLASSICAL if partial < -tol else CLASSICAL,
    }
    if record.na is not None:
        full = partial - record.na
        row["na"] = record.na
        row["full_no"] = full
        row["standard_negativity"] = bool(full < -tol)
    return row


def cmd_witness(config: RunConfig) -> dict:
    """Evaluate measured moment records and write the JSON report."""
    records, warnings = read_moment_records(config.input_path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    rows = [_witness_row(record, config.tol) for record in records]
    counts = {NONCLASSICAL: 0, CLASSICAL: 0}
    for row in rows:
        counts[row["verdict"]] += 1
    report = {
        "tol": config.tol,
        "rows": rows,
        "summary": {
            "n_rows": len(rows),
            "nonclassical_SI": counts[NONCLASSICAL],
            "classical_consistent": counts[CLASSICAL],
        },
    }
    _write_text(Path(config.out), _dump_json(report))
    return report


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(config: RunConfig) -> tuple[dict, int]:
    """Run the property suites; returns the report and the exit code."""
    if config.trials < 0:
        raise InputError(f"trials must be >= 0, got {config.trials}")
    if config.trials == 0:
        print("warning: zero trials requested; suites pass vacuously",
              file=sys.stderr)
    results = run_all_suites(trials=config.trials, seed=config.seed,
                             cutoff_max=config.cutoff_max)
    report = {
        "config": {
            "trials": config.trials,
            "seed": config.seed,
            "cutoff_max": config.cutoff_max,
        },
        "suites": [result.to_json_dict() for result in results],
        "all_passed": all(result.passed for result in results),
    }
    text = _dump_json(report)
    if config.out:
        _write_text(Path(config.out), text)
    else:
        sys.stdout.write(text)
    return report, EXIT_OK if report["all_passed"] else EXIT_VALIDATION_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezewitness",
        description="LO-agnostic squeezing witnesses for two-mode bosonic states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="generate a built-in figure's data")
    rep.add_argument("--figure", required=True, help=f"one of {', '.join(FIGURE_IDS)}")
    rep.add_argument("--out", required=True, help="output directory")
    rep.add_argument("--svg", action="store_true", help="also write an SVG plot")
    rep.add_argument("--points", type=int, default=None, help="grid size override")

    wit = sub.add_parser("witness", help="evaluate measured moment records")
    wit.add_argument("--input", required=True, help="CSV of theta_rad,var_L,nb[,na]")
    wit.add_argument("--tol", type=float, default=DEFAULT_VERDICT_TOL,
                     help="verdict tolerance (default 1e-9)")
    wit.add_argument("--out", required=True, help="JSON report path")

    val = sub.add_parser("validate", help="run the oracle property suites")
    val.add_argument("--trials", type=int, default=200)
    val.add_argument("--seed", type=int, default=42)
    val.add_argument("--cutoff-max", type=int, default=256)
    val.add_argument("--out", default="", help="JSON report path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            config = RunConfig(figure=args.figure, out=args.out, svg=args.svg,
                               points=args.points)
            for path in cmd_reproduce(config):
                print(path)
            return EXIT_OK
        if args.command == "witness":
            config = RunConfig(input_path=args.input, tol=args.tol, out=args.out)
            cmd_witness(config)
            print(args.out)
            return EXIT_OK
        config = RunConfig(trials=args.trials, seed=args.seed,
                           cutoff_max=args.cutoff_max, out=args.out)
        _, code = cmd_validate(config)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
