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
    blocked-signal (vacuum) calibration of the difference variance.  The
    first bad line of the file, malformed or out of range, is an error
    naming that line; a repeated schema column is an error before any row
    is read.  The report is written row by row, and ``cmd_witness``
    returns only its ``tol`` and ``summary``.
``validate [--trials N] [--seed S] [--cutoff-max C] [--out <json>]``
    Run the randomized property suites; exit status 1 if any fails.

Exit codes: 0 success, 1 validation failure, 2 input error.  All outputs
are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .figures import FIGURE_IDS, build_figure, render_csv
from .svgplot import line_plot_svg
from .witness import CLASSICAL, DEFAULT_VERDICT_TOL, NONCLASSICAL, witness_values

__all__ = ["InputError", "main", "read_moment_records",
           "cmd_reproduce", "cmd_witness", "cmd_validate"]

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_INPUT_ERROR = 2

# The witness schema in column order.  Every given cell must be finite; the
# comparison against 0 and its rule text state the range each column needs.
# Only ``na`` may be left empty.  Where ``na`` is given, ``full_no = var_L -
# nb - na`` must be finite too: three finite cells can overflow it.
CELL_RULES = (
    ("theta_rad", None, ""),
    ("var_L", operator.ge, "is not >= 0"),
    ("nb", operator.gt, "is not > 0: the shot-noise reference is undefined"),
    ("na", operator.ge, "is not >= 0"),
)
WITNESS_COLUMNS = tuple(column for column, _, _ in CELL_RULES)
# One measured row: its cells, and whether the optional ``na`` cell was
# given (``na`` is NaN where it was left empty).
RECORD_DTYPE = np.dtype([("theta_rad", float), ("var_L", float), ("nb", float),
                         ("na", float), ("has_na", bool)])
# One witness report row as ``_dump_json`` lays it out (indent 2, keys
# sorted), without and with the ``na`` columns.  The first field is the comma
# after the previous row; ``%r`` of a float is ``float.__repr__``, which is
# how ``json`` writes floats.
_ROW = ('%s\n    {\n      "nb": %r,\n      "noise_db": %s,\n      "partial_no": %r,'
        '\n      "theta_rad": %r,\n      "var_L": %r,\n      "verdict": %s\n    }')
_ROW_NA = ('%s\n    {\n      "full_no": %r,\n      "na": %r,\n      "nb": %r,'
           '\n      "noise_db": %s,\n      "partial_no": %r,'
           '\n      "standard_negativity": %s,\n      "theta_rad": %r,'
           '\n      "var_L": %r,\n      "verdict": %s\n    }')
_JSON_BOOL = ("false", "true")
_JSON_VERDICT = (json.dumps(CLASSICAL), json.dumps(NONCLASSICAL))


class InputError(Exception):
    """Bad user input (malformed CSV, unknown figure, unwritable path)."""


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path: Path, chunks) -> None:
    """Write the strings of ``chunks``, in order, as one UTF-8 file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def cmd_reproduce(figure_id: str, out: str, svg: bool = False,
                  points: int | None = None) -> list[Path]:
    """Generate one figure's CSV, JSON summary, and optional SVG."""
    try:
        figure = build_figure(figure_id, points=points)
    except KeyError:
        raise InputError(
            f"unknown figure {figure_id!r}; choose from {', '.join(FIGURE_IDS)}"
        ) from None
    out_dir = Path(out)
    stem = figure.name.replace("-", "_")
    written = []

    csv_path = out_dir / f"{stem}.csv"
    _write_text(csv_path, [render_csv(figure)])
    written.append(csv_path)

    summary_path = out_dir / f"{stem}_summary.json"
    _write_text(summary_path, [_dump_json(figure.summary)])
    written.append(summary_path)

    if svg:
        svg_path = out_dir / f"{stem}.svg"
        _write_text(svg_path, [line_plot_svg(
            figure.series, title=figure.name, x_label=figure.x_label,
            y_label=figure.y_label, log_x=figure.log_x)])
        written.append(svg_path)
    return written


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def read_moment_records(path: str) -> tuple[np.ndarray, list[str]]:
    """Parse and check a measured-moments CSV; returns the rows and warnings.

    The rows form a structured array of :data:`RECORD_DTYPE`, one element
    per data row, so ``records["var_L"]`` is a column.  Every cell is checked
    by :data:`CELL_RULES`.  A file that breaks no rule is parsed a column at
    a time; any other file is parsed again line by line, so that the first
    bad line of the file, malformed or out of range, is the error, and it
    carries that line's 1-based number.  A schema column named twice in the
    header is an error, since which of its cells is meant cannot be known; a
    repeated extra column is only ignored.  A UTF-8 byte-order mark is
    accepted.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [cell.strip() for cell in lines[0].split(",")]
    for column in WITNESS_COLUMNS:
        count = header.count(column)
        if count > 1:
            raise InputError(f"{path}: column {column!r} appears {count} times")
        if not count and column != "na":
            raise InputError(f"{path}: missing required column {column!r}")
    warnings = []
    extras = [name for name in header if name not in WITNESS_COLUMNS]
    if extras:
        warnings.append(f"ignoring extra columns: {', '.join(extras)}")
    at = tuple(header.index(name) if name in header else None
               for name in WITNESS_COLUMNS)
    records = _read_columns(lines[1:], len(header), at)
    if records is None:
        records = _read_lines(lines[1:], len(header), at)
    return records, warnings


def _read_columns(lines: list[str], width: int, at: tuple) -> np.ndarray | None:
    """The records of ``lines``, parsed a column at a time, or None if any
    line breaks a rule; :func:`_read_lines` then names the first such line.

    ``at`` holds each schema column's index in a line, None for a missing
    ``na``.  Blank lines are skipped, as :func:`_read_lines` skips them.
    """
    lines = list(filter(str.strip, lines))
    n = len(lines)
    records = np.empty(n, dtype=RECORD_DTYPE)
    if not n:
        return records
    if set(map(operator.methodcaller("count", ","), lines)) != {width - 1}:
        return None
    cells = ",".join(lines).split(",")
    theta_at, var_L_at, nb_at, na_at = at
    has_na, na = records["has_na"], records["na"]
    try:
        for column, k in (("theta_rad", theta_at), ("var_L", var_L_at), ("nb", nb_at)):
            records[column] = np.fromiter(map(float, cells[k::width]), float, n)
        na_cells = list(map(str.strip, cells[na_at::width])) if na_at is not None else []
        has_na[:] = np.fromiter(map(bool, na_cells), bool, n) if na_cells else False
        na[:] = np.nan
        na[has_na] = np.fromiter(map(float, filter(None, na_cells)), float)
    except ValueError:
        return None
    valid = np.ones(n, dtype=bool)
    for column, in_range, _ in CELL_RULES:
        ok = np.isfinite(records[column])
        if in_range is not None:
            ok &= in_range(records[column], 0.0)
        if column == "na":  # the rule holds where the cell was given
            ok |= ~has_na
        valid &= ok
    with np.errstate(over="ignore", invalid="ignore"):
        valid &= ~has_na | np.isfinite(records["var_L"] - records["nb"] - na)
    return records if valid.all() else None


def _read_lines(lines: list[str], width: int, at: tuple) -> np.ndarray:
    """The records of ``lines``, parsed and checked one line at a time; the
    first bad line raises :class:`InputError` with its 1-based file line
    number (the header is line 1)."""
    theta_at, var_L_at, nb_at, na_at = at
    records = []
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise InputError(
                f"line {line_no}: expected {width} cells, got {len(cells)}")
        na = cells[na_at].strip() if na_at is not None else ""
        try:
            row = [float(cells[theta_at]), float(cells[var_L_at]), float(cells[nb_at])]
            if na:
                row.append(float(na))
        except ValueError as exc:
            raise InputError(f"line {line_no}: {exc}") from exc
        # zip stops before the rule for an empty na cell.
        for value, (column, in_range, rule) in zip(row, CELL_RULES):
            if not math.isfinite(value):
                raise InputError(f"line {line_no}: {column} = {value!r} is not finite")
            if in_range is not None and not in_range(value, 0.0):
                raise InputError(f"line {line_no}: {column} = {value!r} {rule}")
        if na and not math.isfinite(full_no := row[1] - row[2] - row[3]):
            raise InputError(
                f"line {line_no}: full_no = var_L - nb - na = {full_no!r} is not finite")
        records.append((*row, True) if na else (*row, np.nan, False))
    return np.array(records, dtype=RECORD_DTYPE)


def _report_chunks(columns, tail: dict):
    """Yield the witness report in ``_dump_json``'s layout: the ``rows``
    frame with one chunk per row of ``columns``, then ``tail``."""
    yield '{\n  "rows": ['
    separator = ""
    for t, v, b, p, n, nonclassical, given, a, f, negative in zip(
            *(column.tolist() for column in columns)):
        noise_db = '"-inf"' if n == -math.inf else repr(n)
        if given:
            yield _ROW_NA % (separator, f, a, b, noise_db, p, _JSON_BOOL[negative],
                             t, v, _JSON_VERDICT[nonclassical])
        else:
            yield _ROW % (separator, b, noise_db, p, t, v, _JSON_VERDICT[nonclassical])
        separator = ","
    yield "\n  ],\n" if separator else "],\n"
    yield _dump_json(tail)[2:]  # the rest of the object, after its "{\n"


def cmd_witness(input_path: str, out: str, tol: float = DEFAULT_VERDICT_TOL) -> dict:
    """Evaluate measured moment records and write the JSON report.

    Every input check runs before the report file is opened; the report is
    then written row by row, never held whole.  Returns the report's
    ``tol`` and ``summary``, without its rows.
    """
    records, warnings = read_moment_records(input_path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    theta, var_L, nb, na, has_na = (
        records[name] for name in ("theta_rad", "var_L", "nb", "na", "has_na"))
    # An empty na cell becomes 0 so that only given cells meet the kernel.
    values = witness_values(var_L, nb, np.where(has_na, na, 0.0), tol)
    # The kernel keeps partial_no and full_no finite and the reader's rules
    # leave no other non-finite value; this check keeps the report strict
    # JSON even so, as allow_nan=False does in _dump_json.
    noise_db = values.noise_db
    for column, cells in (("theta_rad", theta), ("var_L", var_L), ("nb", nb),
                          ("noise_db", noise_db[noise_db != -np.inf]),
                          ("na", na[has_na])):
        if not np.isfinite(cells).all():
            raise ValueError(f"{column} holds a value that JSON cannot represent")
    n_nonclassical = int(values.nonclassical.sum())
    tail = {
        "summary": {
            "n_rows": len(records),
            "nonclassical_SI": n_nonclassical,
            "classical_consistent": len(records) - n_nonclassical,
        },
        "tol": tol,
    }
    columns = (theta, var_L, nb, values.partial_no, noise_db, values.nonclassical,
               has_na, na, values.full_no, values.standard_negativity)
    _write_text(Path(out), _report_chunks(columns, tail))
    return tail


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(trials: int, seed: int, cutoff_max: int,
                 out: str = "") -> tuple[dict, int]:
    """Run the property suites; returns the report and the exit code."""
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if cutoff_max < 2:
        raise InputError(f"cutoff_max must be >= 2, got {cutoff_max}")
    if trials == 0:
        print("warning: zero trials requested; suites pass vacuously",
              file=sys.stderr)
    from .validate import run_all_suites  # the oracle: only this command needs it

    results = run_all_suites(trials=trials, seed=seed, cutoff_max=cutoff_max)
    report = {
        "config": {"trials": trials, "seed": seed, "cutoff_max": cutoff_max},
        "suites": [result.to_json_dict() for result in results],
        "all_passed": all(result.passed for result in results),
    }
    text = _dump_json(report)
    if out:
        _write_text(Path(out), [text])
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
            for path in cmd_reproduce(args.figure, args.out, args.svg, args.points):
                print(path)
            return EXIT_OK
        if args.command == "witness":
            cmd_witness(args.input, args.out, args.tol)
            print(args.out)
            return EXIT_OK
        _, code = cmd_validate(args.trials, args.seed, args.cutoff_max, args.out)
        return code
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
