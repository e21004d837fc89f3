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
    rows are parsed and checked in one pass, a column at a time.  The first
    bad line of the file, malformed or out of range, is an error naming
    that line; within it, a wrong cell count comes first, then a cell that
    is not a number, then a cell out of range, then an overflowing
    ``full_no``.  A repeated schema column is an error before any row is
    read.  The report's rows are formatted in blocks by the package's one
    fork pool and written in order, the same bytes for any core count.
    ``cmd_witness`` returns only the report's ``tol`` and ``summary``.
``validate [--trials N] [--seed S] [--cutoff-max C] [--out <json>]``
    Run the randomized property suites, the oracle's cutoff doubling up to
    a ceiling ``C`` from 4 to the oracle's cap of 512; exit status 1 if
    any fails.  The suites run in the same fork pool, and the report is the
    same bytes for any core count.

Where ``os.fork`` exists, the pool runs every task in a forked worker, on
one core too, so a task that raises, or a worker that dies, exits 2 on any
core count, with the worker's traceback on stderr.

Every output file goes through one writer: the bytes of each regular file
go to a new file beside it, which replaces it, with its permission bits,
once every file of the run is written.  So a failed write or worker leaves
every previous file whole, or none, and no new file.  A link, such as
``/dev/stdout``, or a device is written in place.  Line ends are ``\n`` on
every platform.

Exit codes: 0 success, 1 validation failure, 2 input error, a failed
write, or a failed task or worker process.  All outputs are deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import operator
import os
import stat
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
# One measured row: its cells, with ``na`` NaN where that cell was left empty.
RECORD_DTYPE = np.dtype([("theta_rad", float), ("var_L", float), ("nb", float),
                         ("na", float)])
# A witness report row is one f-string in ``_dump_json``'s layout (indent 2,
# keys sorted), without or with the ``na`` columns; ``!r`` of a float is
# ``float.__repr__``, which is how ``json`` writes floats.
_JSON_BOOL = ("false", "true")
_JSON_VERDICT = (json.dumps(CLASSICAL), json.dumps(NONCLASSICAL))
# Report rows per block.  The blocks are dealt round-robin to the forked
# workers; a worker holds one formatted block, about 2.8 MB with na, while
# it waits for its pipe to drain.
REPORT_BLOCK_ROWS = 8192


class InputError(Exception):
    """Bad user input (malformed CSV, unknown figure, unwritable path), or a
    task that failed in a worker process; the command exits 2."""


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_files(files) -> None:
    """Write each ``(path, chunks)`` of ``files``: the bytes of ``chunks``, in
    order, as the file at ``path``.

    Every regular file is replaced whole or not at all: its bytes go to a new
    file beside it, and once every file is written, each replaces its target
    with the target's permission bits.  A failed write, or a failed chunk,
    removes the new files, so it leaves every previous file, or none.  A
    link, such as ``/dev/stdout``, or a device is written in place.  An
    ``OSError`` is raised as :class:`InputError` naming the path.
    """
    temps = []  # (new file, its target)
    try:
        for path, chunks in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_symlink() or (path.exists() and not path.is_file()):
                with path.open("wb") as stream:
                    stream.writelines(chunks)
                continue
            temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            with temp.open("xb") as stream:  # a name no other writer holds
                temps.append((temp, path))
                stream.writelines(chunks)
            if path.exists():
                os.chmod(temp, stat.S_IMODE(path.stat().st_mode))
        for temp, path in temps:
            os.replace(temp, path)
    except BaseException as exc:
        for temp, _ in temps:
            with contextlib.suppress(OSError):  # the error being raised is the cause
                temp.unlink()
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc}") from exc
        raise


def _encoded(build, *args, **kwargs):
    """Yield ``build(*args, **kwargs)`` as UTF-8, built only once the writer
    asks for it."""
    yield build(*args, **kwargs).encode("utf-8")


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
    files = [(out_dir / f"{stem}.csv", _encoded(render_csv, figure)),
             (out_dir / f"{stem}_summary.json", _encoded(_dump_json, figure.summary))]
    if svg:
        files.append((out_dir / f"{stem}.svg", _encoded(
            line_plot_svg, figure.series, title=figure.name, x_label=figure.x_label,
            y_label=figure.y_label, log_x=figure.log_x)))
    _write_files(files)
    return [path for path, _ in files]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def read_moment_records(path: str) -> tuple[np.ndarray, list[str]]:
    """Parse and check a measured-moments CSV; returns the rows and warnings.

    The rows form a structured array of :data:`RECORD_DTYPE`, one element
    per data row, so ``records["var_L"]`` is a column.  They are parsed a
    column at a time, and every cell is checked by :data:`CELL_RULES` in the
    same pass.  The error is the first bad line of the file, malformed or
    out of range, with its 1-based number.  Within that line a wrong cell
    count is named first, then the first cell in schema order that
    ``float`` rejects, then the first that breaks its rule (not finite,
    then out of range), then an overflowing ``full_no``.  A schema column
    named twice in the header is an error, since which of its cells is
    meant cannot be known; a repeated extra column is only ignored.  A
    UTF-8 byte-order mark is accepted.
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
    return _read_rows(lines[1:], len(header), at), warnings


def _read_rows(lines: list[str], width: int, at: tuple) -> np.ndarray:
    """The records of ``lines``, parsed and checked a column at a time.

    ``at`` holds each schema column's index in a line, None for a missing
    ``na``; blank lines are skipped.  The checks run in the order of the
    errors within a line (cell count, ``float``, the rules, ``full_no``) and
    each error narrows the later checks to the rows above it, so the last
    one found is on the first bad line.  It raises :class:`InputError` with
    that line's 1-based number (the header is line 1).
    """
    rows = list(filter(str.strip, lines))
    n, error = len(rows), None  # error: the message for row n
    if not set(map(operator.methodcaller("count", ","), rows)) <= {width - 1}:
        n = next(r for r, row in enumerate(rows) if row.count(",") != width - 1)
        error = f"expected {width} cells, got {rows[n].count(',') + 1}"
        del rows[n:]
    cells = ",".join(rows).split(",")
    records = np.full(n, np.nan, dtype=RECORD_DTYPE)
    given = np.zeros(n, dtype=bool)  # where an na cell is not empty
    for column, k in zip(WITNESS_COLUMNS, at):
        if k is None:
            continue
        texts = cells[k:n * width:width]
        if column == "na":  # an empty na cell stays NaN
            texts = list(map(str.strip, texts))
            given[:n] = np.fromiter(map(bool, texts), bool, n)
            texts = [text or "nan" for text in texts]
        try:
            records[column][:n] = np.fromiter(map(float, texts), float, n)
        except ValueError:
            for r, text in enumerate(texts):
                try:
                    records[column][r] = float(text)
                except ValueError as exc:
                    n, error = r, str(exc)
                    break
    for column, in_range, rule in CELL_RULES:
        values = records[column][:n]
        broken = ~np.isfinite(values)
        if in_range is not None:
            broken |= ~in_range(values, 0.0)
        if column == "na":
            broken &= given[:n]
        if broken.any():
            n = int(broken.argmax())
            value = float(values[n])
            rule = rule if math.isfinite(value) else "is not finite"
            error = f"{column} = {value!r} {rule}"
    # Finite cells in range leave var_L - nb finite; full_no is NaN where na
    # is empty and infinite where it overflows.
    with np.errstate(over="ignore"):
        full_no = records["var_L"][:n] - records["nb"][:n] - records["na"][:n]
    if (overflow := np.isinf(full_no)).any():
        n = int(overflow.argmax())
        error = f"full_no = var_L - nb - na = {float(full_no[n])!r} is not finite"
    if error is not None:
        line_no = [no for no, line in enumerate(lines, start=2) if line.strip()][n]
        raise InputError(f"line {line_no}: {error}")
    return records


def _report_block(columns, start: int) -> bytes:
    """Rows ``start`` to ``start + REPORT_BLOCK_ROWS`` of ``columns`` in
    ``_dump_json``'s layout, each after the comma that ends the row before
    it, as ASCII."""
    cells = zip(*(column[start:start + REPORT_BLOCK_ROWS].tolist() for column in columns))
    rows = [
        f'\n    {{\n      "full_no": {f!r},\n      "na": {a!r},\n      "nb": {b!r},'
        f'\n      "noise_db": {noise_db},\n      "partial_no": {p!r},'
        f'\n      "standard_negativity": {_JSON_BOOL[negative]},\n      "theta_rad": {t!r},'
        f'\n      "var_L": {v!r},\n      "verdict": {_JSON_VERDICT[nonclassical]}\n    }}'
        if given else
        f'\n    {{\n      "nb": {b!r},\n      "noise_db": {noise_db},\n      "partial_no": {p!r},'
        f'\n      "theta_rad": {t!r},\n      "var_L": {v!r},'
        f'\n      "verdict": {_JSON_VERDICT[nonclassical]}\n    }}'
        for t, v, b, p, n, nonclassical, given, a, f, negative in cells
        for noise_db in ('"-inf"' if n == -math.inf else repr(n),)]
    return (("," if start else "") + ",".join(rows)).encode("ascii")


def _write_report(path: Path, columns, tail: dict) -> None:
    """Write the witness report in ``_dump_json``'s layout: the rows of
    ``columns``, then ``tail``, through :func:`_write_files`.

    The rows are formatted in blocks of :data:`REPORT_BLOCK_ROWS` by
    :func:`~squeezewitness._pool.fork_map`'s workers, one per available
    core, and written in block order: the bytes do not depend on how many
    processes format them.  A worker that ends early or exits nonzero fails
    the write as a full disk does: it raises :class:`InputError` and leaves
    the previous report, or none.  Every worker has exited when this
    returns or raises.
    """
    from ._pool import WorkerError, fork_map

    starts = range(0, len(columns[0]), REPORT_BLOCK_ROWS)
    blocks = fork_map(functools.partial(_report_block, columns), starts)
    # The tail's keys follow the rows, after its own "{\n".
    end = (b"\n  ],\n" if starts else b"],\n") + _dump_json(tail)[2:].encode("ascii")
    try:
        with contextlib.closing(blocks):
            _write_files([(path, itertools.chain([b'{\n  "rows": ['], blocks, [end]))])
    except WorkerError as exc:
        cause = ("ended before sending all its rows" if exc.code is None
                 else f"exited with code {exc.code}")
        raise InputError(f"cannot write {path}: a formatting process {cause}") from exc


def cmd_witness(input_path: str, out: str, tol: float = DEFAULT_VERDICT_TOL) -> dict:
    """Evaluate measured moment records and write the JSON report.

    Every input check runs before the report file is opened.  The rows are
    then formatted in blocks by forked workers, one per available core, and
    written in order, never held whole; the bytes are the same for any core
    count.  A failed write or worker leaves the previous report, or none.
    Returns the report's ``tol`` and ``summary``, without its rows.
    """
    records, warnings = read_moment_records(input_path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    theta, var_L, nb, na = (records[name] for name in WITNESS_COLUMNS)
    has_na = ~np.isnan(na)  # the reader leaves every given na finite
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
    _write_report(Path(out), columns, tail)
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
    if cutoff_max < 4:  # the doubling schedule needs two cutoffs, 2 and 4
        raise InputError(f"cutoff_max must be >= 4, got {cutoff_max}")
    from ._pool import WorkerError
    from .fock import MAX_CUTOFF  # the oracle: only this command needs it
    from .validate import run_all_suites

    if cutoff_max > MAX_CUTOFF:
        raise InputError(f"cutoff_max must be <= {MAX_CUTOFF}, the oracle's cap, "
                         f"got {cutoff_max}")
    if trials == 0:
        print("warning: zero trials requested; suites pass vacuously",
              file=sys.stderr)

    try:
        results = run_all_suites(trials=trials, seed=seed, cutoff_max=cutoff_max)
    except WorkerError as exc:
        raise InputError(f"cannot finish the suites: {exc}") from exc
    report = {
        "config": {"trials": trials, "seed": seed, "cutoff_max": cutoff_max},
        "suites": [result.to_json_dict() for result in results],
        "all_passed": all(result.passed for result in results),
    }
    text = _dump_json(report)
    if out:
        _write_files([(Path(out), [text.encode("utf-8")])])
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
    val.add_argument("--trials", type=int, default=200, help="random scenarios per suite, at "
                     "most 100 for channel laws and reorder; 0 passes vacuously (default 200)")
    val.add_argument("--seed", type=int, default=42, help="seed of every suite (default 42)")
    val.add_argument("--cutoff-max", type=int, default=256, help="ceiling of the oracle's cutoff "
                     "doubling, from 4 up to the oracle's cap of 512 (default 256)")
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
