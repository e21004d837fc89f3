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
    ``T`` is checked first, then that ``--out`` is not the input file; then
    this process reads the file and checks its header, and a repeated schema
    column is an error before any row is read.  Each block of lines is one
    task of the package's one fork pool: one function that reads and checks
    it a column at a time, evaluates it and writes its report rows; the
    blocks are written in order, the same bytes for any core count.  The
    report echoes ``theta_rad``, ``var_L``, ``nb`` and ``na`` per column and
    per 8192-line block, so its bytes stay the same for any core count:
    where every given cell of a column in a block is a plain decimal,
    ``-?(0|[1-9][0-9]*)\\.[0-9]+``, its cells are written as they are, and
    otherwise as ``repr`` of their floats.  Either way each echoed cell reads
    back as the float its cell parsed to.  The first bad line of the file,
    malformed or out of range, is an error naming that line; within it, a
    wrong cell count comes first, then a cell that is not a number
    (``float`` rejects it, or it holds a digit-group ``_``), then a cell out
    of range, then an overflowing ``full_no``.
    ``cmd_witness`` returns only the report's ``tol`` and ``summary``.
``validate [--trials N] [--seed S] [--cutoff-max C] [--out <json>]``
    Run the randomized property suites, the oracle's cutoff doubling up to
    a ceiling ``C``, a power of two from 4 to the oracle's cap of 512;
    exit status 1 if any fails.  ``validate.run_all_suites`` checks ``N``,
    ``S`` and ``C``, for a library call too.  The suites run in the same
    fork pool, and the report is the same bytes for any core count.

Where ``os.fork`` exists, the pool runs every task in a forked worker, on
one core too, so a task that raises, or a worker that dies or cannot be
started, exits 2 on any core count, with the worker's traceback on stderr.

Every output file goes through one writer: the bytes of each regular file
go to a new file beside it, which replaces it, with its permission bits,
once every file of the run is written.  So a failed write or worker leaves
every previous file whole, or none, and no new file.  A link, such as
``/dev/stdout``, or a device is written in place, once and whole, only
after every file's bytes are made.  Line ends are ``\n`` on every
platform.

Exit codes: 0 success, 1 validation failure, 2 input error, a failed
write, or a failed task or worker process.  A warning or error that
standard error cannot take is dropped: it changes neither the exit code
nor any file.  All outputs are deterministic for a fixed configuration and
seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import re
import shutil
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from .figures import FIGURE_IDS, build_figure, render_csv
from .svgplot import line_plot_svg
from .witness import CLASSICAL, DEFAULT_VERDICT_TOL, NONCLASSICAL, witness_values

__all__ = ["InputError", "main", "cmd_reproduce", "cmd_witness", "cmd_validate"]

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
# A witness report row is one f-string in ``_dump_json``'s layout (indent 2,
# keys sorted), without or with the ``na`` columns; ``!r`` of a float is
# ``float.__repr__``, which is how ``json`` writes floats.
_JSON_BOOL = ("false", "true")
_JSON_VERDICT = (json.dumps(CLASSICAL), json.dumps(NONCLASSICAL))
# Plain decimals, each followed by a comma.  A plain decimal is a JSON number
# that ``json`` reads with ``float``, so a column of them written as they are
# holds the values that the reader parsed.
_PLAIN_DECIMALS = re.compile(r"(?:-?(?:0|[1-9][0-9]*)\.[0-9]+,)*")
# Input lines per block, blank lines included.  The blocks are dealt
# round-robin to the forked workers, which parse, check, evaluate and format
# them; a worker holds one formatted block, about 2.8 MB with na, while it
# waits for its pipe to drain.
REPORT_BLOCK_ROWS = 8192


class InputError(Exception):
    """Bad user input (malformed CSV, unknown figure, unwritable path), or a
    task that failed in a worker process; the command exits 2."""


def _diagnose(message: str) -> None:
    """Print ``message`` on stderr; a stream that cannot take it is ignored,
    so that what was written and the exit code stay those of the run."""
    with contextlib.suppress(OSError):
        print(message, file=sys.stderr)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_files(files) -> None:
    """Write each ``(path, chunks)`` of ``files``: the bytes of ``chunks``, in
    order, as the file at ``path``.

    Every file is written only once the chunks of every file are made.  A
    regular file is replaced whole or not at all: its bytes go to a new file
    beside it, which replaces it with its permission bits.  A link, such as
    ``/dev/stdout``, or a device is written in place, once, from an unlinked
    temporary file that holds its bytes; the links and devices are written
    before any file is replaced.  So a failed chunk leaves every target as it
    was, and a failed write removes the new files and leaves every previous
    regular file, or none.  An ``OSError`` is raised as :class:`InputError`
    naming the target.
    """
    temps = []  # (new file, its target)
    staged = []  # (unlinked temporary file, its link or device target)
    try:
        for path, chunks in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_symlink() or (path.exists() and not path.is_file()):
                stage = tempfile.TemporaryFile()
                staged.append((stage, path))
                stage.writelines(chunks)
                continue
            temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            with temp.open("xb") as stream:  # a name no other writer holds
                temps.append((temp, path))
                stream.writelines(chunks)
            if path.exists():
                os.chmod(temp, stat.S_IMODE(path.stat().st_mode))
        for stage, path in staged:
            stage.seek(0)
            with path.open("wb") as stream:
                shutil.copyfileobj(stage, stream)
        for temp, path in temps:
            os.replace(temp, path)
    except BaseException as exc:
        for temp, _ in temps:
            with contextlib.suppress(OSError):  # the error being raised is the cause
                temp.unlink()
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc}") from exc
        raise
    finally:
        for stage, _ in staged:
            stage.close()


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
    files = [(out_dir / f"{stem}.csv", render_csv(figure)),
             (out_dir / f"{stem}_summary.json", _dump_json(figure.summary))]
    if svg:
        files.append((out_dir / f"{stem}.svg", line_plot_svg(
            figure.series, title=figure.name, x_label=figure.x_label,
            y_label=figure.y_label, log_x=figure.log_x)))
    _write_files([(path, [text.encode("utf-8")]) for path, text in files])
    return [path for path, _ in files]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def _lines(text: str) -> list[str]:
    """``str.splitlines``, but breaking only at ``\\n``, ``\\r\\n`` and ``\\r``, as
    ``open()`` does: not at the form feeds, NELs or U+2028s that editors do not show."""
    if "\r" in text:  # a scan for it is cheaper than a replace that finds none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]


def _read_header(path: str) -> tuple[list[str], int, tuple, list[str]]:
    """Read the CSV at ``path`` and check its header, for :func:`cmd_witness`;
    returns its lines, the header's width, each schema column's index in a
    line (None for a missing ``na``) and the warnings.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` alone.  A UTF-8 byte-order mark
    is accepted; a byte that is not UTF-8 is an error naming its line.  A
    schema column named twice in the header is an error, since which of its
    cells is meant cannot be known; a repeated extra column is only ignored,
    and an unnamed one is named by its 1-based position.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # exc.object holds the bytes after any mark; "." stands in for the bad byte.
        line_no = len(_lines(exc.object[:exc.start].decode("utf-8") + "."))
        raise InputError(f"line {line_no}: byte {exc.object[exc.start]:#04x} is not UTF-8 "
                         f"({exc.reason})") from None
    lines = _lines(text)
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
    extras = [name or f"unnamed column {k}" for k, name in enumerate(header, start=1)
              if name not in WITNESS_COLUMNS]
    if extras:
        warnings.append(f"ignoring extra columns: {', '.join(extras)}")
    at = tuple(header.index(name) if name in header else None
               for name in WITNESS_COLUMNS)
    return lines, len(header), at, warnings


def _read_rows(lines: list[str], width: int, at: tuple, first: int) -> tuple:
    """The schema columns of ``lines``, parsed and checked a column at a time,
    as one ``(4, n)`` float array in :data:`WITNESS_COLUMNS` order, with 0 for
    an empty or missing ``na`` cell; the mask of the rows whose ``na`` cell
    is given; and each column's echo, its list of ``n`` cell texts where
    every given cell is a plain decimal, else None.

    ``at`` holds each schema column's index in a line, None for a missing
    ``na``; blank lines are skipped.  A cell that holds ``_`` is not a
    number, though ``float`` reads ``1_5`` as 15.  The checks run in the
    order of the errors within a line (cell count, ``float``, the rules,
    ``full_no``) and each error narrows the later checks to the rows above
    it, so the last one found is on the first bad line.  It raises
    :class:`InputError` with that line's 1-based number in the file, where
    ``lines[0]`` is line ``first``.
    """
    rows = list(filter(str.strip, lines))
    n, error = len(rows), None  # error: the message for row n
    if not set(map(operator.methodcaller("count", ","), rows)) <= {width - 1}:
        n = next(r for r, row in enumerate(rows) if row.count(",") != width - 1)
        error = f"expected {width} cells, got {rows[n].count(',') + 1}"
        del rows[n:]
    cells = ",".join(rows).split(",")
    columns = np.zeros((len(WITNESS_COLUMNS), n))
    given = np.zeros(n, dtype=bool)  # where an na cell is not empty
    echoes = [None] * len(WITNESS_COLUMNS)
    for j, (column, k, values) in enumerate(zip(WITNESS_COLUMNS, at, columns)):
        if k is None:
            continue
        echo = texts = cells[k:n * width:width]
        where = slice(n)  # the rows whose cells are parsed
        if column == "na":  # an empty na cell stays 0
            # Empty only where float() would see nothing: str.strip also drops
            # the separators \x1c-\x1f, which float() rejects.
            given[:n] = [bool(kept) or not {"\x1c", "\x1d", "\x1e", "\x1f"}.isdisjoint(text)
                         for text, kept in zip(texts, map(str.strip, texts))]
            where = np.flatnonzero(given)
            texts = [texts[r] for r in where.tolist()]
        joined = ",".join([*texts, ""])  # one scan and one match over the column
        try:
            if "_" in joined:
                raise ValueError
            values[where] = np.fromiter(map(float, texts), float, len(texts))
        except ValueError:
            for r, text in zip(np.arange(n)[where].tolist(), texts):
                try:
                    if "_" in text:  # float() reads 1_5 as 15; no measured value is spelled so
                        raise ValueError(f"could not convert string to float: {text!r}")
                    values[r] = float(text)
                except ValueError as exc:
                    n, error = r, str(exc)
                    break
        else:
            if _PLAIN_DECIMALS.fullmatch(joined):
                echoes[j] = echo
    for (column, in_range, rule), values in zip(CELL_RULES, columns):
        values = values[:n]  # each error narrows the later rules
        broken = ~np.isfinite(values)
        if in_range is not None:
            broken |= ~in_range(values, 0.0)
        if broken.any():
            n = int(broken.argmax())
            value = float(values[n])
            rule = rule if math.isfinite(value) else "is not finite"
            error = f"{column} = {value!r} {rule}"
    # Finite cells in range leave var_L - nb finite; full_no is infinite
    # where a given na makes it overflow.
    _, var_L, nb, na = columns[:, :n]
    with np.errstate(over="ignore"):
        full_no = var_L - nb - na
    if (overflow := np.isinf(full_no)).any():
        n = int(overflow.argmax())
        error = f"full_no = var_L - nb - na = {float(full_no[n])!r} is not finite"
    if error is not None:
        line_no = [no for no, line in enumerate(lines, start=first) if line.strip()][n]
        raise InputError(f"line {line_no}: {error}")
    return columns, given, echoes


def _witness_block(lines: list[str], width: int, at: tuple, tol: float, start: int):
    """Lines ``start`` to ``start + REPORT_BLOCK_ROWS`` of ``lines`` (0-based,
    the header is line 0) as report rows: parsed and checked by
    :func:`_read_rows`, evaluated by the kernel and written in
    ``_dump_json``'s layout, joined by the commas between them, as ASCII.
    Each column that the reader echoes is written as its cells, and every
    other value as its float's ``repr``.  Returns the rows' bytes, their
    count and how many are nonclassical, or the message of the block's
    first bad line."""
    try:
        columns, given, echoes = _read_rows(lines[start:start + REPORT_BLOCK_ROWS], width, at,
                                            start + 1)
    except InputError as exc:
        return str(exc)
    values = witness_values(*columns[1:], tol)
    theta, var_L, nb, na = (column.tolist() if echo is None else echo
                            for column, echo in zip(columns, echoes))
    noise = values.noise_db.tolist()
    for r in np.flatnonzero(values.noise_db == -np.inf).tolist():
        noise[r] = '"-inf"'  # perfect cancellation, as _dump_json writes it
    # A str cell is written as it is; a float's !s is its repr.
    rows = [
        f'\n    {{\n      "full_no": {f!r},\n      "na": {a!s},\n      "nb": {b!s},'
        f'\n      "noise_db": {n!s},\n      "partial_no": {p!r},'
        f'\n      "standard_negativity": {_JSON_BOOL[negative]},\n      "theta_rad": {t!s},'
        f'\n      "var_L": {v!s},\n      "verdict": {_JSON_VERDICT[nonclassical]}\n    }}'
        if given_na else
        f'\n    {{\n      "nb": {b!s},\n      "noise_db": {n!s},\n      "partial_no": {p!r},'
        f'\n      "theta_rad": {t!s},\n      "var_L": {v!s},'
        f'\n      "verdict": {_JSON_VERDICT[nonclassical]}\n    }}'
        for t, v, b, p, n, nonclassical, given_na, a, f, negative in zip(
            theta, var_L, nb, values.partial_no.tolist(), noise, values.nonclassical.tolist(),
            given.tolist(), na, values.full_no.tolist(), values.standard_negativity.tolist())]
    return ",".join(rows).encode("ascii"), len(rows), int(values.nonclassical.sum())


def cmd_witness(input_path: str, out: str, tol: float = DEFAULT_VERDICT_TOL) -> dict:
    """Evaluate measured moment records and write the JSON report.

    ``tol`` is checked first, then that ``out`` is not the input file, then
    the file is read and its header checked in this process.  Every block
    of :data:`REPORT_BLOCK_ROWS` lines is then one task of
    :func:`~squeezewitness._pool.fork_map`, whose workers, one per
    available core, parse, check, evaluate and format it.  The blocks
    are written in order, so the bytes are the same for any core count,
    and the first block with a bad line raises :class:`InputError` naming
    that line.  A bad line, a failed write, or a worker that cannot be
    started, ends early or exits nonzero leaves the previous report, or
    none; the warnings are printed only once every line has passed.
    Returns the report's ``tol`` and ``summary``, without its rows.
    """
    from ._pool import WorkerError, fork_map

    witness_values((), (), tol=tol)  # the kernel's check of tol, on no rows
    if os.path.isfile(input_path) and os.path.exists(out) and os.path.samefile(input_path, out):
        raise InputError(f"--out {out} is the input {input_path}: the report would replace it")
    lines, width, at, warnings = _read_header(input_path)
    starts = range(1, len(lines), REPORT_BLOCK_ROWS)
    summary = {"n_rows": 0, "nonclassical_SI": 0, "classical_consistent": 0}
    tail = {"summary": summary, "tol": tol}

    def chunks(blocks):
        yield b'{\n  "rows": ['
        for block in blocks:
            if isinstance(block, str):
                raise InputError(block)
            rows, n_rows, n_nonclassical = block
            if n_rows:
                if summary["n_rows"]:
                    yield b","
                yield rows
                summary["n_rows"] += n_rows
                summary["nonclassical_SI"] += n_nonclassical
        summary["classical_consistent"] = summary["n_rows"] - summary["nonclassical_SI"]
        for warning in warnings:
            _diagnose(f"warning: {warning}")
        # The tail's keys follow the rows, after its own "{\n".
        yield ((b"\n  ],\n" if summary["n_rows"] else b"],\n")
               + _dump_json(tail)[2:].encode("ascii"))

    path = Path(out)
    blocks = fork_map(functools.partial(_witness_block, lines, width, at, tol), starts)
    try:
        with contextlib.closing(blocks):
            _write_files([(path, chunks(blocks))])
    except WorkerError as exc:
        raise InputError(f"cannot write {path}: a formatting process {exc.reason}") from exc
    return tail


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(trials: int, seed: int, cutoff_max: int,
                 out: str = "") -> tuple[dict, int]:
    """Run the property suites; returns the report and the exit code."""
    from ._pool import WorkerError
    from .validate import run_all_suites  # the oracle: only this command needs it

    try:
        results = run_all_suites(trials=trials, seed=seed, cutoff_max=cutoff_max)
    except WorkerError as exc:
        raise InputError(f"cannot finish the suites: {exc}") from exc
    report = {
        # The suites accepted each argument as an integer; the report holds it as one.
        "config": {"trials": operator.index(trials), "seed": operator.index(seed),
                   "cutoff_max": int(cutoff_max)},
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
                     "most 100 for channel laws and reorder (default 200)")
    val.add_argument("--seed", type=int, default=42, help="seed of every suite (default 42)")
    val.add_argument("--cutoff-max", type=int, default=256, help="ceiling of the oracle's cutoff "
                     "doubling, a power of two from 4 up to the oracle's cap of 512 (default 256)")
    val.add_argument("--out", default="", help="JSON report path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = EXIT_OK
        if args.command == "reproduce":
            for path in cmd_reproduce(args.figure, args.out, args.svg, args.points):
                print(path)
        elif args.command == "witness":
            cmd_witness(args.input, args.out, args.tol)
            print(args.out)
        else:
            _, code = cmd_validate(args.trials, args.seed, args.cutoff_max, args.out)
        sys.stdout.flush()
        return code
    except (InputError, ValueError) as exc:
        _diagnose(f"error: {exc}")
        return EXIT_INPUT_ERROR
    except OSError as exc:  # every file's error is an InputError: this one is stdout's
        _diagnose(f"error: cannot write standard output: {exc}")
        # Shutdown flushes stdout again; the bytes it still holds go to
        # os.devnull, not to a second failure that exits 120.
        with contextlib.suppress(AttributeError, OSError):  # a stream with no descriptor
            descriptor = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, descriptor)
            os.close(devnull)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
