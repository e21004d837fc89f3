"""Output checks for the benchmark, derived apart from the program.

Nothing here imports ``squeezewitness``.  Every expected value comes from a
closed form written out below, or from the inputs the benchmark generated,
so a check cannot agree with the program merely because it shares its code.
Each check raises :class:`CheckError` with a reason on the first mismatch.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass

import numpy as np

NONCLASSICAL = "nonclassical_SI"
CLASSICAL = "classical_consistent"

# Squeezing of every built-in figure: 3 dB, zeta = 3 ln(10) / 20.
ZETA = 3.0 * math.log(10.0) / 20.0

# Tolerances that validate.py documents for its suites.
SUITE_TOLERANCES = {
    "gaussian_fock_agreement": 1e-6,     # GAUSSIAN_FOCK_RTOL
    "classicality_nonnegativity": 1e-8,  # CLASSICALITY_BOUND
    "channel_laws": 1e-12,               # CHANNEL_LAW_TOL (scaling laws)
    "reorder_matrix_equality": 1e-10,    # REORDER_TOL
}
CHANNEL_FOLD_TOL = 1e-8                  # CHANNEL_FOLD_TOL (bath-unitary fold)
# run_all_suites caps the channel and rewriter suites at 100 trials.
CAPPED_SUITES = {"channel_laws": 100, "reorder_matrix_equality": 100}


class CheckError(AssertionError):
    """An output disagrees with its independently derived expectation."""


def _malformed_is_a_failure(check):
    """A missing key or a value of the wrong type fails the check too."""
    @functools.wraps(check)
    def wrapper(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckError(f"malformed output: {type(exc).__name__}: {exc}") from None
    return wrapper


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _reject_constant(token: str):
    raise CheckError(f"non-standard JSON token {token!r}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity extensions."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def _close(got, want, tol) -> np.ndarray:
    """Elementwise |got - want| <= tol; NaN on either side is never close."""
    with np.errstate(invalid="ignore"):
        return np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)) <= tol


def _require_all(ok: np.ndarray, what: str, rows=None) -> None:
    """Fail naming the first row (an index into ``rows`` if given) not ok."""
    if not ok.all():
        first = int(np.flatnonzero(~ok)[0])
        raise CheckError(f"row {first if rows is None else rows[first]}: {what}")


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

@dataclass
class WitnessInputs:
    """The measured rows the benchmark wrote; ``na`` is NaN where left empty."""

    theta_rad: np.ndarray
    var_L: np.ndarray
    nb: np.ndarray
    na: np.ndarray


def expected_witness(inputs: WitnessInputs, tol: float) -> dict:
    """Per-row witness quantities and verdict counts from their definitions."""
    partial = inputs.var_L - inputs.nb
    full = partial - inputs.na
    with np.errstate(divide="ignore"):
        noise_db = 10.0 * np.log10(inputs.var_L / inputs.nb)
    nonclassical = partial < -tol
    return {
        "partial_no": partial,
        "full_no": full,
        "noise_db": noise_db,
        "nonclassical": nonclassical,
        "has_na": ~np.isnan(inputs.na),
        "n_nonclassical": int(nonclassical.sum()),
    }


@_malformed_is_a_failure
def check_witness_report(text: str, inputs: WitnessInputs, tol: float) -> None:
    """Check a ``witness`` report row by row against the generated inputs."""
    report = strict_json(text)
    want = expected_witness(inputs, tol)
    n = len(inputs.var_L)
    _require(report.get("tol") == tol, f"tol echoed as {report.get('tol')!r}")
    rows = report.get("rows")
    _require(isinstance(rows, list) and len(rows) == n,
             f"expected {n} rows, got {len(rows) if isinstance(rows, list) else rows!r}")

    for key in ("theta_rad", "var_L", "nb"):
        got = np.array([row[key] for row in rows], dtype=float)
        ok = got == getattr(inputs, key)
        _require_all(ok, f"{key} not echoed exactly")

    scale = np.maximum(1.0, np.abs(inputs.var_L) + np.abs(inputs.nb))
    partial = np.array([row["partial_no"] for row in rows], dtype=float)
    ok = _close(partial, want["partial_no"], 1e-12 * scale)
    _require_all(ok, "partial_no != var_L - nb")

    zero = inputs.var_L == 0.0
    noise = [row["noise_db"] for row in rows]
    for i in np.flatnonzero(zero):
        _require(noise[i] == "-inf", f"row {i}: var_L = 0 gives noise_db {noise[i]!r}")
    finite = np.array([np.nan if zero[i] else noise[i] for i in range(n)], dtype=float)
    ok = zero | _close(finite, want["noise_db"], 1e-9)
    _require_all(ok, "noise_db != 10 log10(var_L / nb)")

    verdicts = np.array([row["verdict"] for row in rows])
    expected = np.where(want["nonclassical"], NONCLASSICAL, CLASSICAL)
    ok = verdicts == expected
    _require_all(ok, "verdict does not follow the sign of partial_no against tol")

    has_na = want["has_na"]
    for i in np.flatnonzero(~has_na):
        _require(rows[i].get("full_no") is None and rows[i].get("na") is None,
                 f"row {i}: full_no reported without na")
    idx = np.flatnonzero(has_na)
    na = np.array([rows[i]["na"] for i in idx], dtype=float)
    ok = na == inputs.na[idx]
    _require_all(ok, "na not echoed exactly", idx)
    full = np.array([rows[i]["full_no"] for i in idx], dtype=float)
    ok = _close(full, want["full_no"][idx], 1e-12 * (scale[idx] + inputs.na[idx]))
    _require_all(ok, "full_no != partial_no - na", idx)
    negativity = [rows[i]["standard_negativity"] for i in idx]
    _require(all(isinstance(flag, bool) for flag in negativity),
             "standard_negativity is not a boolean")
    ok = np.array(negativity) == (want["full_no"][idx] < -tol)
    _require_all(ok, "standard_negativity does not follow full_no", idx)

    summary = report.get("summary", {})
    n_non = want["n_nonclassical"]
    _require(summary.get("n_rows") == n, f"summary n_rows {summary.get('n_rows')!r} != {n}")
    _require(summary.get(NONCLASSICAL) == n_non,
             f"summary {NONCLASSICAL} {summary.get(NONCLASSICAL)!r} != {n_non}")
    _require(summary.get(CLASSICAL) == n - n_non,
             f"summary {CLASSICAL} {summary.get(CLASSICAL)!r} != {n - n_non}")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@_malformed_is_a_failure
def check_validate_report(text: str, seed: int, trials: int, cutoff_max: int) -> None:
    """Check a ``validate`` report: config echo, suites, trials, tolerances."""
    report = strict_json(text)
    config = {"trials": trials, "seed": seed, "cutoff_max": cutoff_max}
    _require(report.get("config") == config,
             f"config {report.get('config')!r} != {config}")
    suites = {suite.get("name"): suite for suite in report.get("suites", [])}
    _require(sorted(suites) == sorted(SUITE_TOLERANCES) and
             len(report["suites"]) == len(SUITE_TOLERANCES),
             f"suites {sorted(suites)} != {sorted(SUITE_TOLERANCES)}")
    for name, tol in SUITE_TOLERANCES.items():
        suite = suites[name]
        want_trials = min(trials, CAPPED_SUITES.get(name, trials))
        _require(suite.get("trials") == want_trials,
                 f"{name}: {suite.get('trials')!r} trials, expected {want_trials}")
        deviation = suite.get("max_deviation")
        _require(isinstance(deviation, (int, float)) and not isinstance(deviation, bool)
                 and 0.0 <= deviation,
                 f"{name}: max_deviation {deviation!r} is not a finite number")
        _require(suite.get("passed") is True, f"{name}: passed is {suite.get('passed')!r}")
        if name == "channel_laws":
            match = re.search(r"bath-fold deviation (\S+)", suite.get("detail", ""))
            _require(match is not None, f"{name}: no bath-fold deviation in detail")
            fold = float(match.group(1))
            _require(fold <= CHANNEL_FOLD_TOL, f"{name}: bath fold {fold} > {CHANNEL_FOLD_TOL}")
            # max_deviation is the larger of the scaling-law and fold errors,
            # and the fold figure in the detail is rounded to 4 digits.
            _require(deviation <= tol or deviation <= 1.001 * fold,
                     f"{name}: scaling-law deviation {deviation} > {tol}")
        else:
            _require(deviation <= tol, f"{name}: max_deviation {deviation} > {tol}")
    _require(report.get("all_passed") is True, "all_passed is not true")


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

FIGURE_HEADERS = {
    "fluctuations": ["theta_rad", "partial_no", "full_no"],
    "noise-sweep": ["lo_kind", "nb", "theta_rad", "var_L", "noise_db"],
    "robustness": ["channel", "param", "partial_no", "predicted"],
}


def _db_value(cell) -> float:
    """A noise parameter: a finite number, or the string "-inf"."""
    if cell == "-inf":
        return -math.inf
    try:
        value = float(cell)
    except (TypeError, ValueError):
        value = math.nan
    _require(math.isfinite(value), f"bad noise value {cell!r}")
    return value


def _check_fluctuations(rows: list[list[str]], points: int) -> None:
    _require(len(rows) == points, f"{len(rows)} rows, expected {points}")
    theta, partial, full = (np.array(col, dtype=float) for col in zip(*rows))
    _require(np.all(np.diff(theta) > 0) and theta[0] >= 0 and theta[-1] < 2 * math.pi,
             "theta grid is not increasing within [0, 2 pi)")
    want = np.exp(-2 * ZETA) * np.cos(theta) ** 2 + np.exp(2 * ZETA) * np.sin(theta) ** 2
    ok = _close(partial, want, 1e-12)
    _require_all(ok, "partial_no != e^-2z cos^2 + e^2z sin^2")
    _require(np.all(partial >= 0.0), "partial_no is negative for a coherent signal")
    ok = _close(full, partial - 1.0, 1e-12)
    _require_all(ok, "full_no != partial_no - 1")


def _check_noise_sweep(rows: list[list[str]], points: int, summary: dict) -> None:
    kinds = [row[0] for row in rows]
    coherent = [row for row in rows if row[0] == "coherent"]
    squeezed = [row for row in rows if row[0] == "squeezed"]
    _require(len(coherent) + len(squeezed) == len(kinds), "unknown lo_kind")
    _require(len(coherent) == points, f"{len(coherent)} coherent rows, expected {points}")
    _require(len(squeezed) in (points, points + 1),
             f"{len(squeezed)} squeezed rows, expected {points} or {points + 1}")
    curves = {}
    for kind, part, theta_want in (("coherent", coherent, 0.0),
                                   ("squeezed", squeezed, math.pi / 2)):
        nb = np.array([row[1] for row in part], dtype=float)
        theta = np.array([row[2] for row in part], dtype=float)
        var = np.array([row[3] for row in part], dtype=float)
        noise = np.array([_db_value(row[4]) for row in part])
        _require(np.all(theta == theta_want), f"{kind}: theta is not {theta_want}")
        if kind == "coherent":
            want = nb * np.exp(-2 * ZETA) + np.sinh(ZETA) ** 2
        else:
            want = np.sinh(ZETA - np.arcsinh(np.sqrt(nb))) ** 2
        tol = 1e-9 * np.maximum(1.0, nb)
        ok = _close(var, want, tol)
        _require_all(ok, f"{kind}: var_L differs from its closed form")
        null = np.isneginf(noise)
        _require(np.all(want[null] <= tol[null]),
                 f"{kind}: noise_db is -inf where var_L is not zero")
        with np.errstate(divide="ignore"):
            from_var = 10.0 * np.log10(var / nb)
        ok = null | _close(noise, from_var, 1e-9)
        _require_all(ok, f"{kind}: noise_db != 10 log10(var_L / nb)")
        curves[kind] = noise
    for kind, key in (("coherent", "coherent_lo"), ("squeezed", "squeezed_lo")):
        got = _db_value(summary.get(key, {}).get("min_noise_db"))
        want = float(np.min(curves[kind]))
        _require(got == want, f"{key}.min_noise_db {got} != column minimum {want}")


def _check_robustness(rows: list[list[str]], points: int) -> None:
    ideal = -math.sinh(ZETA) ** 2
    for channel in ("loss", "gain"):
        part = [row for row in rows if row[0] == channel]
        _require(len(part) == points, f"{len(part)} {channel} rows, expected {points}")
        param = np.array([row[1] for row in part], dtype=float)
        partial = np.array([row[2] for row in part], dtype=float)
        predicted = np.array([row[3] for row in part], dtype=float)
        if channel == "loss":
            _require(np.all((param >= 0.0) & (param <= 1.0)), "eta outside [0, 1]")
            want = param * ideal
        else:
            _require(np.all((param >= 1.0) & (param <= 2.0)), "g outside [1, 2]")
            want = param * ideal + (param - 1.0) * (2.0 * math.sinh(ZETA) ** 2 + 1.0)
        for label, got in (("partial_no", partial), ("predicted", predicted)):
            ok = _close(got, want, 1e-10)
            _require_all(ok, f"{channel}: {label} differs from the {channel} law")
    _require(len(rows) == 2 * points, f"{len(rows)} rows, expected {2 * points}")


@_malformed_is_a_failure
def check_figure(figure: str, points: int, csv_text: str, summary_text: str,
                 svg_text: str) -> None:
    """Check one ``reproduce --svg`` output set against the closed forms."""
    table = list(csv.reader(io.StringIO(csv_text)))
    _require(table and table[0] == FIGURE_HEADERS[figure],
             f"{figure}: header {table[0] if table else None}")
    rows = table[1:]
    summary = strict_json(summary_text)
    _require(summary.get("figure") == figure and summary.get("points") == points,
             f"{figure}: summary names {summary.get('figure')!r} at "
             f"{summary.get('points')!r} points")
    try:
        if figure == "fluctuations":
            _check_fluctuations(rows, points)
        elif figure == "noise-sweep":
            _check_noise_sweep(rows, points, summary)
        else:
            _check_robustness(rows, points)
    except CheckError as exc:
        raise CheckError(f"{figure}: {exc}") from None
    try:
        root = ElementTree.fromstring(svg_text)
    except ElementTree.ParseError as exc:
        raise CheckError(f"{figure}: SVG is not well-formed: {exc}") from None
    _require(root.tag == "{http://www.w3.org/2000/svg}svg", f"{figure}: root is {root.tag}")
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    _require(len(lines) == 2, f"{figure}: {len(lines)} polylines, expected 2")
