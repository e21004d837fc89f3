"""Self-tests of the benchmark's output checks and tracer.

Run from the repository root with ``python3 -m pytest -q bench``.  They use
small inputs and finish in seconds: each check must accept the program's
real output and reject a deliberately corrupted copy of it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (
    CheckError,
    check_figure,
    check_validate_report,
    check_witness_report,
    strict_json,
)
from run import WITNESS_TOL, witness_csv, witness_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "squeezewitness.cli", *argv],
                          env=ENV, capture_output=True, text=True, check=True)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def witness_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("witness")
    inputs = witness_inputs(seed=5, rows=400)
    (tmp / "in.csv").write_text(witness_csv(inputs))
    cli("witness", "--input", str(tmp / "in.csv"), "--tol", repr(WITNESS_TOL),
        "--out", str(tmp / "report.json"))
    return inputs, (tmp / "report.json").read_text()


def test_witness_inputs_cover_every_path():
    inputs = witness_inputs(seed=5, rows=2000)
    partial = inputs.var_L - inputs.nb
    assert (inputs.var_L == 0).any() and (partial == 0).any()
    assert (partial < 0).any() and (partial > 0).any()
    assert (inputs.na != inputs.na).any() and (inputs.na == inputs.na).any()
    header = witness_csv(inputs).splitlines()[0]
    assert header == "theta_rad,run_id,var_L,nb,na"


def test_witness_accepts_real_report(witness_case):
    inputs, text = witness_case
    check_witness_report(text, inputs, WITNESS_TOL)


def test_witness_rejects_flipped_verdict(witness_case):
    inputs, text = witness_case
    report = json.loads(text)
    row = report["rows"][7]
    row["verdict"] = ("classical_consistent" if row["verdict"] == "nonclassical_SI"
                      else "nonclassical_SI")
    with pytest.raises(CheckError, match="row 7: verdict"):
        check_witness_report(json.dumps(report), inputs, WITNESS_TOL)


def test_witness_rejects_partial_no_off_by_1e_6(witness_case):
    inputs, text = witness_case
    report = json.loads(text)
    report["rows"][11]["partial_no"] += 1e-6
    with pytest.raises(CheckError, match="row 11: partial_no"):
        check_witness_report(json.dumps(report), inputs, WITNESS_TOL)


def test_witness_rejects_nan_token(witness_case):
    inputs, text = witness_case
    report = json.loads(text)
    report["rows"][3]["partial_no"] = float("nan")
    corrupted = json.dumps(report)  # allow_nan writes the bare token NaN
    assert "NaN" in corrupted
    with pytest.raises(CheckError, match="NaN"):
        check_witness_report(corrupted, inputs, WITNESS_TOL)


def test_witness_rejects_missing_field(witness_case):
    inputs, text = witness_case
    report = json.loads(text)
    del report["rows"][2]["verdict"]
    with pytest.raises(CheckError, match="malformed"):
        check_witness_report(json.dumps(report), inputs, WITNESS_TOL)


def test_witness_rejects_wrong_summary(witness_case):
    inputs, text = witness_case
    report = json.loads(text)
    report["summary"]["nonclassical_SI"] += 1
    with pytest.raises(CheckError, match="summary"):
        check_witness_report(json.dumps(report), inputs, WITNESS_TOL)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def validate_report(trials=200, seed=9):
    suites = [
        ("gaussian_fock_agreement", trials, 5e-14, ""),
        ("classicality_nonnegativity", trials, 0.0, ""),
        ("channel_laws", min(trials, 100), 1.356e-09, "bath-fold deviation 1.356e-09"),
        ("reorder_matrix_equality", min(trials, 100), 3e-14, ""),
    ]
    return {
        "all_passed": True,
        "config": {"cutoff_max": 128, "seed": seed, "trials": trials},
        "suites": [{"detail": detail, "max_deviation": deviation, "name": name,
                    "passed": True, "trials": n} for name, n, deviation, detail in suites],
    }


def test_validate_accepts_passing_report():
    check_validate_report(json.dumps(validate_report()), 9, 200, 128)


def test_validate_rejects_missing_suite():
    report = validate_report()
    del report["suites"][2]
    with pytest.raises(CheckError, match="suites"):
        check_validate_report(json.dumps(report), 9, 200, 128)


def test_validate_rejects_wrong_trials_and_loose_deviation():
    report = validate_report()
    report["suites"][0]["trials"] = 100
    with pytest.raises(CheckError, match="trials"):
        check_validate_report(json.dumps(report), 9, 200, 128)
    report = validate_report()
    report["suites"][3]["max_deviation"] = 2e-10
    with pytest.raises(CheckError, match="reorder_matrix_equality"):
        check_validate_report(json.dumps(report), 9, 200, 128)
    report = validate_report()
    report["suites"][2]["max_deviation"] = 2e-9  # above both the law tolerance and the fold
    with pytest.raises(CheckError, match="scaling-law"):
        check_validate_report(json.dumps(report), 9, 200, 128)


def test_validate_rejects_infinity_token():
    text = json.dumps(validate_report()).replace("5e-14", "Infinity")
    with pytest.raises(CheckError, match="Infinity"):
        check_validate_report(text, 9, 200, 128)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure_case(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    points = 41
    outputs = {}
    for figure in ("fluctuations", "noise-sweep", "robustness"):
        cli("reproduce", "--figure", figure, "--out", str(out), "--svg",
            "--points", str(points))
        stem = out / figure.replace("-", "_")
        outputs[figure] = [stem.with_suffix(".csv").read_text(),
                           Path(f"{stem}_summary.json").read_text(),
                           stem.with_suffix(".svg").read_text()]
    return points, outputs


@pytest.mark.parametrize("figure", ["fluctuations", "noise-sweep", "robustness"])
def test_figure_accepts_real_output(figure_case, figure):
    points, outputs = figure_case
    check_figure(figure, points, *outputs[figure])


@pytest.mark.parametrize("figure,column", [("fluctuations", 1), ("noise-sweep", 3),
                                           ("robustness", 2)])
def test_figure_rejects_value_off_by_1e_6(figure_case, figure, column):
    points, outputs = figure_case
    lines = outputs[figure][0].splitlines()
    cells = lines[5].split(",")
    cells[column] = repr(float(cells[column]) + 1e-6)
    lines[5] = ",".join(cells)
    with pytest.raises(CheckError, match=figure):
        check_figure(figure, points, "\n".join(lines) + "\n", *outputs[figure][1:])


def test_figure_rejects_summary_minimum_not_from_column(figure_case):
    points, outputs = figure_case
    summary = json.loads(outputs["noise-sweep"][1])
    summary["coherent_lo"]["min_noise_db"] = -99.0
    with pytest.raises(CheckError, match="min_noise_db"):
        check_figure("noise-sweep", points, outputs["noise-sweep"][0],
                     json.dumps(summary), outputs["noise-sweep"][2])


def test_figure_rejects_truncated_svg(figure_case):
    points, outputs = figure_case
    csv_text, summary, svg = outputs["robustness"]
    with pytest.raises(CheckError, match="SVG"):
        check_figure("robustness", points, csv_text, summary, svg[: len(svg) // 2])


def test_strict_json_rejects_extensions():
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(CheckError):
            strict_json(f'{{"x": {token}}}')


# ---------------------------------------------------------------------------
# tracer and metric names
# ---------------------------------------------------------------------------

def traced(tmp_path, argvs):
    spec = tmp_path / "spec.json"
    result = tmp_path / "result.json"
    spec.write_text(json.dumps({"argvs": argvs, "trace": True}))
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec), str(result)],
                   env=ENV, check=True)
    return json.loads(result.read_text())


def test_tracer_counts_calls_and_rebinds_imported_names(tmp_path):
    result = traced(tmp_path, [["reproduce", "--figure", "robustness",
                                "--out", str(tmp_path / "out"), "--points", "11"]])
    assert [op["code"] for op in result["ops"]] == [0]
    layers = result["layers"]
    # cli binds build_figure by name, so its span shows only if cli's name
    # was rebound too.
    assert layers["calls"]["figures.build_figure"] == 1
    assert layers["counts"]["figures.points"] == 22
    assert layers["calls"]["channels.apply_loss"] == 11
    assert layers["calls"]["channels.apply_gain_noise"] == 11
    assert all(seconds >= 0 for seconds in layers["self_s"].values())
    total = sum(layers["self_s"].values())
    assert total <= result["ops"][0]["wall_s"] * 1.01


def test_every_per_layer_metric_names_a_span_or_count():
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = {"cli.read_moment_records.rows", "cli.output_bytes", "figures.points",
              "fock.converged_cutoff.states_built", "fock.truncation_refusals"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in counts or name.startswith("import."):
            continue
        span, _, kind = name.rpartition(".")
        assert kind in ("s", "calls"), name
        span = span.replace("fock_state.pure", "fock_state").replace(
            "fock_state.mixed", "fock_state")
        module, function = span.split(".")
        fn = getattr(importlib.import_module(f"squeezewitness.{module}"), function)
        assert callable(fn) and not function.startswith("_"), name
