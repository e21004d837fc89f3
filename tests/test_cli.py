import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezewitness
from squeezewitness.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    InputError,
    MomentRecord,
    RunConfig,
    cmd_reproduce,
    cmd_witness,
    main,
    read_moment_records,
)
from squeezewitness.figures import build_figure, render_csv


class TestMomentRecord:
    def test_valid_row(self):
        record = MomentRecord(theta_rad=0.1, var_L=0.2, nb=0.3, na=0.4)
        assert record.nb == 0.3

    def test_invariants(self):
        with pytest.raises(ValueError, match="var_L"):
            MomentRecord(theta_rad=0.0, var_L=-1.0, nb=0.1)
        with pytest.raises(ValueError, match="nb"):
            MomentRecord(theta_rad=0.0, var_L=1.0, nb=0.0)
        with pytest.raises(ValueError, match="na"):
            MomentRecord(theta_rad=0.0, var_L=1.0, nb=0.1, na=-0.5)


class TestFigures:
    def test_fluctuations_row_count_and_header(self):
        figure = build_figure("fluctuations", points=37)
        text = render_csv(figure)
        lines = text.strip().split("\n")
        assert lines[0] == "theta_rad,partial_no,full_no"
        assert len(lines) == 38

    def test_fluctuations_extrema(self):
        figure = build_figure("fluctuations")
        assert len(figure.rows) == 361
        assert figure.summary["min_partial_no"] >= -1e-12
        assert figure.summary["min_full_no"] == pytest.approx(-0.498813, abs=1e-4)

    def test_noise_sweep_raw_csv_keeps_minus_infinity(self):
        figure = build_figure("noise-sweep", points=13)
        text = render_csv(figure)
        assert "-inf" in text
        coherent_rows = [row for row in figure.rows if row[0] == "coherent"]
        noise = [row[4] for row in coherent_rows]
        assert all(b < a for a, b in zip(noise, noise[1:]))

    def test_robustness_laws_hold_on_grid(self):
        figure = build_figure("robustness", points=11)
        assert figure.summary["max_loss_law_deviation"] < 1e-12
        assert figure.summary["max_gain_law_deviation"] < 1e-12
        assert figure.summary["loss_creates_negativity"] is False

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            build_figure("nope")

    def test_headers_are_pinned(self):
        assert build_figure("fluctuations", points=3).header == \
            ("theta_rad", "partial_no", "full_no")
        assert build_figure("noise-sweep", points=3).header == \
            ("lo_kind", "nb", "theta_rad", "var_L", "noise_db")
        assert build_figure("robustness", points=3).header == \
            ("channel", "param", "partial_no", "predicted")


class TestReproduceCommand:
    def test_writes_expected_files(self, tmp_path):
        config = RunConfig(figure="fluctuations", out=str(tmp_path / "out"),
                           svg=True, points=19)
        written = cmd_reproduce(config)
        names = [p.name for p in written]
        assert names == ["fluctuations.csv", "fluctuations_summary.json",
                         "fluctuations.svg"]
        for path in written:
            assert path.exists()
        summary = json.loads(written[1].read_text())
        assert summary["points"] == 19
        svg = written[2].read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_no_svg_by_default(self, tmp_path):
        config = RunConfig(figure="robustness", out=str(tmp_path), points=5)
        written = cmd_reproduce(config)
        assert [p.suffix for p in written] == [".csv", ".json"]

    def test_unknown_figure_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="unknown figure"):
            cmd_reproduce(RunConfig(figure="bogus", out=str(tmp_path)))

    def test_cli_exit_codes(self, tmp_path, capsys):
        assert main(["reproduce", "--figure", "bogus",
                     "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert "unknown figure" in capsys.readouterr().err
        assert main(["reproduce", "--figure", "noise-sweep", "--points", "7",
                     "--out", str(tmp_path)]) == EXIT_OK


def write_csv(tmp_path, text):
    path = tmp_path / "moments.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestWitnessCommand:
    def test_example_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            "theta_rad,var_L,nb\n"
            "1.5708,0.0620,0.1241\n"
            "0,0.1241,0.1241\n")
        out = tmp_path / "report.json"
        report = cmd_witness(RunConfig(input_path=path, out=str(out)))
        rows = report["rows"]
        assert rows[0]["partial_no"] == pytest.approx(-0.0621, abs=1e-12)
        assert rows[0]["noise_db"] == pytest.approx(-3.01, abs=5e-3)
        assert rows[0]["verdict"] == "nonclassical_SI"
        assert rows[1]["partial_no"] == pytest.approx(0.0, abs=1e-15)
        assert rows[1]["noise_db"] == pytest.approx(0.0, abs=1e-15)
        assert rows[1]["verdict"] == "classical_consistent"
        assert report["summary"] == {"n_rows": 2, "nonclassical_SI": 1,
                                     "classical_consistent": 1}
        assert json.loads(out.read_text())["summary"]["n_rows"] == 2

    def test_full_ordering_reported_only_with_na(self, tmp_path):
        path = write_csv(
            tmp_path,
            "theta_rad,var_L,nb,na\n"
            "0.0,0.62530,0.12411,1.0\n")
        report = cmd_witness(RunConfig(input_path=path, out=str(tmp_path / "r.json")))
        row = report["rows"][0]
        assert row["full_no"] == pytest.approx(0.62530 - 0.12411 - 1.0, abs=1e-12)
        assert row["standard_negativity"] is True
        assert row["verdict"] == "classical_consistent"

        path2 = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.62530,0.12411\n")
        report2 = cmd_witness(RunConfig(input_path=path2, out=str(tmp_path / "r2.json")))
        assert "full_no" not in report2["rows"][0]

    def test_zero_variance_row(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.5,0.0,0.1\n")
        report = cmd_witness(RunConfig(input_path=path, out=str(tmp_path / "r.json")))
        assert report["rows"][0]["noise_db"] == "-inf"
        assert report["rows"][0]["verdict"] == "nonclassical_SI"

    def test_bad_calibration_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            "theta_rad,var_L,nb\n0.0,0.1,0.2\n0.1,0.1,0.0\n")
        with pytest.raises(InputError, match="line 3"):
            read_moment_records(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,abc,0.2\n")
        with pytest.raises(InputError, match="line 2"):
            read_moment_records(path)

    def test_wrong_cell_count_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.1\n")
        with pytest.raises(InputError, match="line 2"):
            read_moment_records(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L\n0.0,0.1\n")
        with pytest.raises(InputError, match="nb"):
            read_moment_records(path)

    def test_extra_columns_warned_and_ignored(self, tmp_path, capsys):
        path = write_csv(
            tmp_path,
            "theta_rad,var_L,nb,detector_id\n0.0,0.2,0.1,7\n")
        records, warnings = read_moment_records(path)
        assert len(records) == 1
        assert records[0].var_L == 0.2
        assert any("detector_id" in w for w in warnings)
        code = main(["witness", "--input", path,
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_OK
        assert "detector_id" in capsys.readouterr().err

    def test_cli_exit_code_on_bad_input(self, tmp_path, capsys):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.1,0.0\n")
        code = main(["witness", "--input", path,
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT_ERROR
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code = main(["witness", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT_ERROR

    def test_blank_lines_skipped(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.2,0.1\n\n")
        records, _ = read_moment_records(path)
        assert len(records) == 1


class TestValidateCommand:
    def test_zero_trials_vacuous_pass(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(["validate", "--trials", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert "vacuous" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert all(s["passed"] for s in report["suites"])

    def test_small_run_passes_and_reports(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["validate", "--trials", "3", "--seed", "7",
                     "--cutoff-max", "128", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert {s["name"] for s in report["suites"]} == {
            "gaussian_fock_agreement", "classicality_nonnegativity",
            "channel_laws", "reorder_matrix_equality"}
        gauss = [s for s in report["suites"]
                 if s["name"] == "gaussian_fock_agreement"][0]
        assert gauss["max_deviation"] <= 1e-6

    def test_forced_truncation_failure_is_reported_not_raised(self, capsys):
        # A tiny cutoff ceiling cannot hold alpha up to 2; the suite must
        # report failure rather than crash.
        code = main(["validate", "--trials", "3", "--seed", "7",
                     "--cutoff-max", "4"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        gauss = [s for s in report["suites"]
                 if s["name"] == "gaussian_fock_agreement"][0]
        assert gauss["passed"] is False
        assert "settle" in gauss["detail"]


def test_cli_import_loads_no_scipy():
    # scipy is needed only by the bath fold inside ``validate``.
    code = ("import sys, squeezewitness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(squeezewitness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"
