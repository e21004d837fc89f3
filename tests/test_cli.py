import errno
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from forking import (
    assert_no_child_left,
    fail_fork,
    fail_pipe,
    open_descriptors,
    use_cores,
)
from hypothesis import given, settings, strategies as st

import squeezewitness
import squeezewitness.cli as cli
from squeezewitness.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    REPORT_BLOCK_ROWS,
    WITNESS_COLUMNS,
    InputError,
    cmd_reproduce,
    cmd_validate,
    cmd_witness,
    main,
)
from squeezewitness.figures import build_figure, render_csv
from squeezewitness.validate import suite_channel_laws
from squeezewitness.witness import ZERO_VARIANCE_TOL, witness_values

DATA = Path(__file__).resolve().parent / "data"
CEILING_RULE = "cutoff_max must be a power of two from 4 to 512, the oracle's cap, got "


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

    @pytest.mark.parametrize("points", [2, 7, 60, 61, 400])
    def test_noise_sweep_summary_minima_are_column_minima(self, points):
        figure = build_figure("noise-sweep", points=points)
        for kind in ("coherent", "squeezed"):
            column_min = min(row[4] for row in figure.rows if row[0] == kind)
            summary_min = figure.summary[f"{kind}_lo"]["min_noise_db"]
            assert summary_min == ("-inf" if column_min == -np.inf else column_min)
        assert figure.summary["squeezed_lo"]["min_noise_db"] == "-inf"

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
        written = cmd_reproduce("fluctuations", str(tmp_path / "out"),
                                svg=True, points=19)
        names = [p.name for p in written]
        assert names == ["fluctuations.csv", "fluctuations_summary.json",
                         "fluctuations.svg"]
        for path in written:
            assert path.exists()
        summary = json.loads(written[1].read_text())
        assert summary["points"] == 19
        svg = written[2].read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("figure", ["fluctuations", "noise-sweep", "robustness"])
    def test_golden_figure(self, tmp_path, figure):
        # tests/data/figures holds `reproduce --svg` of each figure at its
        # default points: the CSV, the summary JSON and the SVG.
        for path in cmd_reproduce(figure, str(tmp_path), svg=True):
            assert path.read_bytes() == (DATA / "figures" / path.name).read_bytes(), path.name

    def test_no_svg_by_default(self, tmp_path):
        written = cmd_reproduce("robustness", str(tmp_path), points=5)
        assert [p.suffix for p in written] == [".csv", ".json"]

    def test_unknown_figure_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="unknown figure"):
            cmd_reproduce("bogus", str(tmp_path))

    def test_cli_exit_codes(self, tmp_path, capsys):
        assert main(["reproduce", "--figure", "bogus",
                     "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert "unknown figure" in capsys.readouterr().err
        assert main(["reproduce", "--figure", "noise-sweep", "--points", "7",
                     "--out", str(tmp_path)]) == EXIT_OK


def fail_output(monkeypatch, nth, limit):
    """Make the ``nth`` output file opened (0-based), a new file or a link
    written in place, fail with ENOSPC once it holds ``limit`` bytes, as a
    full disk does."""
    open_path = Path.open
    opened = []

    class FullDisk(io.FileIO):
        def write(self, data):
            room = limit - self.tell()
            if room <= 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(bytes(data)[:room])

    def open_full(self, mode="r", *args, **kwargs):
        if mode in ("wb", "xb"):
            opened.append(self)
            if len(opened) == nth + 1:
                return io.BufferedWriter(FullDisk(self, mode))
        return open_path(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_full)


def listing(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestOutputWriteFailure:
    """A failed write exits 2 and leaves the previous file, or none, whole."""

    # Where in the file the write fails: at its first byte, its middle or
    # its last byte.
    SPOTS = {"first": lambda size: 0, "middle": lambda size: size // 2,
             "last": lambda size: size - 1}

    @pytest.mark.parametrize("spot", SPOTS)
    @pytest.mark.parametrize("nth", [0, 1, 2])
    @pytest.mark.parametrize("previous", [True, False])
    def test_reproduce(self, tmp_path, monkeypatch, capsys, spot, nth, previous):
        argv = ["reproduce", "--figure", "fluctuations", "--svg", "--out"]
        assert main(argv + [str(tmp_path / "fresh")]) == EXIT_OK
        written = listing(tmp_path / "fresh")
        out = tmp_path / "out"
        out.mkdir()
        if previous:  # a smaller grid, so that every file differs from this run's
            assert main(argv + [str(out), "--points", "11"]) == EXIT_OK
        before = listing(out)
        assert all(before[name] != written[name] for name in before)
        names = ["fluctuations.csv", "fluctuations_summary.json", "fluctuations.svg"]
        fail_output(monkeypatch, nth, self.SPOTS[spot](len(written[names[nth]])))
        capsys.readouterr()
        assert main(argv + [str(out)]) == EXIT_INPUT_ERROR
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        # Every file is replaced only once all are written: a failure at any
        # of them leaves every previous file, or none, and no new file.
        assert listing(out) == before

    def test_reproduce_onto_a_directory_keeps_every_file(self, tmp_path, capsys):
        # The summary's target is a directory, which fails after the new CSV
        # is written: the previous CSV is kept.
        argv = ["reproduce", "--figure", "fluctuations", "--out", str(tmp_path), "--points"]
        assert main(argv + ["11"]) == EXIT_OK
        csv = (tmp_path / "fluctuations.csv").read_bytes()
        summary = tmp_path / "fluctuations_summary.json"
        summary.unlink()
        summary.mkdir()
        assert main(argv + ["13"]) == EXIT_INPUT_ERROR
        assert "fluctuations_summary.json" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "fluctuations.csv", "fluctuations_summary.json"]
        assert (tmp_path / "fluctuations.csv").read_bytes() == csv

    def test_failed_render_keeps_every_file(self, tmp_path, monkeypatch, capsys):
        # Every file's bytes are made before any is written: a plot that
        # cannot be drawn leaves the previous run's files as they were.
        argv = ["reproduce", "--figure", "fluctuations", "--svg", "--out", str(tmp_path)]
        assert main(argv + ["--points", "11"]) == EXIT_OK
        before = listing(tmp_path)

        def failed_plot(*args, **kwargs):
            raise ValueError("series 'full_no' holds nan at index 3")

        monkeypatch.setattr(cli, "line_plot_svg", failed_plot)
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: series 'full_no' holds nan at index 3\n"
        assert listing(tmp_path) == before

    @pytest.mark.parametrize("spot", SPOTS)
    @pytest.mark.parametrize("previous", [True, False])
    def test_validate_out(self, tmp_path, monkeypatch, capsys, spot, previous):
        argv = ["validate", "--trials", "2", "--cutoff-max", "128", "--out"]
        assert main(argv + [str(tmp_path / "fresh.json")]) == EXIT_OK
        size = (tmp_path / "fresh.json").stat().st_size
        out = tmp_path / "out"
        out.mkdir()
        if previous:
            (out / "v.json").write_bytes(b"previous report\n")
        before = listing(out)
        fail_output(monkeypatch, 0, self.SPOTS[spot](size))
        assert main(argv + [str(out / "v.json")]) == EXIT_INPUT_ERROR
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert listing(out) == before

    @pytest.mark.parametrize("command", ["validate", "reproduce", "witness"])
    def test_a_failed_standard_output_exits_2(self, tmp_path, capsys, command):
        # validate writes its report to stdout; reproduce and witness print
        # each path they wrote.
        argv = {
            "validate": ["validate", "--trials", "0"],
            "reproduce": ["reproduce", "--figure", "fluctuations", "--points", "3",
                          "--out", str(tmp_path)],
            "witness": ["witness", "--input", write_csv(tmp_path, "theta_rad,var_L,nb\n0,1,1\n"),
                        "--out", str(tmp_path / "out.json")],
        }[command]

        class FullStream:  # no descriptor, and no close that flushes again
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with redirect_stdout(FullStream()):
            assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot write standard output: [Errno 28] {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("case, code", [
        ("missing-input", EXIT_INPUT_ERROR), ("unwritable-out", EXIT_INPUT_ERROR),
        ("extra-column", EXIT_OK), ("full-stdout", EXIT_INPUT_ERROR)])
    def test_a_failed_standard_error_changes_no_outcome(self, tmp_path, case, code):
        # The same exit code and files as a run whose stderr takes every
        # error and warning.
        class FullStream:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        csv = write_csv(tmp_path, "theta_rad,var_L,nb,run_id\n0,0.5,1,7\n")
        outcomes = []
        for name, stderr in [("working", io.StringIO()), ("full", FullStream())]:
            out = tmp_path / name
            out.mkdir()
            argv = {
                "missing-input": ["witness", "--input", str(tmp_path / "nope.csv"),
                                  "--out", str(out / "r.json")],
                # A directory cannot be written as the report.
                "unwritable-out": ["validate", "--trials", "2", "--cutoff-max", "8",
                                   "--out", str(out)],
                "extra-column": ["witness", "--input", csv, "--out", str(out / "r.json")],
                "full-stdout": ["validate", "--trials", "0"],
            }[case]
            stdout = FullStream() if case == "full-stdout" else io.StringIO()
            with redirect_stderr(stderr), redirect_stdout(stdout):
                outcomes.append((main(argv), listing(out)))
            if name == "working":
                assert stderr.getvalue().startswith("warning" if code == EXIT_OK else "error")
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code
        assert bool(outcomes[0][1]) == (case == "extra-column")

    def test_a_link_is_written_through(self, tmp_path):
        # A link such as /dev/stdout is the user's: it is written through,
        # not replaced.
        target = tmp_path / "target.json"
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["validate", "--trials", "0", "--out", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert json.loads(target.read_text())["all_passed"] is True


@pytest.mark.parametrize("command", ["reproduce", "witness", "validate"])
def test_a_replaced_file_keeps_its_mode(tmp_path, command):
    out = tmp_path / "out.json"
    argv = {
        "reproduce": ["reproduce", "--figure", "robustness", "--points", "5",
                      "--out", str(tmp_path)],
        "witness": ["witness", "--input", write_csv(tmp_path, "theta_rad,var_L,nb\n0,1,1\n"),
                    "--out", str(out)],
        "validate": ["validate", "--trials", "0", "--out", str(out)],
    }[command]
    if command == "reproduce":
        out = tmp_path / "robustness.csv"
    out.write_bytes(b"previous\n")
    out.chmod(0o600)
    assert main(argv) == EXIT_OK
    assert out.read_bytes() != b"previous\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


def write_csv(tmp_path, text):
    path = tmp_path / "moments.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_report(path):
    """A written witness report, parsed as strict JSON."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


class TestWitnessCommand:
    def test_example_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            "theta_rad,var_L,nb\n"
            "1.5708,0.0620,0.1241\n"
            "0,0.1241,0.1241\n")
        out = tmp_path / "report.json"
        report = cmd_witness(path, str(out))
        rows = read_report(out)["rows"]
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
        cmd_witness(path, str(tmp_path / "r.json"))
        row = read_report(tmp_path / "r.json")["rows"][0]
        assert row["full_no"] == pytest.approx(0.62530 - 0.12411 - 1.0, abs=1e-12)
        assert row["standard_negativity"] is True
        assert row["verdict"] == "classical_consistent"

        path2 = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.62530,0.12411\n")
        cmd_witness(path2, str(tmp_path / "r2.json"))
        assert "full_no" not in read_report(tmp_path / "r2.json")["rows"][0]

    def test_zero_variance_row(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.5,0.0,0.1\n")
        cmd_witness(path, str(tmp_path / "r.json"))
        report = read_report(tmp_path / "r.json")
        assert report["rows"][0]["noise_db"] == "-inf"
        assert report["rows"][0]["verdict"] == "nonclassical_SI"

    def test_overflowing_ratio_gives_finite_noise_db(self, tmp_path):
        # var_L / nb overflows a float; the noise parameter must not.
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0,1e10,1e-300\n")
        out = tmp_path / "report.json"
        assert main(["witness", "--input", path, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"),
                            parse_constant=_reject_constant)
        assert report["rows"][0]["noise_db"] == 3100.0

    def test_bad_calibration_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            "theta_rad,var_L,nb\n0.0,0.1,0.2\n0.1,0.1,0.0\n")
        with pytest.raises(InputError, match="line 3"):
            cmd_witness(path, str(tmp_path / "r.json"))

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,abc,0.2\n")
        with pytest.raises(InputError, match="line 2"):
            cmd_witness(path, str(tmp_path / "r.json"))

    def test_wrong_cell_count_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.1\n")
        with pytest.raises(InputError, match="line 2"):
            cmd_witness(path, str(tmp_path / "r.json"))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L\n0.0,0.1\n")
        with pytest.raises(InputError, match="nb"):
            cmd_witness(path, str(tmp_path / "r.json"))

    def test_extra_columns_warned_and_ignored(self, tmp_path, capsys):
        path = write_csv(
            tmp_path,
            "theta_rad,var_L,nb,detector_id\n0.0,0.2,0.1,7\n")
        lines, width, at, warnings = cli._read_header(path)
        columns, given, _ = cli._read_rows(lines[1:], width, at, 2)
        assert columns.tolist() == [[0.0], [0.2], [0.1], [0.0]]
        assert given.tolist() == [False]
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
        lines, width, at, _ = cli._read_header(path)
        columns, given, _ = cli._read_rows(lines[1:], width, at, 2)
        assert columns.shape == (len(WITNESS_COLUMNS), 1) and given.tolist() == [False]

    def test_columns_parsed_exactly(self, tmp_path):
        # A given na of 0 is reported with full_no; an empty na, read as 0,
        # is reported with neither.
        path = write_csv(tmp_path, "na,nb,var_L,theta_rad\n0,0.3,0.2,0.1\n\n,3,2,1\n")
        lines, width, at, warnings = cli._read_header(path)
        columns, given, _ = cli._read_rows(lines[1:], width, at, 2)
        assert warnings == []
        assert columns.flags.c_contiguous
        assert columns.tolist() == [[0.1, 1.0], [0.2, 2.0], [0.3, 3.0], [0.0, 0.0]]
        assert given.tolist() == [True, False]
        out = tmp_path / "report.json"
        cmd_witness(path, str(out))
        given_row, empty_row = read_report(out)["rows"]
        assert given_row["na"] == 0.0 and "full_no" in given_row
        assert "na" not in empty_row and "full_no" not in empty_row

    @pytest.mark.parametrize("row, column", [
        ("0.0,-1.0,0.1,", "var_L"),
        ("0.0,1.0,0.0,", "nb"),
        ("0.0,1.0,0.1,-0.5", "na"),
        ("nan,1.0,0.1,", "theta_rad"),
        ("0.0,inf,0.1,", "var_L"),
        ("0.0,1.0,nan,", "nb"),
        ("0.0,1.0,0.1,inf", "na"),
        ("0.0,nan,0.1,-0.5", "var_L"),
    ], ids=["var_L-negative", "nb-zero", "na-negative", "theta_rad-nan", "var_L-inf",
            "nb-nan", "na-inf", "var_L-nan-before-na-negative"])
    def test_out_of_range_cells_report_column_and_line(self, tmp_path, row, column):
        path = write_csv(tmp_path, f"theta_rad,var_L,nb,na\n0.0,0.2,0.1,0.3\n{row}\n")
        with pytest.raises(InputError, match=rf"^line 3: {column} = "):
            cmd_witness(path, str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("header, rows, message", [
        ("theta_rad,var_L,nb", "0.0,nan,0.1\n0.1,0.2,0.1\nnan,0.2,0.1\n",
         "line 2: var_L = nan is not finite"),
        ("theta_rad,var_L,nb", "0.0,0.2,0\n0.1,-1,0.1\n", "line 2: nb = 0.0 is not > 0"),
        ("theta_rad,var_L,nb", "0,nan,1\nx,1,1\n", "line 2: var_L = nan is not finite"),
        ("theta_rad,var_L,nb", "0,nan,1\n0,1\n", "line 2: var_L = nan is not finite"),
        # Within one line: the cell count, then a cell float() rejects, then
        # a cell that breaks its rule.
        ("theta_rad,var_L,nb", "0,nan,x\n", "line 2: could not convert string to float: 'x'"),
        ("theta_rad,var_L,nb", "0,nan\n", "line 2: expected 3 cells, got 2"),
        ("theta_rad,var_L,nb,na", "0,1,1,x\n",
         "line 2: could not convert string to float: 'x'"),
        # str.strip drops the information separators, which float() rejects.
        ("theta_rad,var_L,nb,na", "0,0.5,1,\x1c1\n",
         "line 2: could not convert string to float: '\\x1c1'"),
        ("theta_rad,var_L,nb,na", "0,0.5,1,\x1c\n",
         "line 2: could not convert string to float: '\\x1c'"),
        # float() reads 1_5 as 15.  A schema cell that holds _ is not a
        # number, in the same place in the order; an extra column may hold one.
        ("theta_rad,var_L,nb,na", "0.1,1_5,1.0,0.5\n",
         "line 2: could not convert string to float: '1_5'"),
        ("theta_rad,var_L,nb,run_1", "0,1,1,1_0\n0,nan, 1_5 ,1_0\n",
         "line 3: could not convert string to float: ' 1_5 '"),
        ("theta_rad,var_L,nb", "0,1,1\n0,1,x\n0,1_5,1\n",
         "line 3: could not convert string to float: 'x'"),
    ], ids=["kernel-rule-above-cli-rule", "cli-rule-below-kernel-rule",
            "out-of-range-above-malformed", "out-of-range-above-short-row",
            "unparsable-before-rule", "cell-count-before-rule", "unparsable-na",
            "separator-before-na", "separator-alone-in-na", "underscore",
            "underscore-before-rule", "unparsable-above-underscore"])
    def test_first_bad_line_is_named(self, tmp_path, capsys, header, rows, message):
        path = write_csv(tmp_path, f"{header}\n{rows}")
        code = main(["witness", "--input", path, "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with this mark.
        plain = b"theta_rad,var_L,nb\n0,0.5,1\n"
        reports = []
        for name, data in [("plain", plain), ("marked", b"\xef\xbb\xbf" + plain)]:
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            out = tmp_path / f"{name}.json"
            assert main(["witness", "--input", str(path), "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("data, message", [
        (b"theta_rad,var_L,nb\n0,0.5,1\n0,0.5,1\xe9\n",
         "line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        # After a byte-order mark, a blank line and \r\n line ends, at the end of the file.
        (b"\xef\xbb\xbftheta_rad,var_L,nb\r\n0,0.5,1\r\n\r\n0,0.5,1\xe9",
         "line 4: byte 0xe9 is not UTF-8 (unexpected end of data)"),
        (b"theta_rad,var_L,\xffnb\n0,0.5,1\n",
         "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
        # A file with no line, after any mark, has no line to name.
        (b"", "{path}: empty file"),
        (b"\xef\xbb\xbf", "{path}: empty file"),
    ], ids=["row", "marked-crlf-end", "header", "empty", "mark-only"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys, data, message):
        path = tmp_path / "moments.csv"
        path.write_bytes(data)
        out = tmp_path / "report.json"
        assert main(["witness", "--input", str(path), "--out", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("data, message", [
        (b"theta_rad,var_L,nb\n0,0.5,1\n0,0.5,1\xc2\x85\n0,nan,1\n",
         "line 4: var_L = nan is not finite"),
        (b"theta_rad,var_L,nb\n0,0.5,1\x0b\n0,0.5,1\n0,nan,1\n",
         "line 4: var_L = nan is not finite"),
        (b"theta_rad,var_L,nb\n0,0.5,1\xe2\x80\xa8\n0,0.5,1\n0,0.5,1\xe9\n",
         "line 4: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    ], ids=["nel", "vertical-tab", "line-separator"])
    def test_only_universal_newlines_end_a_line(self, tmp_path, capsys, data, message):
        # A NEL, a vertical tab or a U+2028 that ends line 2 or 3 starts no line.
        path = tmp_path / "moments.csv"
        path.write_bytes(data)
        out = tmp_path / "report.json"
        assert main(["witness", "--input", str(path), "--out", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_form_feed_in_a_cell_is_space_around_its_number(self, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_bytes(b"theta_rad,var_L,nb\n0,0.5\x0c,1\n")
        lines, width, at, warnings = cli._read_header(str(path))
        columns, _, _ = cli._read_rows(lines[1:], width, at, 2)
        assert (columns[1].tolist(), warnings) == ([0.5], [])

    @pytest.mark.parametrize("na", ["  ", "\x85", " \t\u2028"], ids=["spaces", "nel", "mixed"])
    def test_na_cell_of_whitespace_is_empty(self, tmp_path, na):
        path = write_csv(tmp_path, f"theta_rad,var_L,nb,na\n0,0.5,1,{na}\n")
        lines, width, at, _ = cli._read_header(path)
        columns, given, _ = cli._read_rows(lines[1:], width, at, 2)
        assert columns[:, 0].tolist() == [0.0, 0.5, 1.0, 0.0] and given.tolist() == [False]

    def test_unnamed_extra_column_is_named_by_position(self, tmp_path):
        # A header that ends in a comma has an empty last name.
        path = write_csv(tmp_path, "theta_rad,var_L,nb,,detector_id,\n0,0.5,1,2,7,\n")
        lines, width, at, warnings = cli._read_header(path)
        columns, _, _ = cli._read_rows(lines[1:], width, at, 2)
        assert columns[1].tolist() == [0.5]
        assert warnings == ["ignoring extra columns: unnamed column 4, detector_id, "
                            "unnamed column 6"]

    @pytest.mark.parametrize("row", ["0,0,1.7e308,1.7e308", "0,1e308,1.7e308,1.7e308"])
    def test_overflowing_full_no_reports_line(self, tmp_path, capsys, row):
        # Each cell is finite, but var_L - nb - na is not.
        path = write_csv(tmp_path, f"theta_rad,var_L,nb,na\n{row}\nx,1,1,1\n")
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["witness", "--input", path, "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: line 2: full_no = ")
        assert not out.exists()

    def test_largest_finite_full_no_is_reported(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb,na\n0,0,1e308,7e307\n")
        cmd_witness(path, str(tmp_path / "r.json"))
        assert read_report(tmp_path / "r.json")["rows"][0]["full_no"] == -1e308 - 7e307

    @pytest.mark.parametrize("column", ["theta_rad", "var_L", "nb", "na"])
    def test_repeated_schema_column_is_an_error(self, tmp_path, capsys, column):
        # The data row is malformed too: the header is judged before any row.
        path = write_csv(tmp_path, f"theta_rad,var_L,nb,na,{column}\n0,x\n")
        out = tmp_path / "r.json"
        assert main(["witness", "--input", path, "--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"column {column!r} appears 2 times" in err
        assert "line" not in err
        assert not out.exists()

    def test_repeated_extra_column_is_warned_and_ignored(self, tmp_path, capsys):
        path = write_csv(tmp_path, "theta_rad,run_id,var_L,nb,run_id\n0,a,0.5,1,b\n")
        out = tmp_path / "r.json"
        assert main(["witness", "--input", path, "--out", str(out)]) == EXIT_OK
        assert "ignoring extra columns: run_id, run_id" in capsys.readouterr().err
        assert read_report(out)["rows"][0]["var_L"] == 0.5

    def test_header_only_file_writes_no_rows(self, tmp_path):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n")
        out = tmp_path / "r.json"
        assert main(["witness", "--input", path, "--out", str(out)]) == EXIT_OK
        assert '\n  "rows": [],\n' in out.read_text(encoding="utf-8")
        report = read_report(out)
        assert report["rows"] == []
        assert report["summary"]["n_rows"] == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, tol):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.2,0.1\n")
        code = main(["witness", "--input", path, "--tol", tol,
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT_ERROR
        assert "tol" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("spelling", ["same", "relative", "symlink", "hard-link"])
    def test_out_that_is_the_input_exits_2_and_keeps_it(self, tmp_path, monkeypatch, capsys,
                                                         spelling):
        text = "theta_rad,var_L,nb\n0.0,0.2,0.1\n"
        path = write_csv(tmp_path, text)
        monkeypatch.chdir(tmp_path)
        out = {"same": path, "relative": "./moments.csv",
               "symlink": "link.json", "hard-link": "hard.json"}[spelling]
        if spelling == "symlink":
            Path(out).symlink_to(path)
        if spelling == "hard-link":
            os.link(path, out)
        before = listing(tmp_path)
        assert main(["witness", "--input", path, "--out", out]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: --out {out} is the input {path}: the report would replace it\n"
        assert listing(tmp_path) == before
        assert Path(path).read_text(encoding="utf-8") == text

    def test_a_device_out_is_not_the_input(self, tmp_path, capfd):
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.0,0.2,0.1\n")
        assert main(["witness", "--input", path, "--out", "/dev/stdout"]) == EXIT_OK
        assert '"n_rows": 1' in capfd.readouterr().out

    @pytest.mark.parametrize("csv", [None, "theta_rad,var_L,nb\n0.0,nan,0.1\n"],
                             ids=["missing-file", "bad-line"])
    def test_tol_is_checked_before_the_file_is_read(self, tmp_path, capsys, csv):
        path = str(tmp_path / "moments.csv") if csv is None else write_csv(tmp_path, csv)
        code = main(["witness", "--input", path, "--tol", "-1",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: tol must be finite and >= 0, got -1.0\n"


finite = st.floats(-1e6, 1e6, allow_nan=False)
nonnegative = st.floats(0.0, 1e6)
positive = st.floats(1e-6, 1e6)
VALID_ROW = st.tuples(finite, nonnegative, positive, st.none() | nonnegative)
VALID_ROWS = st.lists(VALID_ROW, max_size=6)


@st.composite
def edge_row(draw):
    """A valid row at the edges of the reader's range: any finite theta_rad,
    var_L of 0, ZERO_VARIANCE_TOL or 1.7e308, nb from 5e-324 to 1.7e308,
    and na empty or close below where full_no = var_L - nb - na overflows."""
    theta = draw(st.floats(allow_nan=False, allow_infinity=False))
    var_l = draw(st.sampled_from([0.0, ZERO_VARIANCE_TOL, 1.7e308]) | nonnegative)
    nb = draw(st.floats(5e-324, 1.7e308))
    edge = min(sys.float_info.max, sys.float_info.max + (var_l - nb))
    while not math.isfinite(var_l - nb - edge):
        edge = math.nextafter(edge, 0.0)
    return theta, var_l, nb, draw(st.none() | st.floats(edge * (1 - 1e-9), edge))


# Rows that mix VALID_ROWS' rows with rows at the edges of the reader's range.
EDGE_ROWS = st.lists(VALID_ROW | edge_row(), max_size=6)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
# Per column, cells that are finite but out of range.
OUT_OF_RANGE = {
    "theta_rad": st.nothing(),
    "var_L": st.floats(-1e6, -1e-300).map(repr),
    "nb": st.floats(-1e6, 0.0).map(repr),
    "na": st.floats(-1e6, -1e-300).map(repr),
}


# Cells for the reader, per column: in range, with the spaces that float()
# accepts, empty for na, and 1.7e308 but for na, so that full_no = var_L -
# nb - na stays finite.  The digit-group underscore that float() accepts is
# no number in a schema cell, but the extra run_id column may hold it.
READER_NUMBERS = {"theta_rad": finite, "var_L": nonnegative, "nb": positive,
                  "na": nonnegative, "run_id": finite}


def reader_cell(column):
    number = READER_NUMBERS[column].map(repr)
    if column == "run_id":
        number = number | st.just("1_0")
    if column == "na":
        number = number | st.just("")
    else:
        number = number | st.just("1.7e308")
    return number | number.map(" {} ".format)


# The report's echo rule for a cell, as written in the cli docstring.
PLAIN_DECIMAL = re.compile(r"-?(0|[1-9][0-9]*)\.[0-9]+")
# Per column, numbers whose every spelling below is in range: nb >= 1 stays
# > 0 when rounded to an integer or to k decimals.
SPELLED_NUMBERS = {"theta_rad": finite, "var_L": nonnegative, "nb": st.floats(1.0, 1e6),
                   "na": nonnegative}


def spelled_cell(column, plain_only):
    """A cell of ``column`` that float() reads: ``repr`` or ``%.{k}f`` with
    trailing zeros, and unless ``plain_only`` also ``%.18e``, an integer,
    ``+x``, ``.5``, a leading zero, an unsigned exponent or a cell with
    spaces around it; an empty na cell either way."""
    number = SPELLED_NUMBERS[column]
    cell = number.map(repr) | st.tuples(number, st.integers(1, 20)).map(
        lambda pair: f"{pair[0]:.{pair[1]}f}")
    if not plain_only:
        cell = (cell | number.map("{:.18e}".format) | number.map(lambda x: str(int(x)))
                | number.map(lambda x: f"+{abs(x)!r}") | st.integers(1, 99).map(".{}".format)
                | number.map(lambda x: f"0{abs(x)!r}") | st.integers(1, 99).map("{}.5e1".format)
                | cell.map(" {} ".format))
    return cell | st.just("") if column == "na" else cell


BAD_CELL = st.sampled_from(["theta_rad", "var_L", "nb", "na"]).flatmap(
    lambda column: st.tuples(st.just(column), NON_FINITE | OUT_OF_RANGE[column]))
# Lines that cannot be parsed: a non-number, an empty required cell, a
# digit-group underscore, too few or too many cells.
MALFORMED = st.sampled_from(["x,1.5,1.0,0.25", "0.5,,1.0,0.25", "0.5,1.5,1.0,1e",
                             "0.5,1_5,1.0,0.25", "0.5,1.5", "0.5,1.5,1.0,0.25,7"])


def bad_line(column, cell) -> str:
    """A row of valid cells but for ``cell`` in ``column``."""
    cells = {"theta_rad": "0.5", "var_L": "1.5", "nb": "1.0", "na": "0.25"}
    cells[column] = cell
    return ",".join(cells.values())


def moments_csv(rows, *bad) -> str:
    """CSV of the valid ``rows``, then one row per ``(column, cell)`` in ``bad``."""
    lines = ["theta_rad,var_L,nb,na"]
    for theta, var_l, nb, na in rows:
        lines.append(f"{theta!r},{var_l!r},{nb!r},{'' if na is None else repr(na)}")
    lines.extend(bad_line(column, cell) for column, cell in bad)
    return "\n".join(lines) + "\n"


class TestWitnessInputBoundaries:
    """The witness command fails closed on every cell it cannot interpret."""

    @given(VALID_ROWS, st.permutations(["theta_rad", "var_L", "nb", "na"]).flatmap(
        lambda columns: st.tuples(*(st.tuples(st.just(column),
                                              NON_FINITE | OUT_OF_RANGE[column])
                                    for column in columns[:2]))))
    @settings(max_examples=120, deadline=None)
    def test_bad_cell_exits_2_naming_its_line(self, rows, bads):
        # A second bad row, in another column, follows the first one.
        bad = bads[0]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "moments.csv"
            path.write_text(moments_csv(rows, *bads), encoding="utf-8")
            out = Path(tmp) / "report.json"
            stderr = io.StringIO()
            with redirect_stderr(stderr):
                code = main(["witness", "--input", str(path), "--out", str(out)])
            assert code == EXIT_INPUT_ERROR
            assert re.search(rf"\bline {len(rows) + 2}: {bad[0]} = ", stderr.getvalue())
            assert not out.exists()

    @given(VALID_ROWS, MALFORMED, BAD_CELL, st.data())
    @settings(max_examples=120, deadline=None)
    def test_earlier_of_malformed_and_out_of_range_line_is_named(
            self, rows, malformed, bad, data):
        body = moments_csv(rows).splitlines()[1:]
        body.insert(data.draw(st.integers(0, len(body)), label="malformed at"), malformed)
        out_of_range = bad_line(*bad)
        body.insert(data.draw(st.integers(0, len(body)), label="out of range at"),
                    out_of_range)
        first = min(body.index(malformed), body.index(out_of_range)) + 2
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "moments.csv"
            path.write_text("\n".join(["theta_rad,var_L,nb,na", *body]) + "\n",
                            encoding="utf-8")
            out = Path(tmp) / "report.json"
            stderr = io.StringIO()
            with redirect_stderr(stderr):
                code = main(["witness", "--input", str(path), "--out", str(out)])
            assert code == EXIT_INPUT_ERROR
            assert stderr.getvalue().startswith(f"error: line {first}: ")
            assert not out.exists()

    @given(EDGE_ROWS, st.floats(0.0, 10.0))
    @settings(max_examples=120, deadline=None)
    def test_valid_rows_give_strict_json_and_counts(self, rows, tol):
        # Every accepted row, up to the edges of the reader's range, gives
        # finite values but for noise_db = "-inf", which strict JSON reads.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "moments.csv"
            path.write_text(moments_csv(rows), encoding="utf-8")
            out = Path(tmp) / "report.json"
            code = main(["witness", "--input", str(path), "--tol", repr(tol),
                         "--out", str(out)])
            assert code == EXIT_OK
            report = json.loads(out.read_text(encoding="utf-8"),
                                parse_constant=_reject_constant)
        nonclassical = sum(1 for _, var_l, nb, _ in rows if var_l - nb < -tol)
        assert report["summary"] == {"n_rows": len(rows),
                                     "nonclassical_SI": nonclassical,
                                     "classical_consistent": len(rows) - nonclassical}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_reader_parses_each_line_or_names_the_bad_one(self, data):
        # The reader reads every cell as float() does, and an empty na as 0
        # and not given, or names the one bad line; an overflowing full_no is
        # bad only where na is given.
        names = ["theta_rad", "var_L", "nb"]
        names += [name for name in ("na", "run_id") if data.draw(st.booleans())]
        header = data.draw(st.permutations(names), label="header")
        width = len(header)
        cells = [reader_cell(column) for column in header]
        line = st.tuples(*cells).map(",".join)
        lines = data.draw(st.lists(line | st.sampled_from(["", "   "]), max_size=8),
                          label="lines")
        # Half the files get one bad line: a bad cell, an overflowing
        # full_no, or a cell too few or too many.
        bad_at = st.sampled_from([k for k, column in enumerate(header)
                                  if column in WITNESS_COLUMNS])
        malformed = st.sampled_from(["x", "1e", "1_0"])
        bad_cell = bad_at.flatmap(lambda k: st.tuples(
            *cells[:k], OUT_OF_RANGE[header[k]] | NON_FINITE | malformed,
            *cells[k + 1:])).map(",".join)
        overflow = {"var_L": "0", "nb": "1.7e308", "na": "1.7e308"}
        overflow_line = line.map(lambda text: ",".join(
            overflow.get(column, cell) for column, cell in zip(header, text.split(","))))
        wrong_width = st.sampled_from([width - 1, width + 1]).map(lambda k: ",".join("1" * k))
        bad_line_no = None
        if data.draw(st.booleans(), label="one bad line"):
            at = data.draw(st.integers(0, len(lines)), label="at")
            kind = data.draw(st.sampled_from(["cell", "overflow", "width"]), label="kind")
            lines.insert(at, data.draw({"cell": bad_cell, "overflow": overflow_line,
                                        "width": wrong_width}[kind], label="bad"))
            if kind != "overflow" or "na" in header:
                bad_line_no = at + 2
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "moments.csv"
            path.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")
            file_lines, width, at, _ = cli._read_header(str(path))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if bad_line_no is not None:
                    with pytest.raises(InputError, match=rf"^line {bad_line_no}: "):
                        cli._read_rows(file_lines[1:], width, at, 2)
                    return
                columns, given, _ = cli._read_rows(file_lines[1:], width, at, 2)
        rows = [text.split(",") for text in lines if text.strip()]
        texts = [[cells[header.index(column)] if column in header else ""
                  for column in WITNESS_COLUMNS] for cells in rows]
        expected = np.array([[float(text) if text.strip() else 0.0 for text in row]
                             for row in texts]).reshape(-1, len(WITNESS_COLUMNS)).T
        assert columns.tobytes() == expected.tobytes()
        assert given.tolist() == [bool(row[-1].strip()) for row in texts]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_reader_echoes_each_column_of_plain_decimals(self, data):
        # Cells spelled many ways, mixed within and across blocks of one to
        # four lines: a block's column is echoed exactly where every given
        # cell is a plain decimal, as the cells written, each of which strict
        # JSON reads as the float the reader parsed, bit for bit.
        names = ["theta_rad", "var_L", "nb"] + ["na"] * data.draw(st.booleans(), label="na")
        header = data.draw(st.permutations(names + ["run_id"]), label="header")
        plain_only = {column: data.draw(st.booleans(), label=f"{column} plain only")
                      for column in names}
        cells = [st.just("r") if column == "run_id" else spelled_cell(column, plain_only[column])
                 for column in header]
        lines = data.draw(st.lists(st.tuples(*cells).map(",".join) | st.just(""), max_size=12),
                          label="lines")
        block = data.draw(st.integers(1, 4), label="lines per block")
        width = len(header)
        at = tuple(header.index(column) if column in header else None
                   for column in WITNESS_COLUMNS)
        for start in range(0, len(lines), block):
            chunk = lines[start:start + block]
            columns, given, echoes = cli._read_rows(chunk, width, at, start + 2)
            rows = [line.split(",") for line in chunk if line.strip()]
            for column, k, values, echo in zip(WITNESS_COLUMNS, at, columns, echoes):
                if k is None:
                    assert echo is None
                    continue
                texts = [row[k] for row in rows]
                shown = given.tolist() if column == "na" else [True] * len(rows)
                written = [(text, value) for text, value, show in zip(texts, values, shown)
                           if show]
                assert (echo is not None) == all(PLAIN_DECIMAL.fullmatch(text)
                                                 for text, _ in written)
                if echo is None:
                    continue
                assert echo == texts
                for text, value in written:
                    read = json.loads(text, parse_constant=_reject_constant)
                    assert type(read) is float
                    assert np.float64(read).tobytes() == np.float64(float(text)).tobytes()
                    assert np.float64(read).tobytes() == value.tobytes()

    def test_a_column_of_plain_decimals_is_echoed_as_written(self, tmp_path):
        # The texts themselves, not their floats' repr: 0.50 stays 0.50 and
        # -0.000 keeps its sign; an empty na cell is never written.
        path = write_csv(tmp_path, "theta_rad,var_L,nb,na\n"
                                   "0.1,0.50,2.0,\n-0.000,25.835170,1.25,0.000\n")
        lines, width, at, _ = cli._read_header(path)
        columns, given, echoes = cli._read_rows(lines[1:], width, at, 2)
        assert echoes == [["0.1", "-0.000"], ["0.50", "25.835170"], ["2.0", "1.25"],
                          ["", "0.000"]]
        assert columns.tolist() == [[0.1, -0.0], [0.5, 25.83517], [2.0, 1.25], [0.0, 0.0]]
        out = tmp_path / "report.json"
        cmd_witness(path, str(out))
        text = out.read_text(encoding="utf-8")
        assert re.findall(r'"(?:theta_rad|var_L|na)": ([^,\n]+)', text) == [
            "0.1", "0.50", "0.000", "-0.000", "25.835170"]
        rows = read_report(out)["rows"]
        assert [row["var_L"] for row in rows] == [0.5, 25.83517]
        assert math.copysign(1.0, rows[1]["theta_rad"]) == -1.0


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def reference_report(rows, tol) -> str:
    """The witness report for ``rows`` (``(theta_rad, var_L, nb, na or
    None)``) as one ``json.dumps`` call lays it out: the reference layout for
    the report file, with its values from the kernel."""
    values = witness_values([row[1] for row in rows], [row[2] for row in rows],
                            [0.0 if row[3] is None else row[3] for row in rows], tol)
    report_rows = []
    for i, (theta, var_l, nb, na) in enumerate(rows):
        noise_db = float(values.noise_db[i])
        row = {"theta_rad": theta, "var_L": var_l, "nb": nb,
               "partial_no": float(values.partial_no[i]),
               "noise_db": "-inf" if noise_db == -np.inf else noise_db,
               "verdict": ("nonclassical_SI" if values.nonclassical[i]
                           else "classical_consistent")}
        if na is not None:
            row.update(na=na, full_no=float(values.full_no[i]),
                       standard_negativity=bool(values.standard_negativity[i]))
        report_rows.append(row)
    n_nonclassical = int(values.nonclassical.sum())
    payload = {"tol": tol, "rows": report_rows,
               "summary": {"n_rows": len(rows), "nonclassical_SI": n_nonclassical,
                           "classical_consistent": len(rows) - n_nonclassical}}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# Valid rows over the whole float range short of an overflowing full_no, so
# that every exponent form of a float's repr and var_L = 0 turn up.
WIDE_ROWS = st.lists(st.tuples(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1e300),
    st.floats(0.0, 1e300, exclude_min=True), st.none() | st.floats(0.0, 1e300)),
    max_size=6)


def mixed_rows(n):
    """``n`` seeded valid rows that mix an empty and a given ``na`` with
    ``var_L = 0`` (``noise_db`` ``"-inf"``) and rows at shot noise."""
    rng = np.random.default_rng(n)
    rows = []
    for i, (theta, var_l, nb, na) in enumerate(rng.uniform(0.1, 20.0, (n, 4)).tolist()):
        rows.append((theta - 10.0, (var_l, 0.0, nb)[i % 3], nb, None if i % 2 else na))
    return rows


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the report forks its workers")
class TestWitnessReportBlocks:
    """The report is the same bytes for any number of rows per core."""

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("n", [0, REPORT_BLOCK_ROWS, 3 * REPORT_BLOCK_ROWS,
                                   3 * REPORT_BLOCK_ROWS + 17])
    def test_report_is_json_dumps_layout(self, tmp_path, monkeypatch, cores, n):
        rows = mixed_rows(n)
        path = write_csv(tmp_path, moments_csv(rows))
        forks = use_cores(monkeypatch, cores)
        out = tmp_path / "report.json"
        cmd_witness(path, str(out))
        assert out.read_bytes() == reference_report(rows, 1e-9).encode("utf-8")
        blocks = -(-n // REPORT_BLOCK_ROWS)
        assert len(forks) == min(cores, blocks)
        assert_no_child_left()

    def test_without_fork_one_process_writes_the_same_bytes(self, tmp_path, monkeypatch):
        rows = mixed_rows(2 * REPORT_BLOCK_ROWS + 1)
        path = write_csv(tmp_path, moments_csv(rows))
        use_cores(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "report.json"
        cmd_witness(path, str(out))
        assert out.read_bytes() == reference_report(rows, 1e-9).encode("utf-8")

    @pytest.mark.parametrize("cores", [1, 2])
    def test_each_column_of_each_block_is_echoed_or_written_as_repr(self, tmp_path,
                                                                     monkeypatch, cores):
        # Blocks of two lines: var_L is echoed in the first block and written
        # as repr in the second, whose 2 is no plain decimal; the other
        # columns are echoed in both.
        path = write_csv(tmp_path, "theta_rad,var_L,nb\n0.1,0.50,1.0\n0.2,1.250,1.0\n"
                                   "0.3,0.50,1.0\n0.4,2,1.0\n")
        monkeypatch.setattr(cli, "REPORT_BLOCK_ROWS", 2)
        use_cores(monkeypatch, cores)
        out = tmp_path / "report.json"
        cmd_witness(path, str(out))
        text = out.read_text(encoding="utf-8")
        assert re.findall(r'"var_L": ([^,\n]+)', text) == ["0.50", "1.250", "0.5", "2.0"]
        assert re.findall(r'"theta_rad": ([^,\n]+)', text) == ["0.1", "0.2", "0.3", "0.4"]
        assert [row["var_L"] for row in read_report(out)["rows"]] == [0.5, 1.25, 0.5, 2.0]
        assert_no_child_left()

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_an_empty_na_column_is_no_column(self, data):
        # Every na cell empty: nothing, spaces, a NEL or a U+2028.  The report
        # is the bytes of the same rows with no na column, cut into blocks of
        # two or three lines on one to three cores.
        rows = [row[:3] for row in data.draw(VALID_ROWS, label="rows")]
        empty = st.sampled_from(["", "  ", "\x85", "\u2028"])
        cells = [",".join(map(repr, row)) for row in rows]
        with_na = [f"{row},{data.draw(empty, label='na')}" for row in cells]
        reports = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "REPORT_BLOCK_ROWS", data.draw(st.integers(2, 3), label="block"))
            use_cores(patch, data.draw(st.integers(1, 3), label="cores"))
            for name, header, body in [("na", "theta_rad,var_L,nb,na", with_na),
                                       ("plain", "theta_rad,var_L,nb", cells)]:
                path, out = Path(tmp) / f"{name}.csv", Path(tmp) / f"{name}.json"
                path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
                cmd_witness(str(path), str(out))
                reports.append(out.read_bytes())
            assert_no_child_left()
        assert reports[0] == reports[1]
        assert reports[1] == reference_report([(*row, None) for row in rows], 1e-9).encode()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_cut_into_blocks_gives_the_reader_and_the_reference(self, data):
        # Blocks of two or three lines, cut through blank lines and rows, and
        # at most one bad line anywhere: the command names the line that the
        # reader names, or writes the reference bytes.
        block_rows = data.draw(st.integers(2, 3), label="lines per block")
        cores = data.draw(st.integers(1, 3), label="cores")
        # Each line is a valid row's tuple or a blank line.
        lines = [line for piece in data.draw(st.lists(
            VALID_ROWS | st.sampled_from(["", "  "]).map(lambda blank: [blank])
            | st.just([""] * block_rows), max_size=6), label="pieces") for line in piece]
        rows = [line for line in lines if isinstance(line, tuple)]
        body = [line if isinstance(line, str) else moments_csv([line]).splitlines()[1]
                for line in lines]
        bad = data.draw(st.booleans(), label="one bad line")
        if bad:
            body.insert(data.draw(st.integers(0, len(body)), label="at"), data.draw(
                BAD_CELL.map(lambda cell: bad_line(*cell)) | MALFORMED, label="bad"))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            path = Path(tmp) / "moments.csv"
            path.write_text("\n".join(["theta_rad,var_L,nb,na", *body]) + "\n",
                            encoding="utf-8")
            out = Path(tmp) / "report.json"
            file_lines, width, at, _ = cli._read_header(str(path))
            try:
                cli._read_rows(file_lines[1:], width, at, 2)
            except InputError as exc:
                expected = str(exc)
            else:
                expected = None
            assert (expected is not None) == bad
            patch.setattr(cli, "REPORT_BLOCK_ROWS", block_rows)
            forks = use_cores(patch, cores)
            if expected is not None:
                with pytest.raises(InputError) as caught:
                    cmd_witness(str(path), str(out))
                assert str(caught.value) == expected
                assert not out.exists()
            else:
                cmd_witness(str(path), str(out))
                assert out.read_bytes() == reference_report(rows, 1e-9).encode("utf-8")
            assert len(forks) == min(cores, -(-len(body) // block_rows))
            assert_no_child_left()


# Characters that ``str.splitlines`` breaks lines at but a CSV reader does
# not.  ``float()`` skips the first five around a number; it rejects the
# information separators, which go in an extra column or a blank line.
FLOAT_SPACES = ["\x0b", "\x0c", "\x85", "\u2028", "\u2029"]
OTHER_BREAKS = FLOAT_SPACES + ["\x1c", "\x1d", "\x1e"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the report forks its workers")
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_lines_end_only_at_universal_newlines(data):
    # Mixed \n, \r\n and \r ends, the other separators in cells and blank
    # lines, and at most one bad line or one byte that is not UTF-8: the
    # reader and the command, cut into blocks of two or three lines, name the
    # line that re.split(r"\r\n|\r|\n", text) counts, or read every row.
    spaces = st.text(st.sampled_from(FLOAT_SPACES), max_size=2)

    def padded(cell):
        return data.draw(spaces) + cell + data.draw(spaces)

    rows = data.draw(VALID_ROWS, label="rows")
    lines = [",".join(map(padded, ["theta_rad", "var_L", "nb", "na", "note"]))]
    for theta, var_l, nb, na in rows:
        cells = [repr(theta), repr(var_l), repr(nb), "" if na is None else repr(na)]
        note = data.draw(st.text(st.sampled_from(OTHER_BREAKS + ["n"]), max_size=3))
        lines.append(",".join([*map(padded, cells), note]))
    for _ in range(data.draw(st.integers(0, 3), label="blank lines")):
        lines.insert(data.draw(st.integers(1, len(lines)), label="blank at"),
                     data.draw(st.text(st.sampled_from(OTHER_BREAKS + [" "]), max_size=2)))
    kind = data.draw(st.sampled_from(["none", "line", "byte"]), label="kind")
    bad_byte, bad_at = b"", None
    if kind == "line":
        bad = data.draw(BAD_CELL.map(lambda cell: bad_line(*cell)) | MALFORMED) + ","
        lines.insert(data.draw(st.integers(1, len(lines)), label="bad at"), bad)
    elif kind == "byte":
        bad_byte = data.draw(st.sampled_from([b"\xe9", b"\xff"]), label="byte")
        bad_at = data.draw(st.integers(0, len(lines) - 1), label="byte at")
    endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                 min_size=len(lines), max_size=len(lines)), label="ends")
    if data.draw(st.booleans(), label="no final line end"):
        endings[-1] = ""
    content = b"".join(line.encode("utf-8") + (bad_byte if k == bad_at else b"")
                       + ending.encode("ascii")
                       for k, (line, ending) in enumerate(zip(lines, endings)))
    split = re.split(rb"\r\n|\r|\n", content)
    if kind == "line":
        expected = rf"^line {split.index(bad.encode('ascii')) + 1}: "
    elif kind == "byte":
        at = next(k for k, line in enumerate(split) if bad_byte in line)
        expected = rf"^line {at + 1}: byte {bad_byte[0]:#04x} is not UTF-8 "
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path, out = Path(tmp) / "moments.csv", Path(tmp) / "report.json"
        path.write_bytes(content)
        patch.setattr(cli, "REPORT_BLOCK_ROWS", data.draw(st.integers(2, 3), label="block"))
        use_cores(patch, data.draw(st.integers(1, 3), label="cores"))
        if kind != "none":
            with pytest.raises(InputError, match=expected) as caught:
                file_lines, width, at, _ = cli._read_header(str(path))
                cli._read_rows(file_lines[1:], width, at, 2)
            with pytest.raises(InputError) as command:
                cmd_witness(str(path), str(out))
            assert str(command.value) == str(caught.value)
            assert not out.exists()
        else:
            file_lines, width, at, _ = cli._read_header(str(path))
            columns, given, _ = cli._read_rows(file_lines[1:], width, at, 2)
            want = [(theta, var_l, nb, 0.0 if na is None else na)
                    for theta, var_l, nb, na in rows]
            assert columns.tobytes() == np.array(want).reshape(-1, 4).T.tobytes()
            assert given.tolist() == [na is not None for *_, na in rows]
            with redirect_stderr(io.StringIO()):
                cmd_witness(str(path), str(out))
            assert out.read_bytes() == reference_report(rows, 1e-9).encode("utf-8")
        assert_no_child_left()


def break_workers(monkeypatch, fault):
    """Make every worker raise, or exit with status 0, at its first block;
    the fork inherits the patched reader, which only the workers call."""

    def faulty_read(lines, width, at, first):
        if fault == "raise":
            raise MemoryError
        os._exit(0)

    monkeypatch.setattr("squeezewitness.cli._read_rows", faulty_read)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the report forks its workers")
class TestWitnessReportFailure:
    """A report that cannot be written whole leaves the previous report, or
    none, no new file and no process."""

    # The disk fills at 1 MiB, partway through the report's rows.
    FULL = 1 << 20

    @pytest.fixture
    def witness(self, tmp_path, capsys):
        path = write_csv(tmp_path, moments_csv(mixed_rows(3 * REPORT_BLOCK_ROWS + 17)))

        def run(out=tmp_path / "report.json"):
            code = main(["witness", "--input", path, "--out", str(out)])
            assert code == EXIT_INPUT_ERROR
            assert_no_child_left()
            return capsys.readouterr().err

        return run

    @staticmethod
    def listing_before(tmp_path, previous):
        """The directory's files, after writing a previous report if ``previous``."""
        if previous:
            (tmp_path / "report.json").write_bytes(b"previous report\n")
        return listing(tmp_path)

    @pytest.mark.parametrize("fault, previous, cores", [
        ("raise", False, 3), ("exit", False, 3), ("raise", True, 3), ("exit", True, 3),
        ("raise", False, 1), ("exit", False, 1), ("raise", True, 2), ("exit", True, 2)],
        ids=["raise", "exit", "raise-previous", "exit-previous",
             "raise-1core", "exit-1core", "raise-previous-2cores", "exit-previous-2cores"])
    def test_worker_that_ends_early(self, tmp_path, monkeypatch, witness, fault, previous,
                                    cores):
        before = self.listing_before(tmp_path, previous)
        break_workers(monkeypatch, fault)
        forks = use_cores(monkeypatch, cores)
        assert "a formatting process ended before sending all its results" in witness()
        assert len(forks) == cores
        assert listing(tmp_path) == before

    def assert_no_worker_starts(self, tmp_path, monkeypatch, witness, cores, nth, previous,
                                fail):
        # One core forks one worker; two cores fork two, the second after the
        # first.  Each worker's pipe is made just before its fork.
        before = self.listing_before(tmp_path, previous)
        use_cores(monkeypatch, cores)
        descriptors = open_descriptors()
        error = fail(monkeypatch, nth)
        assert witness().endswith(f"a formatting process could not be started: {error}\n")
        assert listing(tmp_path) == before
        assert open_descriptors() == descriptors

    @pytest.mark.parametrize("cores, nth", [(1, 0), (2, 0), (2, 1)],
                             ids=["1core-first", "2cores-first", "2cores-second"])
    @pytest.mark.parametrize("previous", [False, True], ids=["none", "previous"])
    def test_failed_fork(self, tmp_path, monkeypatch, witness, cores, nth, previous):
        self.assert_no_worker_starts(tmp_path, monkeypatch, witness, cores, nth, previous,
                                     fail_fork)

    @pytest.mark.parametrize("cores, nth", [(1, 0), (2, 0), (2, 1)],
                             ids=["1core-first", "2cores-first", "2cores-second"])
    @pytest.mark.parametrize("previous", [False, True], ids=["none", "previous"])
    def test_failed_pipe(self, tmp_path, monkeypatch, witness, cores, nth, previous):
        self.assert_no_worker_starts(tmp_path, monkeypatch, witness, cores, nth, previous,
                                     fail_pipe)

    @pytest.mark.parametrize("previous", [False, True], ids=["none", "previous"])
    def test_worker_that_exits_nonzero(self, tmp_path, monkeypatch, witness, previous):
        before = self.listing_before(tmp_path, previous)
        use_cores(monkeypatch, 3)
        exit_now = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))  # only workers exit
        assert "a formatting process exited with code 3" in witness()
        assert listing(tmp_path) == before

    @pytest.mark.parametrize("cores, previous", [(1, False), (3, False), (1, True), (3, True)],
                             ids=["1", "3", "1-previous", "3-previous"])
    def test_failed_write_in_the_parent(self, tmp_path, monkeypatch, witness, cores,
                                        previous):
        before = self.listing_before(tmp_path, previous)
        fail_output(monkeypatch, 0, self.FULL)
        use_cores(monkeypatch, cores)
        assert os.strerror(errno.ENOSPC) in witness()
        assert listing(tmp_path) == before

    def test_failed_write_through_a_link_keeps_the_link(self, tmp_path, monkeypatch,
                                                        witness):
        # A link such as /dev/stdout is the user's, whatever it points to.
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "target.json")
        fail_output(monkeypatch, 0, self.FULL)
        use_cores(monkeypatch, 2)
        assert os.strerror(errno.ENOSPC) in witness(link)
        assert link.is_symlink()

    @pytest.mark.parametrize("fault", ["bad-line", "worker"])
    @pytest.mark.parametrize("previous", [False, True], ids=["absent", "previous"])
    def test_a_link_receives_nothing_of_a_failed_report(self, tmp_path, monkeypatch, capsys,
                                                        fault, previous):
        # The fault is in the last block: the blocks before it are made, but
        # none of their bytes reach the link's target.
        rows = mixed_rows(3 * REPORT_BLOCK_ROWS + 17)
        bad = [("var_L", "nan")] if fault == "bad-line" else []
        path = write_csv(tmp_path, moments_csv(rows, *bad))
        if fault == "worker":
            read_rows = cli._read_rows

            def dying_at_the_last_block(lines, width, at, first):
                if len(lines) < REPORT_BLOCK_ROWS:
                    os._exit(0)
                return read_rows(lines, width, at, first)

            monkeypatch.setattr(cli, "_read_rows", dying_at_the_last_block)
        target = tmp_path / "target.json"
        if previous:
            target.write_bytes(b"previous report\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        before = listing(tmp_path) if previous else {}
        use_cores(monkeypatch, 2)
        assert main(["witness", "--input", path, "--out", str(link)]) == EXIT_INPUT_ERROR
        assert_no_child_left()
        assert capsys.readouterr().err == {
            "bad-line": f"error: line {len(rows) + 2}: var_L = nan is not finite\n",
            "worker": f"error: cannot write {link}: a formatting process ended before "
                      "sending all its results\n"}[fault]
        assert link.is_symlink()
        if previous:
            assert listing(tmp_path) == before
        else:
            assert not target.exists()

    def test_warnings_only_once_every_line_has_passed(self, tmp_path, capsys):
        rows = ["0,0.5,1,7"] * (2 * REPORT_BLOCK_ROWS)
        header = "theta_rad,var_L,nb,run_id"
        out = tmp_path / "r.json"
        for last, err in [("0,nan,1,7", f"error: line {len(rows) + 2}: var_L = nan is not finite\n"),
                          ("0,0.5,1,7", "warning: ignoring extra columns: run_id\n")]:
            path = write_csv(tmp_path, "\n".join([header, *rows, last]) + "\n")
            code = main(["witness", "--input", path, "--out", str(out)])
            assert capsys.readouterr().err == err
            assert code == (EXIT_OK if err.startswith("warning") else EXIT_INPUT_ERROR)


class TestWitnessReportLayout:
    """The witness report file, byte for byte."""

    def test_golden_report(self, tmp_path):
        # witness_golden.csv holds eight seeded rows (numpy default_rng(9)),
        # then var_L = 0 with and without na, a row at shot noise, the
        # overflowing ratio 1e10 / 1e-300 and a negative theta_rad.
        out = tmp_path / "report.json"
        cmd_witness(str(DATA / "witness_golden.csv"), str(out))
        assert out.read_bytes() == (DATA / "witness_golden.json").read_bytes()

    def test_a_savetxt_csv_is_written_as_repr(self, tmp_path):
        # numpy.savetxt's default %.18e spells no cell as a plain decimal, so
        # each column of each block is written as repr, as json.dumps writes
        # it.  The golden report's 0,1e10,1e-300 row keeps 0.0,
        # 10000000000.0 and 1e-300.
        rows = [(theta, var_l, nb, 1.5 if na is None else na)
                for theta, var_l, nb, na in mixed_rows(REPORT_BLOCK_ROWS + 17)]
        path, out = tmp_path / "savetxt.csv", tmp_path / "report.json"
        np.savetxt(path, np.array(rows), delimiter=",", header="theta_rad,var_L,nb,na",
                   comments="")
        assert path.read_text(encoding="ascii").splitlines()[1].count("e") == 4
        cmd_witness(str(path), str(out))
        assert out.read_bytes() == reference_report(rows, 1e-9).encode("utf-8")
        cmd_witness(str(DATA / "witness_golden.csv"), str(out))
        golden = (DATA / "witness_golden.json").read_bytes()
        assert out.read_bytes() == golden
        assert (b'"nb": 1e-300,\n      "noise_db": 3100.0,\n      "partial_no": 10000000000.0,'
                b'\n      "theta_rad": 0.0,\n      "var_L": 10000000000.0,') in golden

    @given(VALID_ROWS | WIDE_ROWS, st.floats(0.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_report_is_json_dumps_layout(self, rows, tol):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "moments.csv"
            path.write_text(moments_csv(rows), encoding="utf-8")
            out = Path(tmp) / "report.json"
            cmd_witness(str(path), str(out), tol)
            written = out.read_bytes()
        assert written == reference_report(rows, tol).encode("utf-8")


class TestValidateCommand:
    def test_zero_trials_reports_what_the_suites_computed(self, tmp_path, capsys):
        # No scenario is drawn, yet the channel-law suite's bath fold runs.
        out = tmp_path / "v.json"
        code = main(["validate", "--trials", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        channel = [s for s in report["suites"] if s["name"] == "channel_laws"]
        assert channel == [suite_channel_laws(0, 42).to_json_dict()]

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--cutoff-max", "3", f"{CEILING_RULE}3"),
        ("--trials", "-1", "trials must be >= 0, got -1"),
        # The oracle builds no state above MAX_CUTOFF, so a larger ceiling
        # would be reported but never used.
        ("--cutoff-max", "513", f"{CEILING_RULE}513"),
        ("--cutoff-max", "100000", f"{CEILING_RULE}100000"),
        # Any other ceiling would run as the power of two below it.
        ("--cutoff-max", "5", f"{CEILING_RULE}5"),
        ("--cutoff-max", "200", f"{CEILING_RULE}200"),
        ("--cutoff-max", "511", f"{CEILING_RULE}511"),
    ], ids=["seed", "cutoff-max", "trials", "cutoff-max-cap", "cutoff-max-far-above-cap",
            "cutoff-max-5", "cutoff-max-200", "cutoff-max-511"])
    def test_bad_argument_exits_2_naming_it(self, capsys, flag, value, message):
        assert main(["validate", flag, value]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("trials, seed, cutoff_max", [
        (0, 42, 128.0), (np.int64(1), 42, 128), (np.int64(2), np.int64(42), 128.0),
    ], ids=["float-ceiling", "numpy-trials", "numpy-and-float"])
    def test_library_call_reports_plain_integers(self, tmp_path, capsys, trials, seed,
                                                 cutoff_max):
        # The same bytes as the command line's plain ints.
        report, code = cmd_validate(trials, seed, cutoff_max, out=str(tmp_path / "lib.json"))
        assert code == EXIT_OK
        assert report["config"] == {"trials": trials, "seed": seed, "cutoff_max": 128}
        assert all(type(value) is int for value in report["config"].values())
        assert main(["validate", "--trials", str(trials), "--seed", str(seed),
                     "--cutoff-max", "128", "--out", str(tmp_path / "cli.json")]) == EXIT_OK
        assert (tmp_path / "lib.json").read_bytes() == (tmp_path / "cli.json").read_bytes()

    def test_zero_trials_warns_only_once_the_arguments_pass(self, capsys):
        assert main(["validate", "--trials", "0", "--cutoff-max", "3"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {CEILING_RULE}3\n"

    def test_help_names_each_option_with_its_default(self, capsys):
        from squeezewitness.fock import MAX_CUTOFF

        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for help_text in ("--trials TRIALS random scenarios per suite",
                          "(default 200)", "--seed SEED seed of every suite (default 42)",
                          f"from 4 up to the oracle's cap of {MAX_CUTOFF} (default 256)"):
            assert help_text in text

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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="validate forks its workers")
def test_validate_reports_a_failed_worker_not_a_pass(tmp_path, monkeypatch, capfd):
    # The channel-law suite is the second item, which the second worker runs on two cores.
    import squeezewitness.validate as validate

    def failing_suite(*args, **kwargs):
        raise MemoryError("no room for the suite")

    monkeypatch.setattr(validate, "suite_channel_laws", failing_suite)
    forks = use_cores(monkeypatch, 2)
    out = tmp_path / "v.json"
    assert main(["validate", "--trials", "3", "--cutoff-max", "128",
                 "--out", str(out)]) == EXIT_INPUT_ERROR
    assert len(forks) == 2
    assert_no_child_left()
    assert not out.exists()
    err = capfd.readouterr().err
    assert "MemoryError: no room for the suite" in err  # the worker's traceback
    assert err.endswith("error: cannot finish the suites: a worker process ended "
                        "before sending all its results\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="validate forks its workers")
@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("fault", ["raise", "exit"])
@pytest.mark.parametrize("suite", ["suite_classicality", "suite_channel_laws"])
def test_validate_exits_2_when_a_task_fails(tmp_path, monkeypatch, capfd, suite, fault,
                                            cores):
    # The classicality suite is the first item and the channel-law suite the second.
    def failing_suite(*args, **kwargs):
        if fault == "raise":
            raise MemoryError("no room for the suite")
        os._exit(0)

    monkeypatch.setattr(f"squeezewitness.validate.{suite}", failing_suite)
    use_cores(monkeypatch, cores)
    out = tmp_path / "v.json"
    out.write_bytes(b"previous report\n")
    before = listing(tmp_path)
    assert main(["validate", "--trials", "3", "--cutoff-max", "16",
                 "--out", str(out)]) == EXIT_INPUT_ERROR
    assert_no_child_left()
    assert listing(tmp_path) == before
    assert capfd.readouterr().err.endswith("error: cannot finish the suites: a worker process "
                                           "ended before sending all its results\n")


def assert_validate_exits_2_at_start(tmp_path, monkeypatch, capfd, cores, nth, previous,
                                     fail):
    # Exit 1 would say that a suite failed.
    out = tmp_path / "v.json"
    if previous:
        out.write_bytes(b"previous report\n")
    before = listing(tmp_path)
    use_cores(monkeypatch, cores)
    descriptors = open_descriptors()
    error = fail(monkeypatch, nth)
    assert main(["validate", "--trials", "3", "--cutoff-max", "16",
                 "--out", str(out)]) == EXIT_INPUT_ERROR
    assert_no_child_left()
    assert listing(tmp_path) == before
    assert open_descriptors() == descriptors
    assert capfd.readouterr().err == ("error: cannot finish the suites: a worker process "
                                      f"could not be started: {error}\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="validate forks its workers")
@pytest.mark.parametrize("cores, nth", [(1, 0), (2, 0), (2, 1)],
                         ids=["1core-first", "2cores-first", "2cores-second"])
@pytest.mark.parametrize("previous", [False, True], ids=["none", "previous"])
def test_validate_exits_2_when_a_fork_fails(tmp_path, monkeypatch, capfd, cores, nth, previous):
    assert_validate_exits_2_at_start(tmp_path, monkeypatch, capfd, cores, nth, previous,
                                     fail_fork)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="validate forks its workers")
@pytest.mark.parametrize("cores, nth", [(1, 0), (2, 0), (2, 1)],
                         ids=["1core-first", "2cores-first", "2cores-second"])
@pytest.mark.parametrize("previous", [False, True], ids=["none", "previous"])
def test_validate_exits_2_when_a_pipe_fails(tmp_path, monkeypatch, capfd, cores, nth, previous):
    assert_validate_exits_2_at_start(tmp_path, monkeypatch, capfd, cores, nth, previous,
                                     fail_pipe)


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this package."""
    src = str(Path(squeezewitness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_cli_import_loads_no_oracle():
    # The Fock oracle with its operator algebra is needed only by the
    # ``validate`` command.
    code = ("import sys, squeezewitness.cli; "
            "print(sorted(m for m in sys.modules if m in ('squeezewitness.fock', "
            "'squeezewitness.opexpr', 'squeezewitness.validate')))")
    assert _fresh_python(code).strip() == "[]"


def test_reproduce_loads_no_pool_nor_oracle(tmp_path):
    code = f"""
import contextlib, io, sys
from squeezewitness.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["reproduce", "--figure", "robustness", "--points", "5",
                 "--out", {str(tmp_path)!r}]) == 0
print(sorted(m for m in sys.modules if m in ("squeezewitness.fock", "squeezewitness.opexpr",
                                             "squeezewitness.validate", "squeezewitness._pool")))
"""
    assert _fresh_python(code).strip() == "[]"


def test_validate_command_loads_no_scipy(tmp_path):
    # The package depends on numpy alone, the bath fold included.
    code = ("import sys; from squeezewitness.cli import main; "
            f"code = main(['validate', '--trials', '2', '--cutoff-max', '128', "
            f"'--out', {str(tmp_path / 'v.json')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "0 []"


def test_package_surface_resolves_on_first_use():
    code = """
import types, squeezewitness
for name in squeezewitness.__all__:
    getattr(squeezewitness, name)
namespace = {}
exec("from squeezewitness import *", namespace)
missing = set(squeezewitness.__all__) - namespace.keys()
assert not missing, missing
assert isinstance(squeezewitness.fock, types.ModuleType)
assert squeezewitness.fock.fock_state is squeezewitness.fock_state
for name in ("LadderMatrices", "SingleModeGaussian", "FieldMoments", "field_moments",
             "parse", "ExpressionSyntaxError", "expr_matrix", "build_ladder", "no_such_name"):
    try:
        getattr(squeezewitness, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(name)
print("ok")
"""
    assert _fresh_python(code).strip() == "ok"
