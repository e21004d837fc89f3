"""Each command as the installed ``squeezewitness`` script runs it: in a fresh
interpreter, through ``squeezewitness.cli.main``, with every ``RuntimeWarning``
an error.  These are the checks that need a process of their own: exit codes,
bytes written to devices, pipes and links, file modes, and reports that must
not depend on the core count or on how many threads BLAS runs."""

import filecmp
import functools
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from squeezewitness.cli import EXIT_INPUT_ERROR, EXIT_OK

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                   os.environ.get("PYTHONPATH")])),
       "PYTHONWARNINGS": "error::RuntimeWarning"}
ONE_CORE = ("taskset", "-c", "0")
FIGURES = ("fluctuations", "noise-sweep", "robustness")
MOMENTS = b"theta_rad,var_L,nb\n1.5708,0.0620,0.1241\n0,0.1241,0.1241\n"
# ``validate`` at 200 trials, at ceiling 128 and at the default, 256, that
# the README documents.  At 256 a block holds 2 pairs, not 8: the block
# slicing at the default ceiling.
VALIDATE_200 = ("validate", "--trials", "200", "--seed", "42")
CEILINGS = {"128": ("--cutoff-max", "128"), "default-256": ()}

cmp = functools.partial(filecmp.cmp, shallow=False)


def run(*argv, env=ENV, prefix=(), stdout=subprocess.DEVNULL, code=EXIT_OK):
    """Run ``squeezewitness *argv`` in a fresh interpreter, after ``prefix``
    (such as ``taskset -c 0``); assert that it exits ``code``, and return
    its stderr."""
    result = subprocess.run(
        [*prefix, sys.executable, "-m", "squeezewitness.cli", *map(str, argv)],
        env=env, stdout=stdout, stderr=subprocess.PIPE, encoding="utf-8", errors="replace")
    assert result.returncode == code, result.stderr
    return result.stderr


def write(path, data: bytes):
    path.write_bytes(data)
    return path


def test_the_console_script_is_this_main():
    # Python 3.10 has no tomllib, so the table is read as text.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL)
    assert table is not None
    assert 'squeezewitness = "squeezewitness.cli:main"' in table.group(1).splitlines()


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_writes_each_figure(tmp_path, figure):
    run("reproduce", "--figure", figure, "--svg", "--out", tmp_path)


def test_figures_match_the_per_cell_reference(tmp_path):
    # The benchmark's size: one closed-form call per curve over 4031 states,
    # against the per-cell renderers that the column-at-a-time ones replaced.
    figures, reference = tmp_path / "figures-4031", tmp_path / "reference-4031"
    for figure in FIGURES:
        run("reproduce", "--figure", figure, "--svg", "--points", "4031", "--out", figures)
    subprocess.run([sys.executable, str(ROOT / "tests" / "figure_reference.py"), "4031",
                    str(reference)], env=ENV, check=True)
    for name in ("fluctuations.csv", "fluctuations.svg", "noise_sweep.csv",
                 "noise_sweep.svg", "robustness.csv", "robustness.svg"):
        assert cmp(reference / name, figures / name), name


def test_a_summary_target_that_is_a_directory_keeps_the_previous_csv(tmp_path):
    # The run fails before any file is replaced.
    kept = tmp_path / "kept"
    run("reproduce", "--figure", "fluctuations", "--points", "11", "--out", kept)
    before = (kept / "fluctuations.csv").read_bytes()
    (kept / "fluctuations_summary.json").unlink()
    (kept / "fluctuations_summary.json").mkdir()
    run("reproduce", "--figure", "fluctuations", "--points", "13", "--out", kept,
        code=EXIT_INPUT_ERROR)
    assert (kept / "fluctuations.csv").read_bytes() == before


# ---------------------------------------------------------------------------
# standard output
# ---------------------------------------------------------------------------

STDOUT_MODES = {"buffered": {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"},
                "unbuffered": {**ENV, "PYTHONUNBUFFERED": "1"}}


def assert_names_standard_output(stderr):
    assert "error: cannot write standard output" in stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


@pytest.mark.parametrize("mode", STDOUT_MODES)
def test_a_full_standard_output_exits_2(mode):
    # The report goes to stdout, which /dev/full fails with ENOSPC.
    with open("/dev/full", "wb") as full:
        stderr = run("validate", "--trials", "0", env=STDOUT_MODES[mode], stdout=full,
                     code=EXIT_INPUT_ERROR)
    assert_names_standard_output(stderr)


@pytest.mark.parametrize("mode", STDOUT_MODES)
def test_a_closed_pipe_as_standard_output_exits_2_and_keeps_the_files(tmp_path, mode):
    # As `reproduce ... | true` does once `true` has exited.
    read, write_end = os.pipe()
    os.close(read)
    try:
        stderr = run("reproduce", "--figure", "fluctuations", "--points", "3", "--out", tmp_path,
                     env=STDOUT_MODES[mode], stdout=write_end, code=EXIT_INPUT_ERROR)
    finally:
        os.close(write_end)
    assert_names_standard_output(stderr)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "fluctuations.csv", "fluctuations_summary.json"]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_a_rewritten_report_keeps_its_mode(tmp_path):
    moments = write(tmp_path / "moments.csv", MOMENTS)
    report = tmp_path / "report.json"
    run("witness", "--input", moments, "--out", report)
    report.chmod(0o600)
    run("witness", "--input", moments, "--out", report)
    assert stat.S_IMODE(report.stat().st_mode) == 0o600


@pytest.mark.parametrize("through_link", [False, True], ids=["own-path", "symlink"])
def test_an_out_that_is_the_input_keeps_the_csv(tmp_path, through_link):
    moments = write(tmp_path / "moments.csv", MOMENTS)
    target = moments
    if through_link:
        target = tmp_path / "moments-link.json"
        target.symlink_to(moments)
    run("witness", "--input", moments, "--out", target, code=EXIT_INPUT_ERROR)
    assert moments.read_bytes() == MOMENTS


def test_witness_onto_a_full_device_exits_2(tmp_path):
    # A device is written in place; /dev/full fails each write with ENOSPC.
    moments = write(tmp_path / "moments.csv", MOMENTS)
    run("witness", "--input", moments, "--out", "/dev/full", code=EXIT_INPUT_ERROR)


@pytest.mark.parametrize("data", [
    b"theta_rad,var_L,nb\n0,1e10,1e-300\n",  # noise_db = var_L / nb overflows
    b"theta_rad,var_L,nb\n",  # a header-only file: a report with no rows
    b"\xef\xbb\xbftheta_rad,var_L,nb\n0,0.5,1\n",  # a UTF-8 byte-order mark, as Excel writes
], ids=["overflow", "header-only", "bom"])
def test_witness_accepts(tmp_path, data):
    run("witness", "--input", write(tmp_path / "in.csv", data), "--out", tmp_path / "out.json")


@pytest.mark.parametrize("line, data", [
    # The first bad line is named, even when a later line is malformed.
    (2, b"theta_rad,var_L,nb\n0,nan,1\nx,1,1\n"),
    # Finite cells whose full_no = var_L - nb - na overflows.
    (2, b"theta_rad,var_L,nb,na\n0,0,1.7e308,1.7e308\n"),
    # An na cell holding an information separator (\x1c), which float() rejects.
    (2, b"theta_rad,var_L,nb,na\n0,0.5,1,\x1c1\n"),
    # A byte that is not UTF-8.
    (3, b"theta_rad,var_L,nb\n0,0.5,1\n0,0.5,1\xe9\n"),
    # Only \n, \r\n and \r end a line: a NEL (U+0085) at the end of line 3 does not.
    (4, b"theta_rad,var_L,nb\n0,0.5,1\n0,0.5,1\xc2\x85\n0,nan,1\n"),
], ids=["order", "full_no", "separator", "latin1", "nel"])
def test_names_line(tmp_path, line, data):
    stderr = run("witness", "--input", write(tmp_path / "in.csv", data),
                 "--out", tmp_path / "out.json", code=EXIT_INPUT_ERROR)
    assert f"line {line}" in stderr


def test_a_repeated_schema_column_exits_2(tmp_path):
    csv = write(tmp_path / "repeated.csv", b"theta_rad,var_L,nb,var_L\n0,0.5,1,9\n")
    run("witness", "--input", csv, "--out", tmp_path / "repeated.json", code=EXIT_INPUT_ERROR)


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    """The benchmark's size: a seeded 200k-row CSV and its report, written twice."""
    out = tmp_path_factory.mktemp("large")
    rng, n = np.random.default_rng(1), 200_000
    np.savetxt(out / "large.csv", np.column_stack([
        rng.uniform(-3.2, 3.2, n), rng.uniform(0, 20, n), rng.uniform(0.1, 20, n),
        rng.uniform(0, 20, n)]), fmt="%.17g", delimiter=",", header="theta_rad,var_L,nb,na",
        comments="")
    for run_no in (1, 2):
        run("witness", "--input", out / "large.csv", "--out", out / f"large-{run_no}.json")
    return out


@pytest.fixture(scope="module")
def large_bad(large):
    """The large CSV with a bad line after every good block."""
    bad = large / "large-bad.csv"
    shutil.copyfile(large / "large.csv", bad)
    with bad.open("ab") as stream:
        stream.write(b"0,nan,1,1\n")
    return bad


def test_the_large_report_is_deterministic(large):
    assert cmp(large / "large-1.json", large / "large-2.json")


def test_a_bad_last_line_keeps_the_previous_report(large, large_bad, tmp_path):
    # No byte of the report is written: the previous report stays whole.
    previous = tmp_path / "previous.json"
    shutil.copyfile(large / "large-1.json", previous)
    stderr = run("witness", "--input", large_bad, "--out", previous, code=EXIT_INPUT_ERROR)
    assert "line 200002: var_L = nan is not finite" in stderr
    assert cmp(previous, large / "large-2.json")


def test_a_bad_last_line_makes_no_link_target(large_bad, tmp_path):
    link, target = tmp_path / "large-link.json", tmp_path / "large-link-target.json"
    link.symlink_to(target)
    run("witness", "--input", large_bad, "--out", link, code=EXIT_INPUT_ERROR)
    assert not target.exists()


def test_one_core_writes_the_same_large_report(large, tmp_path):
    # On one core one worker formats every block.
    run("witness", "--input", large / "large.csv", "--out", tmp_path / "large-1core.json",
        prefix=ONE_CORE)
    assert cmp(large / "large-1.json", tmp_path / "large-1core.json")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_onto_a_full_device_exits_2():
    run("validate", "--trials", "2", "--cutoff-max", "8", "--out", "/dev/full",
        code=EXIT_INPUT_ERROR)


def test_a_library_call_writes_the_command_line_report(tmp_path):
    # Numpy integers and a float ceiling.
    run("validate", "--trials", "2", "--cutoff-max", "128", "--out", tmp_path / "validate.json")
    subprocess.run([sys.executable, "-c",
                    "import sys, numpy; from squeezewitness.cli import cmd_validate; "
                    "cmd_validate(numpy.int64(2), numpy.int64(42), 128.0, out=sys.argv[1])",
                    str(tmp_path / "validate-library.json")], env=ENV, check=True)
    assert cmp(tmp_path / "validate.json", tmp_path / "validate-library.json")


@pytest.fixture(scope="module")
def validate_200(tmp_path_factory):
    """The 200-trial report at each of ``CEILINGS``, on every core; each run
    passes every suite."""
    out = tmp_path_factory.mktemp("validate-200")
    for ceiling, argv in CEILINGS.items():
        run(*VALIDATE_200, *argv, "--out", out / f"{ceiling}.json")
    return out


def test_validate_200_is_deterministic(validate_200, tmp_path):
    run(*VALIDATE_200, *CEILINGS["128"], "--out", tmp_path / "again.json")
    assert cmp(validate_200 / "128.json", tmp_path / "again.json")


@pytest.mark.parametrize("ceiling", CEILINGS)
def test_validate_200_on_one_blas_thread(validate_200, tmp_path, ceiling):
    run(*VALIDATE_200, *CEILINGS[ceiling], "--out", tmp_path / "1thread.json",
        env={**ENV, "OPENBLAS_NUM_THREADS": "1"})
    assert cmp(validate_200 / f"{ceiling}.json", tmp_path / "1thread.json")


@pytest.mark.parametrize("ceiling", CEILINGS)
def test_validate_200_on_one_core(validate_200, tmp_path, ceiling):
    # On one core one worker runs every suite.
    run(*VALIDATE_200, *CEILINGS[ceiling], "--out", tmp_path / "1core.json", prefix=ONE_CORE)
    assert cmp(validate_200 / f"{ceiling}.json", tmp_path / "1core.json")


def test_zero_trials_run_every_suite_on_any_core_count(tmp_path):
    # No scenario is drawn, yet the channel-law suite checks its bath fold.
    run("validate", "--trials", "0", "--out", tmp_path / "validate-0.json")
    run("validate", "--trials", "0", "--out", tmp_path / "validate-0-1core.json",
        prefix=ONE_CORE)
    assert cmp(tmp_path / "validate-0.json", tmp_path / "validate-0-1core.json")
    assert "bath-fold deviation" in (tmp_path / "validate-0.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("ceiling, rule", [
    ("513", "cap"),  # above the oracle's cap of 512, not silently capped
    ("200", "power of two"),  # would run as the power of two below it
])
def test_a_ceiling_off_the_rule_writes_no_report(tmp_path, ceiling, rule):
    report = tmp_path / "report.json"
    stderr = run("validate", "--trials", "2", "--cutoff-max", ceiling, "--out", report,
                 code=EXIT_INPUT_ERROR)
    assert rule in stderr
    assert not report.exists()
