"""Acceptance suite: one test per stated criterion, at its stated tolerance.

Each test prints a single ``ACCEPTANCE n [...]: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output) and fails loudly if the
criterion is not met.
"""

import filecmp
import time

import numpy as np
import pytest

from squeezewitness.channels import apply_gain_noise, apply_loss
from squeezewitness.cli import main
from squeezewitness.figures import build_figure
from squeezewitness.gaussian import (
    StateParams,
    coherent,
    db_to_squeeze,
    make_state,
    mean_photon,
    squeezed_vacuum,
    vacuum,
)
from squeezewitness.opexpr import difference_observable, formal_normal_order
from squeezewitness.validate import (
    random_state_params,
    suite_classicality,
    suite_gaussian_fock,
    suite_reorder_matrix,
)
from squeezewitness.witness import (
    TwoModeProduct,
    evaluate,
    homodyne_variance,
    ordered_variances,
)

ZETA_3DB = db_to_squeeze(3.0)


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, printed past pytest's capture."""

    def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {number} [{name}]: {status}  {detail}", flush=True)
        assert ok, f"criterion {number} ({name}): {detail}"

    return _report


def test_criterion_1_shot_noise_identity(report):
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        lo = make_state(random_state_params(rng, max_alpha=3.0, max_zeta=1.5,
                                            max_nbar=3.0))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        pair = TwoModeProduct(si=vacuum(), lo=lo)
        worst = max(worst, abs(homodyne_variance(pair, theta) - mean_photon(lo)))
    elapsed = time.perf_counter() - start
    report(1, "shot-noise identity", worst <= 1e-12 and elapsed < 1.0,
            f"max |var - <n_LO>| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_fluctuations_figure(report):
    start = time.perf_counter()
    figure = build_figure("fluctuations")  # 361 theta points
    partials = [row[1] for row in figure.rows]
    fulls = [row[2] for row in figure.rows]
    elapsed = time.perf_counter() - start
    ok = (len(figure.rows) == 361
          and min(partials) >= -1e-12
          and abs(min(fulls) - (-0.498813)) <= 1e-4
          and elapsed < 1.0)
    report(2, "false-positive exposure", ok,
            f"min partial = {min(partials):.6f}, min full = {min(fulls):.6f}, "
            f"{elapsed:.2f}s")


def test_criterion_3_noise_sweep(report):
    start = time.perf_counter()
    si = squeezed_vacuum(ZETA_3DB)

    figure = build_figure("noise-sweep")
    coherent_noise = [row[4] for row in figure.rows if row[0] == "coherent"]
    decreasing = all(b < a for a, b in zip(coherent_noise, coherent_noise[1:]))

    n_at_10 = evaluate(
        TwoModeProduct(si=si, lo=coherent(np.sqrt(10.0))), 0.0).noise_db
    n_at_1e4 = evaluate(
        TwoModeProduct(si=si, lo=coherent(100.0)), 0.0).noise_db

    lo = squeezed_vacuum(ZETA_3DB)
    dip = evaluate(TwoModeProduct(si=si, lo=lo), np.pi / 2.0)
    elapsed = time.perf_counter() - start

    ok = (decreasing
          and abs(n_at_10 - (-2.894)) <= 0.002
          and abs(n_at_1e4 - (-3.000)) <= 0.001
          and abs(dip.shot_noise - 0.124112) <= 1e-6
          and dip.var_L <= 1e-12
          and dip.noise_db == -np.inf
          and elapsed < 1.0)
    report(3, "noise-sweep sensitivities", ok,
           f"N(10) = {n_at_10:.4f} dB, N(1e4) = {n_at_1e4:.4f} dB, "
           f"dip var = {dip.var_L:.2e}, N = {dip.noise_db}, {elapsed:.2f}s")


def test_criterion_4_loss_and_noise_laws(report):
    rng = np.random.default_rng(321)
    start = time.perf_counter()
    worst_loss = 0.0
    for _ in range(100):
        si = make_state(random_state_params(rng))
        lo = make_state(random_state_params(rng))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        eta = rng.uniform(0.0, 1.0)
        _, ideal, _ = ordered_variances(TwoModeProduct(si=si, lo=lo), theta)
        _, lossy, _ = ordered_variances(
            TwoModeProduct(si=apply_loss(si, eta), lo=lo), theta)
        worst_loss = max(worst_loss, abs(lossy - eta * ideal))
    loss_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    worst_gain = 0.0
    for _ in range(100):
        si = make_state(random_state_params(rng))
        lo = make_state(random_state_params(rng))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        g = rng.uniform(1.0, 3.0)
        _, ideal, _ = ordered_variances(TwoModeProduct(si=si, lo=lo), theta)
        _, noisy, _ = ordered_variances(
            TwoModeProduct(si=apply_gain_noise(si, g), lo=lo), theta)
        expected = g * ideal + (g - 1.0) * (2.0 * mean_photon(lo) + 1.0)
        worst_gain = max(worst_gain, abs(noisy - expected))
    gain_elapsed = time.perf_counter() - start

    ok = (worst_loss <= 1e-12 and worst_gain <= 1e-12
          and loss_elapsed < 1.0 and gain_elapsed < 1.0)
    report(4, "loss/noise scaling laws", ok,
            f"max loss dev = {worst_loss:.3e} ({loss_elapsed:.2f}s), "
            f"max gain dev = {worst_gain:.3e} ({gain_elapsed:.2f}s)")


def test_criterion_5_oracle_equivalence(report):
    start = time.perf_counter()
    result = suite_gaussian_fock(trials=200, seed=42, cutoff_max=128)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.max_deviation <= 1e-6 and elapsed < 3600.0
    report(5, "closed form vs Fock oracle", ok,
            f"max relative deviation = {result.max_deviation:.3e} over "
            f"{result.trials} draws, {elapsed:.1f}s {result.detail}")


def test_criterion_6_classicality_bound(report):
    start = time.perf_counter()
    result = suite_classicality(trials=200, seed=42)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.max_deviation <= 1e-8 and elapsed < 60.0
    report(6, "classical-signal nonnegativity", ok,
            f"worst negativity = {result.max_deviation:.3e}, {elapsed:.1f}s")


def test_criterion_7_rewriter_correctness(report):
    start = time.perf_counter()
    result = suite_reorder_matrix(trials=100, seed=42)
    fixed_point = all(
        formal_normal_order(difference_observable(theta), {"A"})
        == difference_observable(theta)
        for theta in (0.0, 0.3, np.pi / 2, 2.0, -1.0))
    elapsed = time.perf_counter() - start
    ok = result.passed and result.max_deviation <= 1e-10 and fixed_point
    report(7, "rewriter correctness", ok,
            f"max interior-block deviation = {result.max_deviation:.3e}, "
            f"difference observable fixed point: {fixed_point}, {elapsed:.1f}s")


def test_criterion_8_cli_determinism(report, tmp_path):
    start = time.perf_counter()
    moments = tmp_path / "moments.csv"
    moments.write_text(
        "theta_rad,var_L,nb,na\n"
        "1.5708,0.0620,0.1241,0.5\n"
        "0.0,0.1241,0.1241,\n"
        "0.3,0.0,0.1,1.0\n",
        encoding="utf-8")

    differing = []
    runs = []
    for run in ("one", "two"):
        base = tmp_path / run
        for figure in ("fluctuations", "noise-sweep", "robustness"):
            code = main(["reproduce", "--figure", figure, "--svg",
                         "--out", str(base / "figs")])
            assert code == 0
        code = main(["witness", "--input", str(moments),
                     "--out", str(base / "witness.json")])
        assert code == 0
        code = main(["validate", "--trials", "2", "--seed", "7",
                     "--cutoff-max", "128", "--out", str(base / "validate.json")])
        assert code == 0
        runs.append(base)

    first_files = sorted(p.relative_to(runs[0])
                         for p in runs[0].rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(runs[1])
                          for p in runs[1].rglob("*") if p.is_file())
    assert first_files == second_files and first_files
    for rel in first_files:
        if not filecmp.cmp(runs[0] / rel, runs[1] / rel, shallow=False):
            differing.append(str(rel))
    elapsed = time.perf_counter() - start
    report(8, "CLI determinism", not differing,
            f"{len(first_files)} files byte-compared"
            + (f", differing: {differing}" if differing else "")
            + f", {elapsed:.1f}s")
