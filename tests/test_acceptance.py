"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test is self-contained and pins its seeds, so a failure here means the
corresponding property of the build broke, not that randomness drifted.
"""

import math
import time

import numpy as np
import pytest

from logdrift import cli
from logdrift.coefficients import DiffusionSpec, DriftSpec
from logdrift.fields import Field
from logdrift.gronwall import (
    STABILITY_REFERENCE,
    check_domination,
    make_problem_corpus,
    vanishing_data_decay,
    volterra_oracle,
)
from logdrift.heat_kernel import (
    kernel_images,
    kernel_series,
    log_jensen_bound_check,
    spatial_modulus_estimate,
    time_increment_estimate,
)
from logdrift.moments import convolution_scaling_report, mc_sup_moment
from logdrift.noise import ito_isometry_convergence_check, sample_noise
from logdrift.solver import (
    Grid,
    coupled_uniqueness_experiment,
    factorization_check,
)

CRITICAL = DriftSpec("log_linear")
SUPERCRITICAL = DriftSpec("log_power", exponent=2.0)


def test_criterion_01_kernel_dual_form_agreement():
    start = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 19)[1:-1]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    worst = 0.0
    for t in np.logspace(-4, 0, 17):
        a = kernel_series(t, X.ravel(), Y.ravel())
        b = kernel_images(t, X.ravel(), Y.ravel())
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"dual-form gap {worst:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"


def test_criterion_02_time_increment_exponent():
    start = time.perf_counter()
    hs = np.array([0.1 * 2.0 ** -k for k in range(7)])
    vals = np.array([time_increment_estimate(h) for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
    elapsed = time.perf_counter() - start
    assert 0.4 <= slope <= 0.6, f"slope {slope:.4f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_criterion_03_spatial_modulus_shape():
    start = time.perf_counter()
    ratios = []
    for k in range(3, 13):
        sep = 2.0 ** -k
        est = spatial_modulus_estimate(0.5 - sep / 2.0, 0.5 + sep / 2.0)
        ratios.append(est / (sep * (1.0 + math.log(1.0 / sep))))
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - start
    assert spread < 10.0, f"shape-ratio spread {spread:.3f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_criterion_04_log_jensen_inequality():
    rng = np.random.default_rng(20260819)
    violations = 0
    for _ in range(1000):
        dt = 10.0 ** rng.uniform(-5.0, -1.0)
        n = int(rng.choice([63, 127, 255]))
        amp = 10.0 ** rng.uniform(-1.0, 2.0)
        u = Field.random_l2(n, amp, seed=int(rng.integers(0, 2 ** 31)))
        lhs, rhs = log_jensen_bound_check(dt, u)
        violations += lhs > rhs
    assert violations == 0, f"{violations}/1000 draws violated the bound"


def test_criterion_05_gronwall_domination():
    for kind in ("superlinear", "vanishing", "singular"):
        problems = make_problem_corpus(kind, 100, 20260819)
        bad = sum(not rep.passed for rep in check_domination(kind, problems))
        assert bad == 0, f"{bad}/100 {kind} problems exceeded their bound"
    for label, prob in STABILITY_REFERENCE:
        coarse = volterra_oracle(prob, label)
        fine = volterra_oracle(prob.refined(), label)
        drift = float(np.max(np.abs(coarse - fine[::2])))
        assert drift < 1e-6, f"{label} oracle drift {drift:.3e} under halving"


def test_criterion_06_vanishing_data_decay():
    eps = np.array([10.0 ** -k for k in range(2, 9)])
    sups = vanishing_data_decay(eps)
    assert np.all(sups <= 10.0 * np.sqrt(eps)), \
        f"decay envelope broken: {sups / np.sqrt(eps)}"


def test_criterion_07_additive_terminal_moment():
    start = time.perf_counter()
    grid = Grid(n_modes=64, T=1.0, n_steps=64)
    rep = mc_sup_moment(2.0, None, 1.0, Field.zero(64), grid, 2000, 20260819,
                        terminal=True)
    js = np.arange(1, 65) * np.pi
    series = float(np.sum((1.0 - np.exp(-js ** 2)) / js ** 2))
    elapsed = time.perf_counter() - start
    gap = abs(rep.estimate - series)
    assert gap <= 3.0 * rep.std_error, \
        f"terminal moment off by {gap / rep.std_error:.2f} SE"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s"


def test_criterion_08_amplitude_scaling_law():
    grid = Grid(n_modes=16, T=1.0, n_steps=128)
    rows = convolution_scaling_report(10.0, (0.5, 2.0, 4.0), grid, 100, 777)
    worst = max(r["power_rel_err"] for r in rows)
    assert worst <= 1e-12, f"power-law relative error {worst:.3e}"
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios)
    assert spread < 3.0, f"constant spread {spread:.3f}"


def test_criterion_09_factorization_identity_refines():
    errs = []
    for k in range(5):
        n_steps = 128 * 2 ** k
        grid = Grid(n_modes=32, T=1.0, n_steps=n_steps)
        noise = sample_noise(909, 32, n_steps, grid.dt)
        errs.append(factorization_check(0.1, grid, noise))
    assert all(b < a for a, b in zip(errs, errs[1:])), \
        f"errors not monotone: {errs}"


def test_criterion_10_pathwise_uniqueness_convergence():
    start = time.perf_counter()
    grid = Grid(n_modes=32, T=1.0, n_steps=2048)
    u0 = Field.random_l2(32, norm=5.0, seed=9)
    res = coupled_uniqueness_experiment(
        u0, CRITICAL, DiffusionSpec("bounded", d1=1.0, d2=0.0), grid,
        seed=314, levels=(4, 8, 16, 32, 64))
    diffs = res["sup_diffs"]
    elapsed = time.perf_counter() - start
    tail = diffs[-3:]
    assert all(b < a for a, b in zip(tail, tail[1:])), \
        f"level differences not eventually decreasing: {diffs}"
    assert diffs[-1] < 1e-2, f"finest pair gap {diffs[-1]:.3e}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"


def test_criterion_11_critical_drift_no_blowup():
    grid = Grid(n_modes=32, T=1.0, n_steps=256)
    u0 = Field.random_l2(32, norm=10.0, seed=1)
    rep = mc_sup_moment(2.0, CRITICAL,
                        DiffusionSpec("sublinear_power", d1=1.0, d2=0.5,
                                      theta=0.5),
                        u0, grid, 200, 11, threshold=1e8)
    assert rep.blowup_fraction == 0.0, \
        f"blowup fraction {rep.blowup_fraction} at threshold 1e8"


def test_criterion_12_fast_log_drift_blows_up():
    grid = Grid(n_modes=16, T=4.0, n_steps=2048)
    u0 = Field.from_coeffs(np.concatenate([[50.0], np.zeros(15)]))
    rep = mc_sup_moment(2.0, SUPERCRITICAL, 1.0, u0, grid, 200, 12)
    assert rep.blowup_fraction > 0.0, "no blow-up observed in 200 paths"


def test_criterion_13_isometry_convergence():
    grid = Grid(n_modes=16, T=1.0, n_steps=32)
    js = np.arange(1, 17) * math.pi
    t = grid.times()[:-1][:, None]
    profile = np.exp(-0.5 * js[None, :] ** 2 * t) / js[None, :]
    gap = np.exp(-0.5 * js[None, :] ** 2 * t)
    f_seq = [profile + gap / n for n in (1, 2, 4, 8)]
    report = ito_isometry_convergence_check(f_seq, profile, 200, grid.dt,
                                            seed=0)
    assert report.within_3se, \
        f"estimates {report.estimates} missed targets {report.targets}"
    assert report.decreasing, f"estimates not decreasing: {report.estimates}"


def test_criterion_14_deterministic_artifacts(tmp_path):
    for scenario, threads in (("factorization", "3"), ("isometry", "2")):
        dirs = [tmp_path / f"{scenario}-{tag}" for tag in ("a", "b", "t")]
        for out, extra in zip(dirs, ([], [], ["--threads", threads])):
            code = cli.main(["--scenario", scenario,
                             "--output-dir", str(out)] + extra)
            assert code == 0, f"{scenario} run failed"
        ref = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert ref, f"{scenario} produced no CSV artifacts"
        for other in dirs[1:]:
            for name in ref:
                assert (other / name).read_bytes() == \
                    (dirs[0] / name).read_bytes(), \
                    f"{scenario}/{name} differs between runs"
