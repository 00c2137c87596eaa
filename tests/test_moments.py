import functools
import math
import tracemalloc

import numpy as np
import pytest

from logdrift.coefficients import DiffusionSpec, DriftSpec, mollify
from logdrift import moments
from logdrift.fields import Field
from logdrift.moments import (
    MomentReport,
    _describe,
    convolution_scaling_report,
    epsilon_split_report,
    mc_sup_moment,
    mollified_uniformity_report,
    restart_window_report,
)
from logdrift.noise import NoiseRealization, sample_noise
from logdrift.solver import Grid, solve_path

CRITICAL = DriftSpec("log_linear")
KICK = DiffusionSpec("bounded", d1=1.0, d2=1.0)


def test_report_field_validation():
    ok = dict(p=2.0, T=1.0, ensemble=30, estimate=1.0, std_error=0.0,
              blowup_fraction=0.0, fingerprint="ab")
    MomentReport(**ok)
    for bad in ({"p": 0.5}, {"ensemble": 0}, {"blowup_fraction": 1.5},
                {"estimate": -1.0}, {"std_error": -1.0}):
        with pytest.raises(ValueError):
            MomentReport(**{**ok, **bad})
    invalid = MomentReport(**{**ok, "estimate": math.nan, "std_error": math.nan,
                              "blowup_fraction": 1.0})
    assert not invalid.valid


def test_deterministic_decay_sup_is_initial_norm():
    g = Grid(n_modes=16, T=1.0, n_steps=64)
    r = mc_sup_moment(3.0, None, None, Field.mode(16, 1), g, 30, 0)
    assert r.estimate == 1.0
    assert r.std_error == 0.0
    assert r.blowup_fraction == 0.0 and r.valid


def test_terminal_second_moment_matches_modal_series():
    g = Grid(n_modes=16, T=1.0, n_steps=64)
    r = mc_sup_moment(2.0, None, 1.0, Field.zero(16), g, 400, 12345,
                      terminal=True)
    js = np.arange(1, 17) * np.pi
    series = float(np.sum((1.0 - np.exp(-js ** 2)) / js ** 2))
    assert abs(r.estimate - series) <= 3.0 * r.std_error
    sup = mc_sup_moment(2.0, None, 1.0, Field.zero(16), g, 400, 12345)
    assert sup.estimate >= r.estimate


def test_reports_reproducible_and_seed_sensitive():
    g = Grid(n_modes=16, T=1.0, n_steps=64)
    a = mc_sup_moment(2.0, None, 1.0, Field.zero(16), g, 100, 12345)
    b = mc_sup_moment(2.0, None, 1.0, Field.zero(16), g, 100, 12345)
    c = mc_sup_moment(2.0, None, 1.0, Field.zero(16), g, 100, 54321)
    assert a == b
    assert c.estimate != a.estimate and c.fingerprint != a.fingerprint


def test_estimates_monotone_in_p_for_large_data():
    # sup >= ||u0|| >= 1 makes x -> x^p pathwise monotone in p
    g = Grid(n_modes=16, T=0.5, n_steps=128)
    u3 = Field.random_l2(16, norm=3.0, seed=8)
    e = [mc_sup_moment(p, CRITICAL, KICK, u3, g, 64, 31).estimate
         for p in (1.0, 2.0, 4.0)]
    assert e[0] < e[1] < e[2]


def test_jensen_between_first_and_second_moment():
    g = Grid(n_modes=16, T=0.5, n_steps=128)
    r1 = mc_sup_moment(1.0, CRITICAL, KICK, Field.zero(16), g, 64, 31)
    r2 = mc_sup_moment(2.0, CRITICAL, KICK, Field.zero(16), g, 64, 31)
    assert r1.estimate ** 2 <= r2.estimate


def test_ensemble_doubling_consistent():
    g = Grid(n_modes=16, T=0.5, n_steps=128)
    a = mc_sup_moment(2.0, CRITICAL, KICK, Field.zero(16), g, 100, 5150)
    b = mc_sup_moment(2.0, CRITICAL, KICK, Field.zero(16), g, 200, 5150)
    assert abs(a.estimate - b.estimate) <= 3.0 * math.hypot(a.std_error,
                                                            b.std_error)


def test_all_paths_blown_yields_invalid_report():
    g = Grid(n_modes=16, T=4.0, n_steps=512)
    u0 = Field.from_coeffs(np.concatenate([[50.0], np.zeros(15)]))
    r = mc_sup_moment(2.0, DriftSpec("log_power", exponent=2.0), 1.0, u0, g,
                      30, 3)
    assert r.blowup_fraction == 1.0
    assert not r.valid and math.isnan(r.estimate)


def test_moment_input_validation():
    g = Grid(n_modes=16, T=1.0, n_steps=32)
    with pytest.raises(ValueError):
        mc_sup_moment(0.5, None, 1.0, Field.zero(16), g, 30, 0)
    with pytest.raises(ValueError):
        mc_sup_moment(2.0, None, 1.0, Field.zero(16), g, 29, 0)
    with pytest.raises(ValueError):
        mc_sup_moment(2.0, None, 1.0, Field.zero(8), g, 30, 0)


_SPEC_TEXT = ("DriftSpec(family='log_linear', scale=1.0, exponent=2.0, "
              "degree=2, table_x=None, table_y=None)")


def test_fingerprint_text_of_every_coefficient_form():
    # the text each report hashes into its fingerprint; the mollified form
    # reaches no default artifact, so only this pins it
    assert _describe(None) == "none"
    assert _describe(1.0) == "1.0"
    assert _describe(2) == "2.0"
    assert _describe(CRITICAL) == _SPEC_TEXT
    assert _describe(KICK) == ("DiffusionSpec(family='bounded', d1=1.0, "
                               "d2=1.0, theta=0.0, d3=None, func=None)")
    assert _describe(mollify(CRITICAL, 4)) == "mollified[n=4]:" + _SPEC_TEXT
    assert _describe(np.tanh) == "callable:tanh"
    assert _describe(lambda z: z) == "callable:<lambda>"
    assert _describe(functools.partial(np.multiply, 2.0)) == \
        "callable:partial"


def test_scaling_report_power_law_is_exact():
    g = Grid(n_modes=16, T=1.0, n_steps=128)
    rows = convolution_scaling_report(10.0, (0.5, 2.0, 4.0), g, 100, 777)
    assert [r["lam"] for r in rows] == [0.5, 2.0, 4.0]
    for r in rows:
        assert r["power_rel_err"] <= 1e-12
        assert r["lhs"] > 0.0 and r["rhs"] > 0.0
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) / min(ratios) < 3.0


def test_scaling_report_validation():
    g = Grid(n_modes=8, T=1.0, n_steps=16)
    with pytest.raises(ValueError):
        convolution_scaling_report(8.0, (2.0,), g, 30, 0)
    with pytest.raises(ValueError):
        convolution_scaling_report(10.0, (0.0,), g, 30, 0)
    # the ensemble floor of mc_sup_moment, which runs the convolution
    with pytest.raises(ValueError):
        convolution_scaling_report(10.0, (2.0,), g, 29, 0)


def test_epsilon_split_feasible_and_monotone():
    g = Grid(n_modes=16, T=1.0, n_steps=128)
    rows = epsilon_split_report(2.0, (0.5, 0.1, 0.02), g, 200, 55)
    assert all(r["feasible"] for r in rows)
    cs = [r["c_epsilon"] for r in rows]
    assert cs[0] <= cs[1] <= cs[2]
    assert rows[0]["lhs"] == rows[1]["lhs"]


def test_epsilon_split_validation():
    g = Grid(n_modes=8, T=1.0, n_steps=16)
    with pytest.raises(ValueError):
        epsilon_split_report(10.0, (0.5,), g, 30, 0)
    with pytest.raises(ValueError):
        epsilon_split_report(2.0, (0.0,), g, 30, 0)


def test_uniformity_report_bounded_and_converging():
    g = Grid(n_modes=16, T=0.5, n_steps=128)
    rows = mollified_uniformity_report((4, 8, 16, 32), 2.0, CRITICAL, KICK,
                                       Field.zero(16), g, 64, 2024)
    e = [r["estimate"] for r in rows]
    assert max(e) / min(e) <= 2.0
    # common seeds isolate the drift approximation: level gaps shrink
    assert abs(e[3] - e[2]) < abs(e[1] - e[0])


def test_uniformity_report_zero_drift_identical():
    g = Grid(n_modes=16, T=0.5, n_steps=64)
    rows = mollified_uniformity_report((4, 16), 2.0,
                                       DriftSpec("linear", scale=0.0), KICK,
                                       Field.zero(16), g, 32, 7)
    assert rows[0]["estimate"] == rows[1]["estimate"]


def test_uniformity_report_guards():
    g = Grid(n_modes=8, T=0.25, n_steps=32)
    with pytest.raises(ValueError):
        mollified_uniformity_report((8, 4), 2.0, CRITICAL, KICK,
                                    Field.zero(8), g, 30, 0)
    with pytest.raises(ValueError):
        mollified_uniformity_report((0, 4), 2.0, CRITICAL, KICK,
                                    Field.zero(8), g, 30, 0)
    with pytest.raises(RuntimeError):
        mollified_uniformity_report((4,), 2.0, CRITICAL, KICK,
                                    Field.zero(8), g, 30, 0, threshold=1e-6)


def test_restart_window_reports():
    g = Grid(n_modes=16, T=0.5, n_steps=128)
    u0 = Field.random_l2(16, norm=3.0, seed=8)
    first, second = restart_window_report(2.0, CRITICAL, KICK, u0, g, 64, 99)
    assert first.T == 0.5 and second.T == 1.0
    assert first.valid and second.valid
    assert first.blowup_fraction == 0.0 and second.blowup_fraction == 0.0
    assert first.fingerprint != second.fingerprint


def test_restart_windows_without_diffusion_match_one_path():
    # every path is the same deterministic solve on the doubled horizon
    g = Grid(n_modes=8, T=0.5, n_steps=32)
    u0 = Field.random_l2(8, norm=3.0, seed=8)
    first, second = restart_window_report(2.0, CRITICAL, None, u0, g, 30, 5)
    traj = solve_path(u0, CRITICAL, None, Grid(8, 1.0, 64))
    l2 = traj.l2_series
    assert first.estimate == pytest.approx(np.max(l2[:33]) ** 2, rel=1e-12)
    assert second.estimate == pytest.approx(np.max(l2[32:]) ** 2, rel=1e-12)
    assert first.blowup_fraction == second.blowup_fraction == 0.0


def test_restart_equals_continuation_bitwise():
    g_full = Grid(n_modes=16, T=1.0, n_steps=256)
    g_half = Grid(n_modes=16, T=0.5, n_steps=128)
    u0 = Field.random_l2(16, norm=3.0, seed=8)
    noise = sample_noise(42, 16, 256, g_full.dt)
    whole = solve_path(u0, CRITICAL, KICK, g_full, noise)
    head = NoiseRealization(42, 16, 128, g_full.dt, noise.increments[:, :128])
    tail_inc = noise.increments[:, 128:].copy()
    tail_inc.flags.writeable = False
    tail = NoiseRealization(42, 16, 128, g_full.dt, tail_inc)
    h1 = solve_path(u0, CRITICAL, KICK, g_half, head)
    h2 = solve_path(Field.from_coeffs(h1.coeffs[-1]), CRITICAL, KICK, g_half,
                    tail)
    np.testing.assert_array_equal(whole.coeffs[128:], h2.coeffs)


def test_chunking_moves_no_bits(monkeypatch):
    # a drifted run in which some but not all of 20 paths breach; the
    # one-path budget runs every path alone, a 7-path budget runs chunks of
    # 7, 7 and 6, at 8 modes and at 17, which is not a multiple of 8; a
    # one-step window per step returns every L2 norm of every path
    drift = DriftSpec("log_power", exponent=2.0)
    diffusion = DiffusionSpec("sublinear_power", d1=2.0, d2=2.0, theta=0.5)
    for n_modes in (8, 17):
        g = Grid(n_modes=n_modes, T=2.0, n_steps=128)
        u0 = Field.from_coeffs(np.concatenate([[7.0], np.zeros(n_modes - 1)]))
        windows = [(k, k + 1) for k in range(129)] + [(0, 129), (64, 129)]
        path_bytes = 8 * g.n_modes * g.n_steps
        runs = []
        for budget in (path_bytes, 7 * path_bytes, moments._CHUNK_BYTES):
            monkeypatch.setattr(moments, "_CHUNK_BYTES", budget)
            runs.append(moments._solve_ensemble(drift, diffusion, u0, g, 20, 3,
                                                1e8, windows))
        blown = runs[0][1]
        assert blown.any() and not blown.all()
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert got.tobytes() == want.tobytes(), n_modes


def test_restart_report_holds_one_noise_chunk():
    # the moments scenario's defaults: its restart report's doubled horizon
    # draws the largest noise of any report
    g = Grid(n_modes=64, T=1.0, n_steps=256)
    diffusion = DiffusionSpec("sublinear_power", d1=1.0, d2=0.5, theta=0.5)
    tracemalloc.start()
    try:
        restart_window_report(2.0, CRITICAL, diffusion, Field.zero(64), g,
                              129, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * moments._CHUNK_BYTES


# 129 paths, one more than the 128-path bound on the base grid: every report
# shape the mc-ensemble benchmark runs, with the grid its solves step on
# (the restart report's is the doubled horizon)
BLOWUP_DRIFT = DriftSpec("log_power", exponent=2.0)
BLOWUP_SIGMA = DiffusionSpec("bounded", d1=0.0, d2=1.0)
BASE_SIGMA = DiffusionSpec("sublinear_power", d1=1.0, d2=0.5, theta=0.5)
UNEVEN_ENSEMBLE_SHAPES = {
    "restart": (lambda: restart_window_report(
        2.0, CRITICAL, BASE_SIGMA, Field.zero(64), Grid(64, 1.0, 256), 129, 0),
        Grid(64, 2.0, 512)),
    "sup": (lambda: mc_sup_moment(
        2.0, CRITICAL, BASE_SIGMA, Field.zero(64), Grid(64, 1.0, 256), 129, 0),
        Grid(64, 1.0, 256)),
    "blowup-phase": (lambda: mc_sup_moment(
        2.0, BLOWUP_DRIFT, BLOWUP_SIGMA, Field.mode(16, 1, 50.0),
        Grid(16, 4.0, 2048), 129, 0), Grid(16, 4.0, 2048)),
}


@pytest.mark.parametrize("shape", sorted(UNEVEN_ENSEMBLE_SHAPES))
def test_uneven_ensemble_holds_less_than_one_full_chunk(shape):
    # 129 paths run as even chunks (65 + 64, or 3 x 43) whose L2 rows are
    # reduced as each is solved; a full chunk plus a one-path remainder and
    # an ensemble-wide L2 table took 1.06-1.20 chunks
    report = UNEVEN_ENSEMBLE_SHAPES[shape][0]
    tracemalloc.start()
    try:
        report()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * moments._CHUNK_BYTES


@pytest.mark.parametrize("shape", sorted(UNEVEN_ENSEMBLE_SHAPES))
def test_uneven_ensemble_keeps_its_chunk_count(monkeypatch, shape):
    # the fewest chunks the byte bound allows at 129 paths: 2 on the base
    # grid, 3 on the doubled horizon and on blowup-phase's grid. The
    # mc-ensemble benchmark runs 129 paths so every report runs a second
    # chunk; a chunk rule that drops it changes these counts
    report, grid = UNEVEN_ENSEMBLE_SHAPES[shape]
    sizes = []

    def counting(u0, drift, diffusion, g, Xi, threshold):
        assert g == grid
        sizes.append(Xi.shape[0])
        paths = Xi.shape[0]
        return (np.zeros((paths, g.n_steps + 1)), np.zeros(paths, dtype=bool),
                np.full(paths, -1))

    monkeypatch.setattr(moments, "solve_l2_ensemble", counting)
    report()
    assert len(sizes) == {"restart": 3, "sup": 2, "blowup-phase": 3}[shape]
    assert sum(sizes) == 129 and max(sizes) - min(sizes) <= 1
