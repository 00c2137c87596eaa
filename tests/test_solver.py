import hashlib
import math

import numpy as np
import pytest

from logdrift.coefficients import DiffusionSpec, DriftSpec, mollify
from logdrift.fields import Field
from logdrift.noise import NoiseRealization, derive_path_seeds, sample_noise
from logdrift.solver import (
    Grid,
    _propagators,
    coupled_uniqueness_experiment,
    factorization_check,
    solve_l2_ensemble,
    solve_path,
)

CRITICAL = DriftSpec("log_linear")
SUPERCRITICAL = DriftSpec("log_power", exponent=2.0)
BOUNDED = DiffusionSpec("bounded", d1=1.0, d2=0.0)

# frozen after the first implementation run (seed 909, alpha 0.1, sigma == 1)
FACTORIZATION_512_REFERENCE = 0.034359202283835696

# sha256 of the solve_path coefficients in test_solver_bits_are_pinned; they
# fail when any bit of the scheme's output moves. A path's products go
# through fields.rows_matmul, so these are the batched rows' bits
STOCHASTIC_COEFFS_SHA256 = (
    "d630d9beb964a34c7a999bca9ee132eabc66fdee1196ec4de0001627b113e7a5")
BLOWUP_COEFFS_SHA256 = (
    "1533330ac6c53313dfa7db07253d3a21ae93f6977cbd8407af2c41c64551ad10")


def test_grid_properties_and_validation():
    g = Grid(n_modes=16, T=2.0, n_steps=128)
    assert g.dt == pytest.approx(2.0 / 128.0)
    assert g.stiffness == pytest.approx(g.dt * 0.5 * math.pi ** 2 * 256)
    ts = g.times()
    assert ts[0] == 0.0 and ts[-1] == 2.0 and ts.size == 129
    with pytest.raises(ValueError):
        Grid(n_modes=3, T=1.0, n_steps=8)
    with pytest.raises(ValueError):
        Grid(n_modes=8, T=0.0, n_steps=8)
    with pytest.raises(ValueError):
        Grid(n_modes=8, T=1.0, n_steps=0)


def test_pure_semigroup_decay():
    g = Grid(n_modes=8, T=0.5, n_steps=64)
    traj = solve_path(Field.mode(8, 1), None, None, g)
    exact = np.exp(-0.5 * np.pi ** 2 * traj.l2_times)
    assert np.max(np.abs(traj.l2_series - exact) / exact) < 1e-12


def test_every_mode_decays_by_exact_factor():
    g = Grid(n_modes=8, T=1.0, n_steps=100)
    u = Field.random_l2(8, norm=2.0, seed=1)
    one_step = Grid(8, g.dt, 1)
    silent = NoiseRealization(0, 8, 1, one_step.dt, np.zeros((8, 1)))
    out = solve_path(u, None, None, one_step, silent).coeffs[-1]
    E = np.exp(-0.5 * (np.arange(1, 9) * np.pi) ** 2 * g.dt)
    np.testing.assert_array_equal(out, E * u.coeffs)


def test_linear_drift_first_order_convergence():
    lam = 3.0
    target = math.exp((lam - 0.5 * math.pi ** 2) * 0.5)
    errs = []
    for n_steps in (64, 128, 256):
        g = Grid(n_modes=8, T=0.5, n_steps=n_steps)
        traj = solve_path(Field.mode(8, 1), lambda z: lam * z, None, g)
        errs.append(abs(traj.l2_series[-1] - target))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 0.9


def test_additive_noise_modal_variance():
    n_modes, n_steps, paths = 16, 128, 400
    g = Grid(n_modes=n_modes, T=1.0, n_steps=n_steps)
    js = np.arange(1, n_modes + 1) * np.pi
    series = float(np.sum((1.0 - np.exp(-js ** 2)) / js ** 2))
    Xi = np.stack([sample_noise(1000 + i, n_modes, n_steps, g.dt).increments
                   for i in range(paths)])
    l2, blown, _ = solve_l2_ensemble(Field.zero(n_modes), None, 1.0, g, Xi)
    assert not blown.any()
    terminal_sq = l2[:, -1] ** 2
    est = float(np.mean(terminal_sq))
    se = float(np.std(terminal_sq, ddof=1) / math.sqrt(paths))
    assert abs(est - series) <= 3.0 * se


def test_trajectory_linear_in_sigma_under_common_noise():
    g = Grid(n_modes=16, T=0.25, n_steps=128)
    noise = sample_noise(17, 16, 128, g.dt)
    base = solve_path(Field.zero(16), None, 1.0, g, noise)
    doubled = solve_path(Field.zero(16), None, 2.0, g, noise)
    np.testing.assert_array_equal(2.0 * base.coeffs, doubled.coeffs)


def test_constant_sigma_matches_its_diffusion_spec_under_a_drift():
    # a constant sigma skips the nodal round trip that the spec form takes
    g = Grid(n_modes=16, T=0.5, n_steps=128)
    noise = sample_noise(41, 16, 128, g.dt)
    u0 = Field.random_l2(16, 2.0, seed=6)
    const = solve_path(u0, CRITICAL, 0.7, g, noise).coeffs
    spec = DiffusionSpec("sublinear_power", d1=0.0, d2=0.7, theta=0.5)
    nodal = solve_path(u0, CRITICAL, spec, g, noise).coeffs
    assert np.max(np.abs(const - nodal)) <= 1e-12 * np.max(np.abs(nodal))


def test_noise_coupling_bitwise_reproducible():
    g = Grid(n_modes=16, T=0.25, n_steps=128)
    noise = sample_noise(17, 16, 128, g.dt)
    a = solve_path(Field.zero(16), CRITICAL, BOUNDED, g, noise)
    b = solve_path(Field.zero(16), CRITICAL, BOUNDED, g, noise)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_zero_is_a_fixed_point():
    # b(0) = 0 and sigma(0) = 0 pin the origin exactly
    sig0 = DiffusionSpec("sublinear_power", d1=1.0, d2=0.0, theta=0.5)
    g = Grid(n_modes=8, T=0.5, n_steps=64)
    noise = sample_noise(23, 8, 64, g.dt)
    traj = solve_path(Field.zero(8), CRITICAL, sig0, g, noise)
    assert np.all(traj.l2_series == 0.0)


def test_blowup_detected_and_trajectory_truncated():
    g = Grid(n_modes=8, T=4.0, n_steps=512)
    u0 = Field.from_coeffs(np.concatenate([[50.0], np.zeros(7)]))
    noise = sample_noise(5, 8, 512, g.dt)
    traj = solve_path(u0, SUPERCRITICAL, 1.0, g, noise, threshold=1e8)
    assert traj.blown_up
    assert traj.blowup_time is not None
    assert traj.l2_series[-1] > 1e8 or not math.isfinite(traj.l2_series[-1])
    assert np.all(traj.l2_series[:-1] <= 1e8)
    assert traj.l2_times[-1] == traj.blowup_time
    assert traj.l2_times.size < g.n_steps + 1


def test_kept_coeffs_match_l2_series():
    g = Grid(n_modes=16, T=0.5, n_steps=64)
    noise = sample_noise(31, 16, 64, g.dt)
    traj = solve_path(Field.random_l2(16, 3.0, seed=4), CRITICAL, BOUNDED, g,
                      noise)
    assert traj.coeffs.shape == (g.n_steps + 1, 16)
    for row, norm in zip(traj.coeffs, traj.l2_series):
        assert abs(Field.from_coeffs(row).l2_norm() - norm) < 1e-12


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_solver_bits_are_pinned():
    g = Grid(n_modes=16, T=0.5, n_steps=128)
    traj = solve_path(Field.random_l2(16, 3.0, seed=4),
                      mollify(CRITICAL, 16), BOUNDED, g,
                      sample_noise(31, 16, 128, g.dt))
    assert traj.coeffs.shape == (129, 16)
    assert _sha256(traj.coeffs) == STOCHASTIC_COEFFS_SHA256
    g = Grid(n_modes=8, T=4.0, n_steps=512)
    u0 = Field.from_coeffs(np.concatenate([[50.0], np.zeros(7)]))
    traj = solve_path(u0, SUPERCRITICAL, 1.0, g, sample_noise(5, 8, 512, g.dt))
    assert traj.blown_up and traj.coeffs.shape == (39, 8)
    assert _sha256(traj.coeffs) == BLOWUP_COEFFS_SHA256


@pytest.mark.parametrize("drift,diffusion,seed", [
    (CRITICAL, BOUNDED, 31),
    (SUPERCRITICAL, 1.0, 5),
])
def test_path_l2_series_is_its_ensemble_row(drift, diffusion, seed):
    g = Grid(n_modes=8, T=4.0, n_steps=512)
    u0 = Field.from_coeffs(np.concatenate([[50.0], np.zeros(7)]))
    noise = sample_noise(seed, 8, 512, g.dt)
    traj = solve_path(u0, drift, diffusion, g, noise)
    l2, blown, steps = solve_l2_ensemble(u0, drift, diffusion, g,
                                         noise.increments[None])
    assert blown[0] == traj.blown_up
    k_end = steps[0] if blown[0] else g.n_steps
    assert traj.l2_series.size == k_end + 1
    np.testing.assert_array_equal(traj.l2_series, l2[0, :k_end + 1])


def test_single_path_agrees_with_its_batched_row():
    # bit for bit at the CLI's mode counts and at widths that are not
    # multiples of 8, where unpadded GEMM rows of a 5-row batch round
    # otherwise: the step's products go through fields.rows_matmul
    drift = mollify(CRITICAL, 16)
    for n_modes in (16, 32, 64, 17, 18, 25, 33):
        g = Grid(n_modes=n_modes, T=0.5, n_steps=128)
        u0 = Field.random_l2(n_modes, 3.0, seed=4)
        noises = [sample_noise(31 + i, n_modes, 128, g.dt) for i in range(5)]
        l2, blown, _ = solve_l2_ensemble(
            u0, drift, BOUNDED, g, np.stack([n.increments for n in noises]))
        assert not blown.any()
        for i, noise in enumerate(noises):
            traj = solve_path(u0, drift, BOUNDED, g, noise)
            assert traj.l2_series.tobytes() == l2[i].tobytes()


def test_solver_input_validation():
    g = Grid(n_modes=8, T=1.0, n_steps=16)
    with pytest.raises(ValueError):
        solve_path(Field.zero(8), None, 1.0, g, None)  # stochastic needs noise
    with pytest.raises(ValueError):
        solve_path(Field.zero(4), None, None, g)
    bad = sample_noise(1, 8, 32, 1.0 / 32.0)
    with pytest.raises(ValueError):
        solve_path(Field.zero(8), None, 1.0, g, bad)
    with pytest.raises(TypeError):
        solve_path(Field.zero(8), 3.5, None, g)
    with pytest.raises(TypeError):
        solve_path(Field.zero(8), None, lambda u: u, g,
                   sample_noise(1, 8, 16, g.dt))


def test_ensemble_freezes_blown_rows():
    g = Grid(n_modes=8, T=4.0, n_steps=256)
    u0 = Field.from_coeffs(np.concatenate([[50.0], np.zeros(7)]))
    Xi = np.stack([sample_noise(100 + i, 8, 256, g.dt).increments for i in range(3)])
    l2, blown, steps = solve_l2_ensemble(u0, SUPERCRITICAL, 1.0, g, Xi)
    assert blown.all()
    for p in range(3):
        s = steps[p]
        assert s > 0
        assert np.all(l2[p, s:] == l2[p, s])


@pytest.mark.parametrize("case", ["inf", "finite", "equal", "below", "nan"])
def test_breach_flags_as_the_finite_and_threshold_rule(case):
    # rows whose noise turns NaN, +inf, huge but finite, overflowing, or stays
    # ordinary; a breach is a norm that is non-finite or above threshold
    g = Grid(n_modes=8, T=0.5, n_steps=16)
    Xi = np.stack([sample_noise(60 + i, 8, 16, g.dt).increments
                   for i in range(5)])
    Xi[0, 2, 3] = np.nan
    Xi[1, 2, 5] = np.inf
    Xi[2, 2, 7] = 1e12
    Xi[3, 2, 9] = 1e300
    free = solve_l2_ensemble(Field.zero(8), None, 1.0, g, Xi, math.inf)[0]
    peak = np.max(free[4])
    threshold = {"inf": math.inf, "finite": 1e8, "equal": peak,
                 "below": np.nextafter(peak, 0.0), "nan": math.nan}[case]
    _, blown, steps = solve_l2_ensemble(Field.zero(8), None, 1.0, g, Xi,
                                        threshold)
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(free) | (free > threshold)
    bad[:, 0] = False
    np.testing.assert_array_equal(blown, bad.any(axis=1))
    np.testing.assert_array_equal(steps, np.where(blown, bad.argmax(axis=1), -1))
    if case in ("inf", "nan"):
        assert blown.tolist() == [True, True, False, True, False]
    if case == "finite":
        assert blown.tolist() == [True, True, True, True, False]
    assert blown[4] == (case == "below")


def test_mixed_breach_batch_rows_match_their_own_solves_in_both_layouts():
    g = Grid(n_modes=8, T=2.0, n_steps=128)
    u0 = Field.from_coeffs(np.concatenate([[7.0], np.zeros(7)]))
    diffusion = DiffusionSpec("sublinear_power", d1=2.0, d2=2.0, theta=0.5)
    # path 0 survives and paths 3, 2, 4 breach in that order, so the batch
    # switches to indexing and ends with path 0 alone
    seeds = derive_path_seeds(3, 0, 5)
    Xi = np.stack([sample_noise(seeds[i], 8, 128, g.dt).increments
                   for i in (0, 2, 3, 4)])
    # the (steps, paths, modes) buffer the Monte Carlo driver fills
    time_major = np.ascontiguousarray(Xi.transpose(2, 0, 1)).transpose(1, 2, 0)
    # each row solved on its own
    rows = [solve_l2_ensemble(u0, SUPERCRITICAL, diffusion, g, Xi[[i]])
            for i in range(4)]
    assert [r[1][0] for r in rows] == [False, True, True, True]
    for batch in (Xi, time_major):
        out = solve_l2_ensemble(u0, SUPERCRITICAL, diffusion, g, batch)
        for i, row in enumerate(rows):
            for got, want in zip(out, row):
                assert got[i].tobytes() == want[0].tobytes()


def test_spectral_refinement_differences_shrink():
    diffs = []
    for N in (16, 32, 64):
        g_c = Grid(n_modes=N, T=0.5, n_steps=512)
        g_f = Grid(n_modes=2 * N, T=0.5, n_steps=512)
        u0c = Field.from_coeffs(np.concatenate([[5.0, 2.0], np.zeros(N - 2)]))
        u0f = Field.from_coeffs(np.concatenate([[5.0, 2.0], np.zeros(2 * N - 2)]))
        coarse = solve_path(u0c, CRITICAL, BOUNDED, g_c,
                            sample_noise(77, N, 512, g_c.dt))
        fine = solve_path(u0f, CRITICAL, BOUNDED, g_f,
                          sample_noise(77, 2 * N, 512, g_f.dt))
        pad = np.zeros_like(fine.coeffs)
        pad[:, :N] = coarse.coeffs
        diffs.append(float(np.max(np.sqrt(np.sum((pad - fine.coeffs) ** 2, axis=1)))))
    assert diffs[0] > diffs[1] > diffs[2]


def test_uniqueness_experiment_converges():
    g = Grid(n_modes=16, T=0.5, n_steps=512)
    u0 = Field.random_l2(16, norm=5.0, seed=9)
    res = coupled_uniqueness_experiment(u0, CRITICAL, BOUNDED, g, seed=314,
                                        levels=(4, 8, 16, 32))
    d = res["sup_diffs"]
    assert len(d) == 3
    assert d[1] > d[2]
    assert d[2] < 1e-2


def test_uniqueness_experiment_plateau_identity():
    # affine drift inside every plateau: all levels see the same dynamics
    g = Grid(n_modes=16, T=0.5, n_steps=256)
    u0 = Field.random_l2(16, norm=2.0, seed=3)
    res = coupled_uniqueness_experiment(u0, DriftSpec("linear"), BOUNDED, g,
                                        seed=11, levels=(8, 16))
    assert res["sup_diffs"][0] < 1e-12


def test_uniqueness_experiment_needs_a_level():
    g = Grid(n_modes=8, T=0.5, n_steps=64)
    u0 = Field.random_l2(8, norm=1.0, seed=3)
    with pytest.raises(ValueError, match="need at least one mollification level"):
        coupled_uniqueness_experiment(u0, CRITICAL, BOUNDED, g, seed=11,
                                      levels=())


def test_uniqueness_sweep_matches_separate_level_solves():
    # criterion 10's configuration, each level solved as its own path and
    # the consecutive levels compared pairwise
    g = Grid(n_modes=32, T=1.0, n_steps=2048)
    u0 = Field.random_l2(32, norm=5.0, seed=9)
    levels = (4, 8, 16, 32, 64)
    res = coupled_uniqueness_experiment(u0, CRITICAL, BOUNDED, g, seed=314,
                                        levels=levels)
    noise = sample_noise(314, 32, 2048, g.dt)
    paths = [solve_path(u0, mollify(CRITICAL, n), BOUNDED, g, noise).coeffs
             for n in levels]
    want = [np.max(np.sqrt(np.sum((a - b) ** 2, axis=1)))
            for a, b in zip(paths, paths[1:])]
    assert res["pairs"] == list(zip(levels, levels[1:]))
    np.testing.assert_array_equal(np.array(res["sup_diffs"]).view(np.uint64),
                                  np.array(want).view(np.uint64))


# sha256 of a small uniqueness sweep's sup_diffs, in a child
SWEEP_HASH_CHILD = (
    "import hashlib\nimport numpy as np\n"
    "from logdrift.coefficients import DiffusionSpec, DriftSpec\n"
    "from logdrift.fields import Field\n"
    "from logdrift.solver import Grid, coupled_uniqueness_experiment\n"
    "res = coupled_uniqueness_experiment(\n"
    "    Field.random_l2(32, norm=5.0, seed=9), DriftSpec('log_linear'),\n"
    "    DiffusionSpec('bounded', d1=1.0, d2=0.0),\n"
    "    Grid(n_modes=32, T=1.0, n_steps=256), 314, (4, 8, 16, 32, 64))\n"
    "print(hashlib.sha256(np.array(res['sup_diffs']).tobytes()).hexdigest())\n")


def test_uniqueness_sweep_does_not_depend_on_blas_threads(blas_thread_outputs):
    digests = blas_thread_outputs(SWEEP_HASH_CHILD)
    assert digests[0] == digests[1]


def test_uniqueness_experiment_guards():
    g = Grid(n_modes=8, T=0.25, n_steps=32)
    u0 = Field.random_l2(8, norm=2.0, seed=1)
    with pytest.raises(ValueError):
        coupled_uniqueness_experiment(u0, CRITICAL, BOUNDED, g, 1, levels=(8, 8))
    with pytest.raises(ValueError, match="resolution"):
        coupled_uniqueness_experiment(Field.zero(16), CRITICAL, BOUNDED, g, 1,
                                      levels=(4, 8))
    # both levels breach at the first step: the lower one is named
    with pytest.raises(RuntimeError, match=r"level n=4 blew up at t=0\.0078125"):
        coupled_uniqueness_experiment(u0, CRITICAL, BOUNDED, g, 1,
                                      levels=(4, 8), threshold=1e-6)
    # from 30 the level-64 drift lifts the norm past 31 in one step, while the
    # level-4 drift is cut off and the norm decays
    big = Field.from_coeffs(np.concatenate([[30.0], np.zeros(7)]))
    with pytest.raises(RuntimeError, match=r"level n=64 blew up at t=0\.0078125"):
        coupled_uniqueness_experiment(big, SUPERCRITICAL, BOUNDED, g, 1,
                                      levels=(4, 64), threshold=31.0)


def test_deterministic_mollified_levels_approach_reference():
    # sigma == 0: mollified solves approach a fine-grid integration of b itself
    g = Grid(n_modes=16, T=0.5, n_steps=512)
    fine = Grid(n_modes=16, T=0.5, n_steps=4096)
    u0 = Field.random_l2(16, norm=3.0, seed=21)
    ref = solve_path(u0, CRITICAL, None, fine)
    finals = []
    for n in (8, 64):
        traj = solve_path(u0, mollify(CRITICAL, n), None, g)
        finals.append(traj.coeffs[-1])
    ref_final = ref.coeffs[-1]
    errs = [float(np.sqrt(np.sum((f - ref_final) ** 2))) for f in finals]
    assert errs[1] < 1e-3
    assert errs[1] <= errs[0]


def test_factorization_identity_refines():
    errs = []
    for n_steps in (128, 256, 512):
        g = Grid(n_modes=32, T=1.0, n_steps=n_steps)
        noise = sample_noise(909, 32, n_steps, g.dt)
        errs.append(factorization_check(0.1, g, noise))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] == pytest.approx(FACTORIZATION_512_REFERENCE, rel=1e-9)
    assert errs[2] < 0.10


def test_factorization_recurrence_is_the_solvers_convolution():
    # the recurrence V[k+1] = E V[k] + gamma xi_k, factorization_check's
    # direct side, is the solver's pure stochastic convolution bit for bit
    g = Grid(n_modes=32, T=1.0, n_steps=256)
    noise = sample_noise(909, 32, 256, g.dt)
    E, gamma = _propagators(32, g.dt)
    V = np.zeros((g.n_steps + 1, 32))
    for k in range(g.n_steps):
        V[k + 1] = E * V[k] + gamma * noise.increments[:, k]
    traj = solve_path(Field.zero(32), None, 1.0, g, noise)
    np.testing.assert_array_equal(traj.coeffs, V)


def test_factorization_trivial_and_validation():
    g = Grid(n_modes=8, T=1.0, n_steps=32)
    noise = sample_noise(2, 8, 32, g.dt)
    silent = NoiseRealization(2, 8, 32, g.dt, np.zeros((8, 32)))
    assert factorization_check(0.2, g, silent) == 0.0
    with pytest.raises(ValueError):
        factorization_check(0.3, g, noise)
    with pytest.raises(ValueError):
        factorization_check(0.0, g, noise)
    with pytest.raises(ValueError):
        factorization_check(0.1, Grid(n_modes=8, T=1.0, n_steps=16), noise)
    # fewer noise modes than the grid's: checked before the modes are read
    with pytest.raises(ValueError, match="does not cover the grid"):
        factorization_check(0.1, Grid(n_modes=16, T=1.0, n_steps=32), noise)
