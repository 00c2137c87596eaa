import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from logdrift.coefficients import (
    CONSTANT_CAP,
    DiffusionSpec,
    DriftSpec,
    FINE_STEP,
    HypothesisViolation,
    MAX_MOLLIFIER_LEVEL,
    bump,
    cutoff,
    drift_eval,
    growth_check,
    lipschitz_check,
    loglip_check,
    loglip_terms,
    mollifier_levels,
    mollify,
    pair_sample,
    sigma_eval,
    stack_levels,
    standard_sample,
    sublinear_check,
    uniform_growth_check,
)
from logdrift.coefficients import _convolve_bump, _pchip_coefficients

LOG_LINEAR = DriftSpec("log_linear")


def test_drift_eval_anchors():
    assert drift_eval(LOG_LINEAR, 0.0) == 0.0
    assert drift_eval(LOG_LINEAR, math.e) == pytest.approx(math.e)
    assert drift_eval(LOG_LINEAR, -math.e) == pytest.approx(-math.e)
    assert drift_eval(DriftSpec("linear", scale=3.0), 2.0) == 6.0
    assert drift_eval(DriftSpec("polynomial", degree=3, scale=2.0), -2.0) == -16.0
    spec = DriftSpec("log_power", exponent=2.0)
    assert drift_eval(spec, math.e - 1.0) == pytest.approx(math.e - 1.0)
    tab = DriftSpec("custom_table", table_x=(-1.0, 0.0, 1.0), table_y=(-2.0, 0.0, 2.0))
    assert drift_eval(tab, 0.5) == pytest.approx(1.0)


def _log_linear_by_where(scale, z):
    """The log_linear drift as two np.where passes around the log."""
    a = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(a > 0.0,
                        scale * z * np.log(np.where(a > 0.0, a, 1.0)), 0.0)


@pytest.mark.parametrize("scale", [1.0, -2.5, 0.0, 1e-10, 3.0])
def test_log_linear_drift_keeps_the_bits_of_the_where_formula(scale):
    tiny, normal, big = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
    edge = np.array([0.0, -0.0, tiny, -tiny, normal, -normal, 1.0, -1.0,
                     math.e, 1e-300, -1e300, big, -big, 0.5, -3.7])
    spec = DriftSpec("log_linear", scale=scale)
    want = _log_linear_by_where(scale, edge)
    with np.errstate(over="ignore"):
        got = drift_eval(spec, edge)
        scalars = [drift_eval(spec, z) for z in edge]
    assert got.tobytes() == want.tobytes()
    # b(+-0.0) is +0.0, as a scalar too
    assert all(type(x) is float for x in scalars)
    assert np.array(scalars).tobytes() == want.tobytes()
    assert np.signbit(got[:2]).tolist() == [False, False]
    block = np.random.default_rng(5).uniform(-40.0, 40.0, (64, 96))
    block[::3, ::7] = 0.0
    assert drift_eval(spec, block).tobytes() == \
        _log_linear_by_where(scale, block).tobytes()


def test_drift_odd_symmetry_exact():
    zs = standard_sample()
    np.testing.assert_array_equal(drift_eval(LOG_LINEAR, -zs), -drift_eval(LOG_LINEAR, zs))


def test_drift_validation():
    with pytest.raises(ValueError):
        DriftSpec("no_such_family")
    with pytest.raises(ValueError):
        DriftSpec("log_power", exponent=0.5)
    with pytest.raises(ValueError):
        DriftSpec("polynomial", degree=0)
    with pytest.raises(ValueError):
        DriftSpec("custom_table", table_x=(0.0, 1.0), table_y=(0.0,))
    with pytest.raises(ValueError):
        DriftSpec("custom_table", table_x=(1.0, 0.0), table_y=(0.0, 1.0))
    with pytest.raises(ValueError):
        drift_eval(LOG_LINEAR, np.inf)


def test_growth_check_log_linear_minimal_constants():
    c1, c2 = growth_check(LOG_LINEAR)
    assert c1 == pytest.approx(1.0, abs=1e-6)
    assert c2 == pytest.approx(1.0 / math.e, abs=1e-12)


def test_growth_check_zero_drift():
    assert growth_check(DriftSpec("linear", scale=0.0)) == (0.0, 0.0)


def test_growth_check_flags_superlogarithmic_families():
    with pytest.raises(HypothesisViolation):
        growth_check(DriftSpec("polynomial", degree=2))
    with pytest.raises(HypothesisViolation):
        growth_check(DriftSpec("log_power", exponent=2.0))
    # exponent 1 stays within the log-linear envelope (log(1+z) <= log z + 1/z)
    c1, c2 = growth_check(DriftSpec("log_power", exponent=1.0))
    assert c1 < 1.5 and c2 < 1.0


def test_loglip_check_linear_is_pure_lipschitz():
    c3, c4, c5 = loglip_check(DriftSpec("linear", scale=2.0))
    assert c3 == pytest.approx(0.0, abs=1e-9)
    assert c4 == pytest.approx(0.0, abs=1e-9)
    assert c5 == pytest.approx(2.0, rel=1e-9)


def _majorizes(spec, constants, rel):
    """Whether c3, c4, c5 majorize every sampled |b(u) - b(v)| up to a
    relative slack."""
    c3, c4, c5 = constants
    u, v = pair_sample()
    d = np.abs(drift_eval(spec, u) - drift_eval(spec, v))
    gap = np.abs(u - v)
    t1 = gap * np.log(np.maximum(1.0, 1.0 / np.where(gap > 0, gap, 1.0)))
    t2 = np.log(np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))) * gap
    return bool(np.all(d <= (c3 * t1 + c4 * t2 + c5 * gap) * (1.0 + rel)))


def test_loglip_check_samples_no_rounding_error():
    # gaps of 1e-12 on a base of 1e6 lie below its float spacing, so their
    # quotients were rounding error, which only the c3 column could absorb
    c3, _, c5 = loglip_check(DriftSpec("linear", scale=1000.0))
    assert c3 < 1e-5
    assert c5 == pytest.approx(1000.0, rel=1e-9)


def test_loglip_check_log_linear_feasible_and_tight():
    c3, c4, c5 = loglip_check(LOG_LINEAR)
    assert c3 == pytest.approx(1.0, rel=0.25)
    assert max(c3, c4, c5) < 10.0
    # returned triple must actually majorize the sampled differences
    assert _majorizes(LOG_LINEAR, (c3, c4, c5), rel=1e-9)


STEP = DriftSpec("custom_table", table_x=(-1e7, -1e-9, 1e-9, 1e7),
                 table_y=(-1.0, -1.0, 1.0, 1.0))


def test_loglip_check_flags_jump():
    with pytest.raises(HypothesisViolation):
        loglip_check(STEP)


# the drift families whose log-Lipschitz program has a solution below the cap
FEASIBLE = {
    "log_linear": LOG_LINEAR,
    "log_linear-x3": DriftSpec("log_linear", scale=3.0),
    "log_linear-x-2": DriftSpec("log_linear", scale=-2.0),
    "log_power-1": DriftSpec("log_power", exponent=1.0),
    "log_power-2": DriftSpec("log_power", exponent=2.0),
    "log_power-3": DriftSpec("log_power", exponent=3.0),
    "linear": DriftSpec("linear"),
    "polynomial-1": DriftSpec("polynomial", degree=1),
    "polynomial-2": DriftSpec("polynomial", degree=2),
    "custom_table": DriftSpec("custom_table",
                              table_x=(-5.0, -1.0, 0.0, 2.0, 10.0),
                              table_y=(3.0, -1.0, 0.5, 4.0, -2.0)),
}


def _highs_constants(spec):
    """scipy's HiGHS answer to loglip_check's linear program, or None when
    it finds the program infeasible."""
    from scipy.optimize import linprog
    u, v = pair_sample()
    t1, t2, t3 = loglip_terms(u, v)
    d = np.abs(drift_eval(spec, u) - drift_eval(spec, v))
    keep = d > 0.0
    s = t3[keep]
    res = linprog(c=[1.0, 1.0, 1.0],
                  A_ub=-np.column_stack([t1[keep] / s, t2[keep] / s, t3[keep] / s]),
                  b_ub=-d[keep] / s, bounds=[(0.0, CONSTANT_CAP)] * 3,
                  method="highs")
    if res.status == 2:
        return None
    assert res.success, res.message
    return np.maximum(res.x, 0.0)


@pytest.mark.parametrize("spec", FEASIBLE.values(), ids=FEASIBLE)
def test_loglip_check_matches_highs(spec):
    ours, ref = np.array(loglip_check(spec)), _highs_constants(spec)
    assert ours.sum() == pytest.approx(ref.sum(), rel=1e-9)
    # each of these optima is unique; a constant at 0 is compared at the
    # objective's scale
    np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-9 * ref.sum())


@pytest.mark.parametrize("spec", [DriftSpec("polynomial", degree=3), STEP],
                         ids=["polynomial-3", "step"])
def test_loglip_check_and_highs_agree_on_infeasible_programs(spec):
    assert _highs_constants(spec) is None
    with pytest.raises(HypothesisViolation,
                       match="no constants below the cap fit"):
        loglip_check(spec)


@pytest.mark.parametrize("scale", [1e-12, 1e-7, 1.0, 1e3])
def test_loglip_check_scales_with_the_drift(scale):
    # a solver with absolute tolerances (HiGHS's are about 1e-7) drops the
    # small rows of a small drift, and at scale 1e-10 returns (0, 0, 0),
    # constants that bound nothing
    spec = DriftSpec("log_linear", scale=scale)
    constants = loglip_check(spec)
    np.testing.assert_allclose(constants, scale * np.array(loglip_check(LOG_LINEAR)),
                               rtol=1e-12, atol=0.0)
    assert _majorizes(spec, constants, rel=1e-12)


@pytest.mark.parametrize("spec", FEASIBLE.values(), ids=FEASIBLE)
def test_loglip_check_is_exact_under_dyadic_scales(spec):
    # a power of two scales every sampled difference exactly, so the
    # constants scale bit for bit; other scales round the differences
    base = np.array(loglip_check(spec))
    for k in (-40, -23, 2):
        f = 2.0 ** k
        scaled = replace(spec, scale=f * spec.scale) if spec.table_y is None \
            else replace(spec, table_y=tuple(f * y for y in spec.table_y))
        np.testing.assert_array_equal(loglip_check(scaled), f * base)


def test_loglip_check_names_a_quotient_past_the_float_range():
    # finite differences whose quotients by a 1e-12 gap overflow exceed
    # every majorant with constants at the cap: a named failure, not an
    # infinite bound handed to the solver
    spec = DriftSpec("custom_table", table_x=(0.0, 1e-12), table_y=(0.0, 1e300))
    with pytest.raises(HypothesisViolation,
                       match="no constants below the cap fit"):
        loglip_check(spec)


def test_bump_shape_and_mass():
    mass, _ = quad(bump, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert mass == pytest.approx(1.0, abs=1e-10)
    xs = np.linspace(-1.5, 1.5, 301)
    vals = bump(xs)
    assert np.all(vals >= 0.0)
    np.testing.assert_array_equal(vals, bump(-xs))
    assert bump(1.0) == 0.0 and bump(-1.0) == 0.0 and bump(1.2) == 0.0


def test_cutoff_profile():
    n = 4
    xs = np.linspace(-n, n, 41)
    np.testing.assert_array_equal(cutoff(xs, n), np.ones(41))
    assert cutoff(n + 2.0, n) == 0.0
    assert cutoff(8.5, n) == 0.0
    band = cutoff(np.linspace(n, n + 2, 101), n)
    assert np.all(np.diff(band) <= 0.0)
    assert np.all((band >= 0.0) & (band <= 1.0))
    assert cutoff(n + 1.0, n) == pytest.approx(0.5)


def test_mollify_preserves_affine_inside_plateau():
    m = mollify(DriftSpec("linear"), 8)
    xs = np.linspace(-7.0, 7.0, 101)
    assert np.max(np.abs(m(xs) - xs)) < 1e-12


def test_mollify_vanishes_outside_support():
    m = mollify(LOG_LINEAR, 4)
    assert m(6.0) == 0.0
    np.testing.assert_array_equal(m(np.array([6.0, 7.5, -9.0])), np.zeros(3))


def _drift_probes(n: int, grid: np.ndarray) -> np.ndarray:
    """Every breakpoint, both neighbours and the midpoints, the support
    ends, points beyond them, +-inf, NaN and +-0."""
    edge = n + 2.0
    return np.concatenate([
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        0.5 * (grid[1:] + grid[:-1]),
        [edge, -edge, edge + 1e-9, -edge - 0.5, 3.0 * edge, -1e300,
         np.inf, -np.inf, np.nan, 0.0, -0.0, n, -n],
        np.random.default_rng(n).normal(scale=edge / 2.0, size=2000)])


@pytest.mark.parametrize("spec", [LOG_LINEAR, DriftSpec("log_power")],
                         ids=["log_linear", "log_power"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
def test_mollified_drift_matches_pchip_bit_for_bit(spec, n):
    # the table-indexed lookup against scipy's evaluation of the same cubic
    m = mollify(spec, n)
    grid = m._grid
    ref_interp = PchipInterpolator(grid, _convolve_bump(spec, grid, n),
                                   extrapolate=False)

    def reference(z):
        out = ref_interp(z) * cutoff(z, n)
        return np.where(np.isnan(out), 0.0, out)

    z = _drift_probes(n, grid)
    got, ref = m(z), reference(z)
    assert got.shape == z.shape
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
    block = z[: 6 * (z.size // 6)].reshape(6, -1)
    np.testing.assert_array_equal(m(block).view(np.uint64),
                                  reference(block).view(np.uint64))
    for x in (0.0, -0.0, 0.3, -(n + 1.5), n + 2.0, np.nan, np.inf):
        value = m(x)
        assert type(value) is float
        assert np.float64(value).view(np.uint64) == \
            np.float64(reference(np.float64(x))).view(np.uint64)


@pytest.mark.parametrize("spec", [LOG_LINEAR, DriftSpec("log_power")],
                         ids=["log_linear", "log_power"])
@pytest.mark.parametrize("levels", [(4, 8, 16, 32, 64), (1, 2, 3)])
def test_stacked_levels_match_each_level_bit_for_bit(spec, levels):
    drifts = [mollify(spec, n) for n in levels]
    probes = [_drift_probes(d.n, d._grid) for d in drifts]
    # one level per row, each level's probes repeated to the longest's length
    z = np.array([np.resize(p, max(map(len, probes))) for p in probes])
    lookup = stack_levels(drifts)
    for rows in (len(levels), 2, 1):
        # a breach leaves fewer rows than levels; row i still reads level i
        got = lookup(z[:rows])
        want = np.array([d(v) for d, v in zip(drifts, z[:rows])])
        assert got.shape == want.shape == (rows, z.shape[1])
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


def test_stacked_levels_hold_only_the_joined_tables():
    # the levels' own tables are garbage once joined, so a sweep holds one
    # copy of its tables, not two
    drifts = [mollify(LOG_LINEAR, n) for n in (4, 8)]
    refs = [weakref.ref(d) for d in drifts]
    lookup = stack_levels(drifts)
    del drifts
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert lookup(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("spec", [LOG_LINEAR, DriftSpec("log_power"),
                                  DriftSpec("linear"),
                                  DriftSpec("polynomial", degree=3)],
                         ids=["log_linear", "log_power", "linear", "cubic"])
def test_odd_mollified_drift_is_exactly_zero_at_zero(spec):
    assert spec.odd
    for n in (4, 8, 16, 32, 64):
        m = mollify(spec, n)
        assert m(0.0) == 0.0
        assert m(-0.0) == 0.0


def _random_pchip_case(seed: int):
    """Uneven nodes and values on a few levels, so that runs of equal values
    (zero secants) and secant sign changes are common."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(1e-3, 2.0, size=300))
    y = rng.integers(-2, 3, size=300) * 10.0 ** rng.integers(-3, 4, size=300)
    return x, y


# each case reaches the branch of the slope rule it is named after; the end
# slope asserted is the first interval's
PCHIP_CASES = {
    "harmonic_mean_uneven": ([0.0, 0.3, 1.0, 1.1, 2.5],
                             [0.0, 1.0, 1.5, 4.0, 4.2], None),
    "sign_changes": ([0.0, 1.0, 2.0, 3.5, 4.0, 6.0],
                     [0.0, 1.0, 0.0, 2.0, -1.0, 3.0], None),
    "zero_slopes": ([0.0, 1.0, 2.0, 2.5, 4.0],
                    [1.0, 1.0, 2.0, 2.0, 2.0], 0.0),
    # (3 * 1 - 5) / 2 disagrees in sign with the first secant, 1
    "end_slope_zeroed": ([0.0, 1.0, 2.0], [0.0, 1.0, 6.0], 0.0),
    # (3 * 1 + 10) / 2 exceeds 3 times the first secant, which the next
    # secant, -10, opposes
    "end_slope_capped": ([0.0, 1.0, 2.0], [0.0, 1.0, -9.0], 3.0),
    "end_slope_kept": ([0.0, 2.0, 3.0], [0.0, 2.0, 2.5], 4.0 / 3.0),
    "random_0": _random_pchip_case(0) + (None,),
    "random_1": _random_pchip_case(1) + (None,),
}


@pytest.mark.parametrize("case", sorted(PCHIP_CASES))
def test_pchip_coefficients_match_scipy_bit_for_bit(case):
    x, y, first_slope = PCHIP_CASES[case]
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    coef = _pchip_coefficients(x, y)
    ref = np.ascontiguousarray(PchipInterpolator(x, y).c.T)
    assert coef.shape == ref.shape == (x.size - 1, 4)
    np.testing.assert_array_equal(coef.view(np.uint64), ref.view(np.uint64))
    if first_slope is not None:
        assert coef[0, 2] == pytest.approx(first_slope, rel=1e-15)


def test_pchip_random_cases_reach_the_interior_branches():
    for seed in (0, 1):
        x, y = _random_pchip_case(seed)
        m = np.diff(y) / np.diff(x)
        d = _pchip_coefficients(x, y)[:, 2]
        flat = np.sign(m[1:]) * np.sign(m[:-1]) <= 0.0
        assert np.any(np.sign(m[1:]) * np.sign(m[:-1]) < 0)
        assert np.any(m == 0.0)
        assert np.all(d[1:][flat] == 0.0)
        assert np.all(d[1:][~flat] != 0.0)


TABLE_HASH_CHILD = (
    "import hashlib\n"
    "from logdrift.coefficients import DriftSpec, _convolve_bump, mollify\n"
    "h = hashlib.sha256()\n"
    "for family in ('log_linear', 'log_power'):\n"
    "    spec = DriftSpec(family)\n"
    "    for n in (4, 8, 16, 32, 64):\n"
    "        grid = mollify(spec, n)._grid\n"
    "        h.update(_convolve_bump(spec, grid, n).tobytes())\n"
    "print(h.hexdigest())\n")


def test_mollifier_tables_do_not_depend_on_blas_threads(blas_thread_outputs):
    digests = blas_thread_outputs(TABLE_HASH_CHILD)
    assert digests[0] == digests[1]


# sha256 of mollify(spec, n)._coef. The log families' were recorded before
# the table build went through blocks of rows, the others' before the rows
# with n|x| >= 1 shared one quadrature; at level 1 every fine row has
# n|x| < 1. The polynomial is the default degree 2, even, so no exact zero
# is set at 0, and the custom table is FEASIBLE's five-node one
TABLE_DIGESTS = {
    ("log_linear", 64):
        "434a27c0035e4205417b6b3a549a31e7b003367d27d5b52d87365bc8aef15f5f",
    ("log_linear", 1024):
        "0b10a05346a66354dc85eb80f428a9985be03b30b185bc7efcfd24d4a93c09a2",
    ("log_power", 64):
        "7ca23df8b63925041196cc6df06f49a3bd2791bf0aa8bad3b8b86520b90f05e4",
    ("log_power", 1024):
        "25bf78c09fd5f3aa298ea00439db6904cf1780eb9744024753f753a2da4bff05",
    ("linear", 1):
        "571171568c0db98b3be26658316a102b5458914f166c1264ab76a21720b6e4d1",
    ("linear", 64):
        "cd6d941cb6ad5f40d6b4290f5fc94f2b7f1a080d97ae8761acbbea7697ef1f2c",
    ("polynomial", 1):
        "35522c8afcfa55bab3a046adbe48563e9e2b5ac1cecf72378a8e66e2006d4645",
    ("polynomial", 64):
        "992293e5452bc6d7aaa9a8cbde96d093a0785d10cac1bfbab65c283dbfab1bfb",
    ("custom_table", 1):
        "3ba09cc986672206d86928ac01f907dee25ce29ef5652e8aa766bf6791a622cf",
    ("custom_table", 64):
        "174f9a2c557e20916e7cf705ae651bf591f2d0e8b70266be42a91839b4ef9501",
}


@pytest.mark.parametrize("family,n", sorted(TABLE_DIGESTS))
def test_mollifier_table_bits_are_pinned(family, n):
    spec = FEASIBLE[family] if family == "custom_table" else DriftSpec(family)
    coef = mollify(spec, n)._coef
    assert hashlib.sha256(coef.tobytes()).hexdigest() == \
        TABLE_DIGESTS[family, n]


# peak RSS in MB after a level-MAX_MOLLIFIER_LEVEL build in a fresh process.
# The import alone takes about 57 MB and the blocked build, whose rows with
# n|x| >= 1 share one quadrature, 83.4 MB in all, as before they shared it;
# one batch over every grid row took about 420 MB. The child reads its
# own address space's high-water mark: its ru_maxrss would also count the
# test process, whose high-water mark Linux carries over at exec
TABLE_BUILD_PEAK_MB = 160.0
TABLE_RSS_CHILD = (
    "from logdrift.coefficients import DriftSpec, MAX_MOLLIFIER_LEVEL, "
    "mollify\n"
    "mollify(DriftSpec('log_linear'), MAX_MOLLIFIER_LEVEL)\n"
    "status = open('/proc/self/status').read().split()\n"
    "print(int(status[status.index('VmHWM:') + 1]) / 1024.0)\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the child reads its peak RSS from /proc")
def test_largest_mollifier_table_builds_in_bounded_memory():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", TABLE_RSS_CHILD], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert float(child.stdout) < TABLE_BUILD_PEAK_MB


def test_oddness_is_by_family():
    assert not DriftSpec("polynomial", degree=2).odd
    assert not DriftSpec("custom_table", table_x=(-1.0, 1.0),
                         table_y=(-1.0, 1.0)).odd


def test_mollify_matches_adaptive_quadrature():
    n = 16
    m = mollify(LOG_LINEAR, n)
    for x in (0.001, 0.3, 5.0, 15.5, 17.2):
        direct = quad(lambda y: drift_eval(LOG_LINEAR, y) * bump(n * (x - y)) * n,
                      x - 1.0 / n, x + 1.0 / n,
                      points=[0.0] if abs(x) < 1.0 / n else None,
                      epsabs=1e-13, limit=200)[0] * cutoff(x, n)
        assert m(x) == pytest.approx(direct, abs=5e-7)


def test_mollify_converges_pointwise():
    target = drift_eval(LOG_LINEAR, 5.0)
    errs = [abs(mollify(LOG_LINEAR, n)(5.0) - target)
            for n in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-4


def test_mollify_moving_argument_convergence():
    x = 3.0
    target = drift_eval(LOG_LINEAR, x)
    errs = []
    for n in (4, 8, 16, 32, 64):
        xk = x + 1.0 / n ** 3
        errs.append(abs(mollify(LOG_LINEAR, n)(xk) - target))
    assert errs[-1] < 1e-4
    assert errs[-1] < errs[0]


def test_mollify_lipschitz_bound_holds_on_samples():
    m = mollify(LOG_LINEAR, 8)
    # the largest difference quotient on a grid twice as fine as the table's
    dense = np.arange(-10.0, 10.0 + FINE_STEP / 4, FINE_STEP / 2)
    lipschitz = float(np.max(np.abs(np.diff(m(dense)) / np.diff(dense))))
    assert math.isfinite(lipschitz)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-10.5, 10.5, size=400)
    ys = rng.uniform(-10.5, 10.5, size=400)
    lhs = np.abs(m(xs) - m(ys))
    assert np.all(lhs <= 1.05 * lipschitz * np.abs(xs - ys) + 1e-12)


def test_uniform_growth_constant_finite_across_levels():
    L = uniform_growth_check(LOG_LINEAR)
    assert 0.0 < L < 1.0
    assert uniform_growth_check(DriftSpec("linear", scale=0.0)) == 0.0
    assert uniform_growth_check(DriftSpec("linear", scale=2.0)) <= 2.0 + 1e-9


def test_mollifier_params_validation():
    with pytest.raises(ValueError):
        mollify(LOG_LINEAR, 0)
    with pytest.raises(ValueError):
        mollify(LOG_LINEAR, MAX_MOLLIFIER_LEVEL + 1)
    with pytest.raises(ValueError):
        mollifier_levels([4, MAX_MOLLIFIER_LEVEL + 1])
    assert mollifier_levels([1, MAX_MOLLIFIER_LEVEL])[-1] == MAX_MOLLIFIER_LEVEL
    # every dyadic ladder up to the largest level, but not every level
    ladder = [2 ** k for k in range(MAX_MOLLIFIER_LEVEL.bit_length())]
    assert mollifier_levels(ladder) == ladder
    with pytest.raises(ValueError, match="levels must sum to at most"):
        mollifier_levels(range(1, MAX_MOLLIFIER_LEVEL + 1))


def test_sigma_families():
    s = DiffusionSpec("sublinear_power", d1=1.0, d2=0.3, theta=0.5)
    d1m, d2m = sublinear_check(s)
    assert d1m <= 1.0 + 1e-9
    assert d2m == pytest.approx(0.3)
    assert lipschitz_check(s) <= 1.0 + 1e-4
    b = DiffusionSpec("bounded", d1=2.0, d2=0.5)
    assert np.max(np.abs(sigma_eval(b, standard_sample()))) <= 2.5 + 1e-12
    assert sigma_eval(b, 0.0) == 0.5
    c = DiffusionSpec("lipschitz_custom", func=np.sin, d3=1.0)
    assert lipschitz_check(c) <= 1.0 + 1e-9


def test_sigma_validation():
    with pytest.raises(ValueError):
        DiffusionSpec("sublinear_power", theta=1.0)
    with pytest.raises(ValueError):
        DiffusionSpec("bounded", theta=0.5)
    with pytest.raises(ValueError):
        DiffusionSpec("sublinear_power", d1=-1.0)
    with pytest.raises(HypothesisViolation):
        DiffusionSpec("lipschitz_custom", func=lambda u: np.sqrt(np.abs(u)), d3=1.0)
    for d1, d2 in [(math.inf, 0.0), (1.0, math.inf), (math.nan, 0.0), (1.0, math.nan)]:
        with pytest.raises(ValueError):
            DiffusionSpec("sublinear_power", d1=d1, d2=d2, theta=0.5)


def test_nan_constants_fail_the_cap():
    # NaN fails every comparison, so a cap test written as "c > cap" would
    # let a NaN constant through
    c = DiffusionSpec("lipschitz_custom", func=lambda u: np.full_like(u, np.nan),
                      d3=1.0)
    with pytest.raises(HypothesisViolation):
        sublinear_check(c)
    with pytest.raises(HypothesisViolation):
        lipschitz_check(c)
