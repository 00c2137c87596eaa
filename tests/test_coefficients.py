import math

import numpy as np
import pytest
from scipy.integrate import quad

from logdrift.coefficients import (
    DiffusionSpec,
    DriftSpec,
    HypothesisViolation,
    MollifierParams,
    bump,
    cutoff,
    drift_eval,
    growth_check,
    lipschitz_check,
    loglip_check,
    mollify,
    pair_sample,
    sigma_eval,
    standard_sample,
    sublinear_check,
    uniform_growth_check,
)

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


def test_loglip_check_log_linear_feasible_and_tight():
    c3, c4, c5 = loglip_check(LOG_LINEAR)
    assert c3 == pytest.approx(1.0, rel=0.25)
    assert max(c3, c4, c5) < 10.0
    # returned triple must actually majorize the sampled differences
    u, v = pair_sample()
    d = np.abs(drift_eval(LOG_LINEAR, u) - drift_eval(LOG_LINEAR, v))
    gap = np.abs(u - v)
    t1 = gap * np.log(np.maximum(1.0, 1.0 / np.where(gap > 0, gap, 1.0)))
    t2 = np.log(np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))) * gap
    assert np.all(d <= c3 * t1 + c4 * t2 + c5 * gap + 1e-9)


def test_loglip_check_flags_jump():
    step = DriftSpec("custom_table", table_x=(-1e7, -1e-9, 1e-9, 1e7),
                     table_y=(-1.0, -1.0, 1.0, 1.0))
    with pytest.raises(HypothesisViolation):
        loglip_check(step)


def test_declared_constants_gate():
    DriftSpec("log_linear", declared_constants=(1.0, 0.37, 1.0, 1.2, 0.7))
    with pytest.raises(HypothesisViolation):
        DriftSpec("log_linear", declared_constants=(0.5, 0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        DriftSpec("log_linear", declared_constants=(1.0, -0.1, 1.0, 1.0, 1.0))


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
    m = mollify(DriftSpec("linear"), MollifierParams(n=8))
    xs = np.linspace(-7.0, 7.0, 101)
    assert np.max(np.abs(m(xs) - xs)) < 1e-12


def test_mollify_vanishes_outside_support():
    m = mollify(LOG_LINEAR, MollifierParams(n=4))
    assert m(6.0) == 0.0
    np.testing.assert_array_equal(m(np.array([6.0, 7.5, -9.0])), np.zeros(3))


def test_mollify_matches_adaptive_quadrature():
    n = 16
    m = mollify(LOG_LINEAR, MollifierParams(n=n))
    for x in (0.001, 0.3, 5.0, 15.5, 17.2):
        direct = quad(lambda y: drift_eval(LOG_LINEAR, y) * bump(n * (x - y)) * n,
                      x - 1.0 / n, x + 1.0 / n,
                      points=[0.0] if abs(x) < 1.0 / n else None,
                      epsabs=1e-13, limit=200)[0] * cutoff(x, n)
        assert m(x) == pytest.approx(direct, abs=5e-7)


def test_mollify_converges_pointwise():
    target = drift_eval(LOG_LINEAR, 5.0)
    errs = [abs(mollify(LOG_LINEAR, MollifierParams(n=n))(5.0) - target)
            for n in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-4


def test_mollify_moving_argument_convergence():
    x = 3.0
    target = drift_eval(LOG_LINEAR, x)
    errs = []
    for n in (4, 8, 16, 32, 64):
        xk = x + 1.0 / n ** 3
        errs.append(abs(mollify(LOG_LINEAR, MollifierParams(n=n))(xk) - target))
    assert errs[-1] < 1e-4
    assert errs[-1] < errs[0]


def test_mollify_lipschitz_bound_holds_on_samples():
    m = mollify(LOG_LINEAR, MollifierParams(n=8))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-10.5, 10.5, size=400)
    ys = rng.uniform(-10.5, 10.5, size=400)
    lhs = np.abs(m(xs) - m(ys))
    assert np.all(lhs <= 1.05 * m.lipschitz * np.abs(xs - ys) + 1e-12)
    assert math.isfinite(m.lipschitz)


def test_uniform_growth_constant_finite_across_levels():
    L = uniform_growth_check(LOG_LINEAR)
    assert 0.0 < L < 1.0
    assert uniform_growth_check(DriftSpec("linear", scale=0.0)) == 0.0
    assert uniform_growth_check(DriftSpec("linear", scale=2.0)) <= 2.0 + 1e-9


def test_mollifier_params_validation():
    with pytest.raises(ValueError):
        MollifierParams(n=0)


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
