import math

import numpy as np
import pytest

from logdrift.gronwall import (
    GronwallProblem,
    OracleConvergenceError,
    STABILITY_REFERENCE,
    _bound_series,
    check_domination,
    check_singular_growth_bound,
    check_vanishing_log_bound,
    make_problem_corpus,
    osgood_classifier,
    singular_weights,
    superlinear_g,
    superlinear_growth_bound,
    vanishing_data_decay,
    vanishing_g,
    volterra_oracle,
)

# Closed-form targets, frozen from 30-digit evaluations:
#   f' = f log f, f(0) = 2          -> f(1) = 2^e
#   f' = f,       f(0) = 2          -> f(1) = 2e
#   f = 1 + int (t-s)^{-1/2} f      -> f(1) = sum_k pi^{k/2}/Gamma(k/2+1)
TWO_TO_E = 6.5808859910179209709
TWO_E = 5.4365636569180904707
SINGULAR_RESOLVENT_AT_1 = 45.999326089382855366


def test_nonlinearities_at_special_points():
    assert superlinear_g(0.0) == 0.0
    assert superlinear_g(1.0) == 0.0
    assert superlinear_g(np.e) == pytest.approx(np.e)
    assert vanishing_g(0.0) == 0.0
    assert vanishing_g(1.0) == 0.0
    assert vanishing_g(np.exp(-1.0)) == pytest.approx(np.exp(-1.0))
    assert vanishing_g(5.0) == 0.0


def test_singular_weights_reduce_to_trapezoid_at_alpha_zero():
    wl, wr = singular_weights(16, 0.0, 0.25)
    assert np.allclose(wl[1:], 0.125)
    assert np.allclose(wr[1:], 0.125)
    assert wl[0] == wr[0] == 0.0


def test_oracle_reproduces_exponential_growth():
    prob = GronwallProblem(M=2.0, c1=1.0, T=1.0, grid_dt=1.0 / 2048.0)
    f = volterra_oracle(prob)
    assert f[-1] == pytest.approx(TWO_E, rel=5e-8)


def test_oracle_reproduces_superlinear_double_exponential():
    prob = GronwallProblem(M=2.0, c2=1.0, T=1.0, grid_dt=1.0 / 2048.0)
    f = volterra_oracle(prob, "superlinear")
    assert f[-1] == pytest.approx(TWO_TO_E, rel=5e-6)
    # the closed-form bound is the exact solution here: the inequality is sharp
    bound = superlinear_growth_bound(prob, 1.0)
    assert bound == pytest.approx(TWO_TO_E, rel=1e-12)
    assert abs(f[-1] - bound) < 5e-6 * bound


def test_oracle_reproduces_singular_resolvent():
    prob = GronwallProblem(M=1.0, c3=1.0, alpha=0.5, T=1.0, grid_dt=1.0 / 2048.0)
    f = volterra_oracle(prob)
    assert f[-1] == pytest.approx(SINGULAR_RESOLVENT_AT_1, rel=5e-6)


def test_oracle_is_monotone_and_dominates_forcing():
    prob = GronwallProblem(M=1.5, c1=0.7, c2=0.9, c3=0.3, alpha=0.25, T=1.0)
    f = volterra_oracle(prob)
    assert np.all(np.diff(f) >= -1e-12)
    assert np.all(f >= 1.5 - 1e-12)


def test_oracle_callable_coefficients_bracketed_by_constants():
    lo = volterra_oracle(GronwallProblem(M=1.0, c1=1.0, T=1.0))
    var = volterra_oracle(GronwallProblem(M=1.0, c1=lambda t: 1.0 + 0.5 * t, T=1.0))
    hi = volterra_oracle(GronwallProblem(M=1.0, c1=1.5, T=1.0))
    assert np.all(var >= lo - 1e-12)
    assert np.all(var <= hi + 1e-12)


def test_oracle_divergence_raises():
    prob = GronwallProblem(M=5.0, c2=80.0, T=1.0, grid_dt=1.0 / 128.0)
    with pytest.raises(OracleConvergenceError):
        volterra_oracle(prob, "superlinear")


def test_problem_validation():
    with pytest.raises(ValueError):
        GronwallProblem(M=1.0, alpha=0.6)
    with pytest.raises(ValueError):
        GronwallProblem(M=1.0, c1=-0.1)
    with pytest.raises(ValueError):
        GronwallProblem(M=lambda t: 1.0 - t)  # decreasing forcing
    with pytest.raises(ValueError):
        GronwallProblem(M=1.0, T=-1.0)


def test_superlinear_bound_preconditions():
    with pytest.raises(ValueError):
        superlinear_growth_bound(GronwallProblem(M=0.5, c1=1.0), 1.0)
    with pytest.raises(ValueError):
        superlinear_growth_bound(GronwallProblem(M=2.0, c3=1.0, alpha=0.25), 1.0)


def test_superlinear_bound_classical_reduction():
    # c2 = 0 collapses the bound to M e^{c1 t}
    prob = GronwallProblem(M=3.0, c1=0.8, T=1.0, grid_dt=1.0 / 512.0)
    assert superlinear_growth_bound(prob, 1.0) == pytest.approx(3.0 * math.exp(0.8), rel=1e-9)
    assert superlinear_growth_bound(prob, 0.0) == pytest.approx(3.0)


def test_vanishing_bound_constants_monotone_in_time():
    prob = GronwallProblem(M=0.2, c1=0.5, c2=0.7, c3=0.4, alpha=0.25, T=1.0)
    pairs = [check_vanishing_log_bound(prob, t) for t in (0.25, 0.5, 1.0)]
    bounds = [b for _, b in pairs]
    assert bounds == sorted(bounds)
    for orc, bnd in pairs:
        assert orc <= bnd + 1e-9


def test_singular_bound_bisection_minimality():
    prob = GronwallProblem(M=2.0, c1=0.4, c2=0.5, c3=0.6, alpha=0.5, T=1.0)
    orc, bnd = check_singular_growth_bound(prob, 1.0)
    assert orc <= bnd * (1.0 + 1e-6)
    f = volterra_oracle(prob, "superlinear")
    # the bound at t = 0 is C M(0) + 1, which gives back the constant found
    C = (_bound_series("singular", prob, f)[0] - 1.0) / 2.0
    ts = prob.times()

    def dominates(c):
        # the family (c M + 1)^{exp(c t)} against the oracle, in log space
        log_bound = np.exp(c * ts) * np.log(c * 2.0 + 1.0)
        return bool(np.all(np.log(f) <= log_bound + 1e-9))

    assert dominates(C)
    assert not dominates(C * (1.0 - 1e-6))


def test_domination_over_randomized_corpora():
    for kind in ("superlinear", "vanishing", "singular"):
        corpus = make_problem_corpus(kind, 25, seed=424242)
        for prob in corpus:
            rep = check_domination(kind, prob)
            assert rep.passed, f"{kind}: min gap {rep.min_gap}, tol {rep.max_tolerance}"


def test_oracle_grid_stability_on_reference_corpus():
    for nonlin, prob in STABILITY_REFERENCE:
        fine = prob.refined()
        assert fine.grid_dt == prob.grid_dt / 2.0
        assert fine.times().size == 2 * prob.times().size - 1
        a = volterra_oracle(prob, nonlin)
        b = volterra_oracle(fine, nonlin)
        assert np.max(np.abs(a - b[::2])) < 1e-6


def test_vanishing_data_decay_square_root_envelope():
    eps = np.array([1e-2, 1e-4, 1e-6])
    sups = vanishing_data_decay(eps, grid_dt=1.0 / 512.0)
    assert np.all(sups <= 10.0 * np.sqrt(eps))
    assert np.all(np.diff(sups) < 0)


def test_osgood_classifier_canonical_cases():
    assert osgood_classifier(lambda z: z * z, 1.0).classification == "convergent"
    assert osgood_classifier(lambda z: z * z, 1.0).integral_estimate == pytest.approx(1.0, rel=1e-6)
    assert osgood_classifier(lambda z: z * math.log(z), math.e).classification == "divergent"
    r = osgood_classifier(lambda z: z * math.log1p(z) ** 2, 1.0)
    assert r.classification == "convergent"
    assert math.isfinite(r.integral_estimate)
    assert osgood_classifier(lambda z: z, 1.0).classification == "divergent"


def test_osgood_classifier_validation():
    with pytest.raises(ValueError):
        osgood_classifier(lambda z: z, 0.0)
    with pytest.raises(ValueError):
        osgood_classifier(lambda z: -z, 2.0)
