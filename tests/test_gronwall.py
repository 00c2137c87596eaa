import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import beta as beta_fn, betainc

from logdrift import gronwall
from logdrift.gronwall import (
    GronwallProblem,
    MAX_PICARD_ITERATIONS,
    OracleConvergenceError,
    PICARD_TOL,
    STABILITY_REFERENCE,
    _bound_series,
    _startup_corrections,
    check_domination,
    make_problem_corpus,
    oracle_pair,
    singular_weights,
    superlinear_g,
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


@pytest.mark.parametrize("K", [1, 7, 4096])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0 / 3.0, 0.5])
def test_kernel_weights_keep_the_bits_of_the_expression_form(K, alpha):
    # the weights and corrections are built in place, in the order of these
    # expressions, so each array keeps their bits
    dt = np.linspace(0.0, 1.0, K + 1)[1]
    m = np.arange(0, K + 1, dtype=float)
    a = np.maximum(m - 1.0, 0.0) * dt
    b = m * dt
    m0 = (b ** (1.0 - alpha) - a ** (1.0 - alpha)) / (1.0 - alpha)
    m1 = b * m0 - (b ** (2.0 - alpha) - a ** (2.0 - alpha)) / (2.0 - alpha)
    want_wl, want_wr = m0 - m1 / dt, m1 / dt
    want_wl[0] = want_wr[0] = 0.0
    tk = m * dt
    nu = np.zeros(K + 1)
    x = np.clip(dt / np.maximum(tk[1:], dt), 0.0, 1.0)
    nu[1:] = (tk[1:] ** (2.0 - 2.0 * alpha)
              * float(beta_fn(2.0 - alpha, 1.0 - alpha))
              * betainc(2.0 - alpha, 1.0 - alpha, x))
    m0_first = np.zeros(K + 1)
    m0_first[1:] = (tk[1:] ** (1.0 - alpha)
                    - (tk[1:] - dt) ** (1.0 - alpha)) / (1.0 - alpha)
    scale = nu / dt ** (1.0 - alpha)
    want_corr0, want_corr1 = (m0_first - scale) - want_wl, scale - want_wr
    want_corr0[0] = want_corr1[0] = 0.0
    wl, wr = singular_weights(K, alpha, dt)
    corr0, corr1 = _startup_corrections(K, alpha, dt, wl, wr)
    if alpha == 0.0:
        want_corr0 = want_corr1 = np.zeros(K + 1)
        # the caller updates corr0 in place, so it must not be corr1
        assert corr0 is not corr1
    for got, want in ((wl, want_wl), (wr, want_wr), (corr0, want_corr0),
                      (corr1, want_corr1)):
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


def _dense_oracle(prob):
    """The superlinear oracle's discrete system solved with dense
    lower-triangular matrices built entry by entry: trapezoid T and product
    integration W, node 0 of row k weighing wl[k] + corr0[k], node j >= 1
    wl[k-j] + wr[k-j+1], and node 1 also corr1[k]."""
    ts = prob.times()
    K, dt = ts.size - 1, ts[1] - ts[0]
    wl, wr = singular_weights(K, prob.alpha, dt)
    corr0, corr1 = _startup_corrections(K, prob.alpha, dt, wl, wr)
    W = np.zeros((K + 1, K + 1))
    T = np.zeros((K + 1, K + 1))
    for k in range(1, K + 1):
        lags = k - np.arange(1, k + 1)
        W[k, 0] = wl[k] + corr0[k]
        W[k, 1:k + 1] = wl[lags] + wr[lags + 1]
        W[k, 1] += corr1[k]
        T[k, :k + 1] = dt
        T[k, 0] = T[k, k] = dt / 2.0
    f = np.full(K + 1, prob.M)
    for _ in range(MAX_PICARD_ITERATIONS):
        fn = prob.M + T @ (prob.c1 * f + prob.c2 * superlinear_g(f)) + W @ (prob.c3 * f)
        delta = np.max(np.abs(fn - f))
        f = fn
        if delta < PICARD_TOL:
            return f
    raise AssertionError("dense reference did not converge")


@pytest.mark.parametrize("alpha", [0.25, 0.5])
@pytest.mark.parametrize("K", [16, 512, 2048])
def test_oracle_matches_dense_reference(K, alpha):
    # K = 2048 marches four pieces of 512 steps, each fed the earlier
    # pieces' history
    prob = GronwallProblem(M=1.5, c1=0.7, c2=0.9, c3=0.8, alpha=alpha,
                           grid_dt=1.0 / K)
    got = volterra_oracle(prob, "superlinear")
    want = _dense_oracle(prob)
    assert np.max(np.abs(got - want) / want) < 1e-10


def test_oracle_converges_where_a_whole_grid_fft_failed():
    # a singular corpus problem whose solution climbs to about 3e38: rounding
    # of order eps times the late rows must not reach early rows of order 1
    prob = dataclasses.replace(make_problem_corpus("singular", 100, 0)[39],
                               grid_dt=1.0 / 2048.0)
    f = volterra_oracle(prob, "superlinear")
    assert f.max() == pytest.approx(2.8993508676654313e38, rel=1e-12)


@pytest.mark.parametrize("nonlinearity", ["superlinear", "vanishing"])
@pytest.mark.parametrize("c3,grid_dt", [(0.0, 1.0 / 256.0), (0.7, 1.0 / 256.0),
                                        (0.7, 1.0 / 2048.0)])
def test_oracle_keeps_the_initial_value_exactly(nonlinearity, c3, grid_dt):
    M = 0.3 if nonlinearity == "vanishing" else 1.7
    prob = GronwallProblem(M=M, c1=0.4, c2=0.6, c3=c3, alpha=0.25,
                           grid_dt=grid_dt)
    assert volterra_oracle(prob, nonlinearity)[0] == M


# sha256 of volterra_oracle(...).tobytes(); the first three march four
# quarter-span pieces, the last sixteen pieces of 512 steps at K = 8192,
# their history through FFTs
ORACLE_DIGESTS = [
    ("superlinear", GronwallProblem(M=1.5, c1=0.8, c2=0.6, grid_dt=1.0 / 256.0),
     "f0ad46fffacf3b5ad8f5f0ca1ff6079630dccd151dcfa7b005de83afddf05213"),
    ("vanishing", GronwallProblem(M=0.2, c1=0.5, c2=0.7, c3=0.4, alpha=0.25,
                                  grid_dt=1.0 / 512.0),
     "bfa6b5315ccb72463facbc7aa36f40fea57f3af5d3e9e7e2f4d1daca760e6ed9"),
    ("superlinear", GronwallProblem(M=1.2, c1=0.3, c2=0.4, c3=0.5, alpha=0.5,
                                    grid_dt=1.0 / 512.0),
     "b72aa361811dbaebb0378e6f74478579722ce84b6948fd1336054fbd6378edeb"),
    (STABILITY_REFERENCE[1][0], STABILITY_REFERENCE[1][1].refined(),
     "53e54319911aa1ac7fdb6fe0326a4ea52907f40218c2381af86669733d437e94"),
]


@pytest.mark.parametrize("nonlinearity,prob,digest", ORACLE_DIGESTS,
                         ids=["superlinear", "vanishing", "singular", "stability-fft"])
def test_oracle_bits_are_pinned(nonlinearity, prob, digest):
    f = volterra_oracle(prob, nonlinearity)
    assert hashlib.sha256(f.tobytes()).hexdigest() == digest


def test_oracle_reproduces_exponential_growth():
    prob = GronwallProblem(M=2.0, c1=1.0, grid_dt=1.0 / 2048.0)
    f = volterra_oracle(prob)
    assert f[-1] == pytest.approx(TWO_E, rel=5e-8)


def test_oracle_reproduces_superlinear_double_exponential():
    prob = GronwallProblem(M=2.0, c2=1.0, grid_dt=1.0 / 2048.0)
    f = volterra_oracle(prob, "superlinear")
    assert f[-1] == pytest.approx(TWO_TO_E, rel=5e-6)
    # the closed-form bound is the exact solution here: the inequality is sharp
    bound = _bound_series("superlinear", prob, None)[-1]
    assert bound == pytest.approx(TWO_TO_E, rel=1e-12)
    assert abs(f[-1] - bound) < 5e-6 * bound


def test_oracle_reproduces_singular_resolvent():
    prob = GronwallProblem(M=1.0, c3=1.0, alpha=0.5, grid_dt=1.0 / 2048.0)
    f = volterra_oracle(prob)
    assert f[-1] == pytest.approx(SINGULAR_RESOLVENT_AT_1, rel=5e-6)


def test_oracle_is_monotone_and_dominates_forcing():
    prob = GronwallProblem(M=1.5, c1=0.7, c2=0.9, c3=0.3, alpha=0.25)
    f = volterra_oracle(prob)
    assert np.all(np.diff(f) >= -1e-12)
    assert np.all(f >= 1.5 - 1e-12)


def test_oracle_divergence_raises():
    prob = GronwallProblem(M=5.0, c2=80.0, grid_dt=1.0 / 128.0)
    with pytest.raises(OracleConvergenceError):
        volterra_oracle(prob, "superlinear")


def test_oracle_overflow_edge_is_pinned():
    # f' = 6 f log f from 5 reaches 5^{e^6}, about 2.3e294, at t = 1; at
    # c2 = 6.5 the solution leaves the double range before t = 1
    prob = GronwallProblem(M=5.0, c2=6.0, grid_dt=1.0 / 4096.0)
    assert volterra_oracle(prob).max() == pytest.approx(2.2757649360694406e294,
                                                        rel=1e-6)
    with pytest.raises(OracleConvergenceError):
        volterra_oracle(dataclasses.replace(prob, c2=6.5))


def _mixed_batch(nonlinearity, grid_dt):
    """Rows with alpha 0, 1/4 and 1/2, a c3 = 0 row among c3 > 0 rows, and
    Picard pass counts that differ from row to row."""
    M = (0.05, 0.3, 0.45) if nonlinearity == "vanishing" else (1.2, 2.5, 4.0)
    coefficients = [(M[0], 0.3, 1.8, 1.2, 0.5), (M[1], 0.9, 0.1, 0.0, 0.0),
                    (M[2], 0.0, 0.6, 0.4, 0.25), (M[0], 1.5, 0.0, 0.7, 0.0),
                    (M[1], 0.2, 1.1, 1.9, 0.25), (M[2], 0.0, 0.0, 0.0, 0.0)]
    return [GronwallProblem(M=m, c1=c1, c2=c2, c3=c3, alpha=alpha,
                            grid_dt=grid_dt)
            for m, c1, c2, c3, alpha in coefficients]


@pytest.mark.parametrize("nonlinearity,grid_dt", [
    ("superlinear", 1.0 / 256.0), ("vanishing", 1.0 / 256.0),
    # four pieces, each fed the earlier pieces' history through FFTs
    ("superlinear", 1.0 / 2048.0)])
def test_lockstep_rows_equal_single_calls_bit_for_bit(nonlinearity, grid_dt,
                                                       monkeypatch):
    problems = _mixed_batch(nonlinearity, grid_dt)
    g = gronwall._NONLINEARITIES[nonlinearity]
    calls = []

    def counted(x):
        calls.append(1)
        return g(x)

    # a single call evaluates g once per Picard pass and once per piece
    monkeypatch.setitem(gronwall._NONLINEARITIES, nonlinearity, counted)
    singles, passes = [], []
    for prob in problems:
        calls.clear()
        singles.append(volterra_oracle(prob, nonlinearity))
        passes.append(len(calls))
    assert len(set(passes)) >= 4, passes
    batch = volterra_oracle(problems, nonlinearity)
    assert batch.shape == (len(problems), len(singles[0]))
    for row, single in zip(batch, singles):
        assert row.tobytes() == single.tobytes()
    # a batch of one is a (1, K + 1) array; a lone problem comes back 1-D
    assert volterra_oracle(problems[:1], nonlinearity).shape == (1, singles[0].size)
    assert singles[0].ndim == 1


@pytest.mark.parametrize("nonlinearity,grid_dt", [
    ("superlinear", 1.0 / 256.0), ("vanishing", 1.0 / 256.0),
    ("superlinear", 1.0 / 1024.0)])
def test_pair_rows_equal_single_pairs_bit_for_bit(nonlinearity, grid_dt):
    problems = _mixed_batch(nonlinearity, grid_dt)
    coarse, fine = oracle_pair(problems, nonlinearity)
    assert coarse.tobytes() == volterra_oracle(problems, nonlinearity).tobytes()
    for prob, low, high in zip(problems, coarse, fine):
        single = oracle_pair(prob, nonlinearity)
        assert single[0].tobytes() == low.tobytes()
        assert single[1].tobytes() == high.tobytes()


@pytest.mark.parametrize("kind", ["superlinear", "vanishing", "singular"])
def test_pair_refined_oracle_equals_a_cold_one(kind):
    nonlinearity = gronwall._ORACLE_NONLINEARITY[kind]
    corpus = make_problem_corpus(kind, 12, seed=7)
    _, fine = oracle_pair(corpus, nonlinearity)
    cold = volterra_oracle([prob.refined() for prob in corpus], nonlinearity)
    assert np.max(np.abs(fine - cold) / cold) < 1e-9


def test_stability_pairs_refined_oracles_equal_cold_ones():
    for nonlinearity, prob in STABILITY_REFERENCE:
        _, fine = oracle_pair(prob, nonlinearity)
        cold = volterra_oracle(prob.refined(), nonlinearity)
        assert np.max(np.abs(fine - cold) / cold) < 1e-9


def test_lockstep_batches_split_by_bytes_keep_the_bits(monkeypatch):
    problems = _mixed_batch("superlinear", 1.0 / 256.0)
    whole = volterra_oracle(problems)
    reports = check_domination("singular", problems)
    # twelve rows whose kernels interleave: alpha = 1/4 and c3 = 0 hold
    # four rows each, alpha = 0 and alpha = 1/2 two each
    twelve = problems + [dataclasses.replace(p, M=p.M + 0.5) for p in problems]
    pairs = [oracle_pair(p) for p in twelve]
    # three rows of 257 points per lockstep batch, one of 513
    monkeypatch.setattr(gronwall, "_LOCKSTEP_BYTES", 3 * 257 * 8)
    assert volterra_oracle(problems).tobytes() == whole.tobytes()
    assert check_domination("singular", problems) == reports
    # three coarse rows of 257 points or two refined rows of 513 per
    # lockstep batch: a kernel's four rows take two batches on either grid,
    # and its coarse rows start its refined ones
    monkeypatch.setattr(gronwall, "_LOCKSTEP_BYTES", 2 * 513 * 8)
    coarse, fine = oracle_pair(twelve)
    for (low, high), row_low, row_high in zip(pairs, coarse, fine):
        assert row_low.tobytes() == low.tobytes()
        assert row_high.tobytes() == high.tobytes()


def test_lockstep_domination_reports_equal_single_checks():
    for kind in ("superlinear", "vanishing", "singular"):
        corpus = make_problem_corpus(kind, 12, seed=7)
        assert check_domination(kind, corpus) == [check_domination(kind, p)
                                                  for p in corpus]


def test_vanishing_data_decay_is_the_single_oracles_sup():
    eps = [1e-2, 1e-5, 1e-8]
    sups = vanishing_data_decay(eps, grid_dt=1.0 / 256.0)
    singles = [volterra_oracle(GronwallProblem(M=e, c1=0.25, c2=0.5, c3=0.25,
                                               alpha=0.5, grid_dt=1.0 / 256.0),
                               "vanishing").max() for e in eps]
    assert sups.tobytes() == np.array(singles).tobytes()


def test_lockstep_batch_validation():
    with pytest.raises(ValueError, match="at least one problem"):
        volterra_oracle([])
    with pytest.raises(ValueError, match="at least one problem"):
        check_domination("superlinear", [])
    mixed = [GronwallProblem(M=1.0), GronwallProblem(M=1.0, grid_dt=1.0 / 512.0)]
    with pytest.raises(ValueError, match="one grid_dt"):
        volterra_oracle(mixed)
    with pytest.raises(ValueError, match="one grid_dt"):
        check_domination("superlinear", mixed)


def test_lockstep_batch_with_a_divergent_row_raises():
    problems = _mixed_batch("superlinear", 1.0 / 128.0)
    problems.insert(2, GronwallProblem(M=5.0, c2=80.0, grid_dt=1.0 / 128.0))
    with pytest.raises(OracleConvergenceError):
        volterra_oracle(problems, "superlinear")


def test_problem_validation():
    with pytest.raises(ValueError):
        GronwallProblem(M=1.0, alpha=0.6)
    with pytest.raises(ValueError):
        GronwallProblem(M=1.0, c1=-0.1)
    # 0.3 and 0.15 are no 1/n: their grids would be 1/3 and 1/7, and the
    # refined grid's even nodes would miss the coarse ones
    for grid_dt in (2.0, 0.3, 0.15, 0.0, math.nan):
        with pytest.raises(ValueError, match="grid_dt = 1/n"):
            GronwallProblem(M=1.0, grid_dt=grid_dt)
    for n in (1, 3, 7, 1000):
        prob = GronwallProblem(M=1.0, grid_dt=1.0 / n)
        assert prob.refined().times()[::2].tolist() == prob.times().tolist()


@pytest.mark.parametrize("name,value", [("M", math.nan), ("c1", math.inf),
                                        ("c3", -0.5)])
def test_problem_rejects_a_coefficient_that_is_not_finite_and_nonnegative(
        name, value):
    # a NaN coefficient would compare False against 0 and slip through
    coefficients = dict(M=1.0, c1=0.5, c2=0.5, c3=0.5, alpha=0.25)
    coefficients[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        GronwallProblem(**coefficients)


def test_superlinear_bound_classical_reduction():
    # c2 = 0 collapses the bound to M e^{c1 t}
    prob = GronwallProblem(M=3.0, c1=0.8, grid_dt=1.0 / 512.0)
    for kind in ("superlinear", "singular"):
        bound = _bound_series(kind, prob, None)
        np.testing.assert_allclose(bound, 3.0 * np.exp(0.8 * prob.times()),
                                   rtol=1e-12)


@pytest.mark.parametrize("M,c1,c2", [(2.0, 0.7, 1.3), (1.0, 1.9, 0.2),
                                     (4.5, 0.0, 2.0), (1.3, 1.1, 1e-3)])
def test_bihari_bound_at_c3_zero_is_the_classical_closed_form(M, c1, c2):
    prob = GronwallProblem(M=M, c1=c1, c2=c2, grid_dt=1.0 / 512.0)
    ts = prob.times()
    E = np.exp(c2 * ts)
    closed = M ** E * np.exp(E * c1 * (1.0 - np.exp(-c2 * ts)) / c2)
    for kind in ("superlinear", "singular"):
        np.testing.assert_allclose(_bound_series(kind, prob, None), closed,
                                   rtol=1e-12)


def test_vanishing_bound_constants_monotone_in_time():
    prob = GronwallProblem(M=0.2, c1=0.5, c2=0.7, c3=0.4, alpha=0.25)
    oracle = volterra_oracle(prob, "vanishing")
    bound = _bound_series("vanishing", prob, oracle)
    ks = [round(t / prob.grid_dt) for t in (0.25, 0.5, 1.0)]
    assert [bound[k] for k in ks] == sorted(bound[k] for k in ks)
    for k in ks:
        assert oracle[k] <= bound[k] + 1e-9


def test_tripled_oracle_fails_every_domination_check(monkeypatch):
    solve = gronwall.oracle_pair
    monkeypatch.setattr(gronwall, "oracle_pair",
                        lambda problems, nonlinearity: tuple(
                            3.0 * f for f in solve(problems, nonlinearity)))
    for kind in ("superlinear", "vanishing", "singular"):
        reports = check_domination(kind, make_problem_corpus(kind, 12, seed=7))
        assert not any(rep.passed for rep in reports), kind


def test_bihari_bound_holds_below_unit_forcing():
    for kind in ("superlinear", "singular"):
        corpus = [dataclasses.replace(p, M=p.M / 5.0)
                  for p in make_problem_corpus(kind, 12, seed=3)]
        assert all(0.0 < p.M < 1.0 for p in corpus)
        for rep in check_domination(kind, corpus):
            assert rep.passed, f"{kind}: min gap {rep.min_gap}, tol {rep.max_tolerance}"
    # c1 = c3 = 0 and M < 1: the bound is y0 = 1, also where e^{c2 t} overflows
    flat = GronwallProblem(M=0.5, c2=800.0)
    assert np.all(_bound_series("singular", flat, None) == 1.0)


def test_overflowing_bound_dominates_with_finite_margins():
    # the seed-0 corpus member 39's bound exceeds the double range at t = 1
    prob = make_problem_corpus("singular", 40, seed=0)[39]
    rep = check_domination("singular", prob)
    assert rep.passed and rep.bound_max == math.inf
    assert math.isfinite(rep.oracle_max)
    assert math.isfinite(rep.min_gap) and math.isfinite(rep.max_tolerance)


def test_domination_rejects_an_unknown_family_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(gronwall, "_lockstep",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="unknown bound family 'bogus'"):
        check_domination("bogus", make_problem_corpus("singular", 3, seed=0))
    assert calls == []


def test_domination_over_randomized_corpora():
    for kind in ("superlinear", "vanishing", "singular"):
        corpus = make_problem_corpus(kind, 25, seed=424242)
        for rep in check_domination(kind, corpus):
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


# how far one oracle_pair of the alpha = 1/2 stability problem (65,537
# nodes on its refined grid) may leave the resident set above where it
# found it: the march frees its arrays on return, and numpy's real FFTs
# keep no plan cache (scipy.fft's left about 11 MB here)
STABILITY_PAIR_RSS_GROWTH_MB = 4.0
PAIR_RSS_CHILD = (
    "from logdrift.gronwall import STABILITY_REFERENCE, oracle_pair\n"
    "def rss():\n"
    "    status = open('/proc/self/status').read().split()\n"
    "    return int(status[status.index('VmRSS:') + 1]) / 1024.0\n"
    "kind, prob = STABILITY_REFERENCE[2]\n"
    "before = rss()\n"
    "oracle_pair(prob, kind)\n"
    "print(rss() - before)\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the child reads its resident set from /proc")
def test_stability_pair_leaves_little_resident_memory():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", PAIR_RSS_CHILD], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert float(child.stdout) < STABILITY_PAIR_RSS_GROWTH_MB
