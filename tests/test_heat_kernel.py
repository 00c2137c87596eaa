import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logdrift import heat_kernel
from logdrift.fields import Field, nodes, simpson_weights
from logdrift.heat_kernel import (
    DEFAULT_PARAMS,
    INCREMENT_X_POINTS,
    _image_pairs,
    _increment_modes,
    kernel_images,
    kernel_series,
    log_jensen_bound_check,
    log_plus,
    spatial_modulus_estimate,
    time_increment_estimate,
)
from logdrift.solver import _propagators

# Reference kernel values: 10^4-term series summed at 30-digit precision.
KERNEL_REFERENCE = {
    (0.1, 0.5, 0.5): 1.2445655330056030388,
    (0.1, 0.3, 0.7): 0.54986101091777820526,
    (0.05, 0.25, 0.625): 0.43636870085788015144,
    (0.02, 0.5, 0.5): 2.8209479176604270727,
    (0.001, 0.5, 0.5): 12.61566261010080011,
}

# Frozen module values and independent adaptive-quadrature oracles.
TIME_INCREMENT_QUAD_ORACLE_H005 = 0.07202428158350503
TIME_INCREMENT_VALUE_H005 = 0.07202624940089555
TIME_INCREMENT_CLOSED_SERIES_H005 = 0.10451055779497216774
SPATIAL_QUAD_ORACLE = {(0.5, 0.25): 0.18749999999999784,
                       (0.5, 0.5 - 2.0**-12): 0.00024408102034207912}
# time_increment_estimate at the CLI's h = 0.1 * 2^-k, k = 0..6, as the
# all-image-form integrand with five fixed image pairs gave them
TIME_INCREMENT_IMAGE_FORM = (0.10236989771954967, 0.072026249400895553,
                             0.050843359114814378, 0.035929874517733704,
                             0.025400400436531557, 0.017958530428301572,
                             0.012696744316519378)
SPATIAL_MAJORANT_VALUE = {(0.5, 0.25): 0.3749998798523254,
                          (0.5, 0.5 - 2.0**-12): 0.0014486386569628374}


KERNEL_FORMS = (kernel_series, kernel_images)


def test_kernel_matches_high_precision_reference():
    for kernel in KERNEL_FORMS:
        for (t, x, y), ref in KERNEL_REFERENCE.items():
            v = kernel(t, x, y)
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (kernel, t)


def test_series_and_images_agree_on_overlap():
    # both forms are accurate near the switch time; cross-check on a grid
    xs = np.linspace(0.0, 1.0, 41)
    for t in (0.02, 0.05, 0.1):
        a = kernel_series(t, xs[:, None], xs[None, :])
        b = kernel_images(t, xs[:, None], xs[None, :])
        tol = 1e-10 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        assert np.all(np.abs(a - b) <= tol)


def _images_fixed(t, x, y, pairs=12):
    k = 2.0 * np.arange(-pairs, pairs + 1)
    d1 = np.subtract.outer(x - y, k)
    d2 = np.subtract.outer(x + y, k)
    return (np.exp(-d1 * d1 / (2.0 * t)) - np.exp(-d2 * d2 / (2.0 * t))).sum(axis=-1) \
        / math.sqrt(2.0 * math.pi * t)


def test_adaptive_images_match_a_fixed_twelve_pair_sum():
    xs = np.linspace(0.0, 1.0, 41)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for t in np.logspace(-5, 0, 26):
        a = kernel_images(t, X, Y)
        b = _images_fixed(t, X, Y)
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        assert np.max(np.abs(a - b) / scale) <= 1e-15, t


def test_image_pair_count_follows_t():
    assert [_image_pairs(t) for t in (1e-5, 1e-3, 0.01)] == [1, 1, 1]
    assert _image_pairs(0.049) == 2
    assert _image_pairs(1.0) == 5
    counts = [_image_pairs(t) for t in np.logspace(-5, 1, 60)]
    assert counts == sorted(counts)


def _kernel_grid(t, xs, ys, kernel=None):
    """p_t on the tensor grid xs x ys, pair by pair, in the form given or
    else the one the default switch time picks."""
    if kernel is None:
        kernel = kernel_images if t < DEFAULT_PARAMS.switch_time else kernel_series
    return kernel(t, xs[:, None], ys[None, :])


def test_log_jensen_resolves_the_kernel_at_every_dt():
    # the kernel lattice's Simpson sum gave lhs 84.0 > rhs 60.2 on this field
    # at dt = 1e-6, and 8.4e148 at dt = 1e-300; P_dt of the sine interpolant
    # tends to the node values themselves as dt -> 0
    u = Field.random_l2(63, 10.0, seed=0)
    g_max = float((log_plus(u.values) ** 2).max())
    for dt in (1e-6, 1e-300):
        lhs, rhs = log_jensen_bound_check(dt, u)
        assert lhs <= rhs, (dt, lhs, rhs)
    assert lhs == pytest.approx(g_max, rel=1e-12, abs=0.0)


def _log_jensen_quadrature(dt, u, refine=16):
    """sup over u's nodes of int p_dt(x, y) g(y) dy, g the piecewise-linear
    interpolant of log_+^2 |u| on u's grid with g(0) = g(1) = 0, by Simpson
    quadrature of the pairwise kernel on `refine` subintervals per cell."""
    n = u.n
    g = np.concatenate(([0.0], log_plus(u.values) ** 2, [0.0]))
    ys = np.linspace(0.0, 1.0, (n + 1) * refine + 1)
    w = simpson_weights(ys.size, ys[1] - ys[0])
    g_lin = np.interp(ys, np.linspace(0.0, 1.0, n + 2), g)
    return float((_kernel_grid(dt, nodes(n), ys) @ (w * g_lin)).max())


def test_log_jensen_matches_a_kernel_quadrature_of_the_linear_interpolant():
    # the sine interpolant and the piecewise-linear one differ in mode j at
    # relative order (j pi h)^2 / 12, which P_dt damps by e^{-j^2 pi^2 dt/2}:
    # j^2 e^{-j^2 pi^2 dt/2} is at most 2 / (e pi^2 dt) over the high modes,
    # and mode 1 leaves pi^2 h^2 / 12 at any dt. Measured over 25 fields of
    # each norm, the gap stays below 0.033 h^2 (1/dt + pi^2) max g
    n = 63
    h = 1.0 / (n + 1)
    for dt in ((2.0 * h) ** 2, (3.0 * h) ** 2, (8.0 * h) ** 2, 0.3):
        for norm in (1.0, 3.0, 30.0, 1000.0):
            for seed in range(3):
                u = Field.random_l2(n, norm, seed=seed)
                g_max = float((log_plus(u.values) ** 2).max())
                lhs, _ = log_jensen_bound_check(dt, u)
                ref = _log_jensen_quadrature(dt, u)
                tol = 0.04 * h * h * (1.0 / dt + math.pi ** 2) * g_max
                assert abs(lhs - ref) <= tol, (dt, norm, seed, lhs, ref)


def test_log_jensen_names_non_finite_arguments():
    # dt = inf returned (0.0, 9.60) and dt = nan raised "cannot convert float
    # NaN to integer"; a non-finite field returned (inf, inf)
    u = Field.random_l2(63, 5.0, seed=1)
    for dt in (math.inf, math.nan, 0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            log_jensen_bound_check(dt, u)
    for bad in (math.inf, -math.inf, math.nan):
        values = u.values.copy()
        values[10] = bad
        with pytest.raises(ValueError, match="u must have finite values"):
            log_jensen_bound_check(1e-3, Field.from_values(values))


def test_kernel_symmetry_and_positivity():
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    for kernel in KERNEL_FORMS:
        for t in (0.01, 0.3):
            assert np.allclose(kernel(t, xs, ys), kernel(t, ys, xs), rtol=1e-12)
            assert np.all(kernel(t, xs, ys) > -1e-13)


def test_kernel_boundary_vanishes():
    xs = np.linspace(0, 1, 17)
    for kernel in KERNEL_FORMS:
        for t in (0.01, 0.2):
            assert np.max(np.abs(kernel(t, 0.0, xs))) < 1e-13
            assert np.max(np.abs(kernel(t, 1.0, xs))) < 1e-13


def test_kernel_input_validation():
    for kernel in KERNEL_FORMS:
        with pytest.raises(ValueError):
            kernel(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            kernel(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            kernel(0.1, 1.5, 0.5)
        # NaN compares False against both ends of [0, 1]
        for x, y in ((math.nan, 0.5), (0.5, math.nan), (np.array([0.2, math.nan]), 0.5)):
            with pytest.raises(ValueError, match=r"x and y must lie in \[0, 1\]"):
                kernel(0.1, x, y)


def test_semigroup_identity_and_contraction():
    # the solver's step factor E(t), which damps mode k by e^{-k^2 pi^2 t/2}
    def E(t):
        return _propagators(127, t)[0]

    assert np.max(np.abs(E(0.2) * E(0.3) - E(0.5))) < 1e-14
    for t in (1e-4, 0.1, 2.0):
        assert np.all((E(t) >= 0.0) & (E(t) <= 1.0))
    assert E(2.0)[-1] == 0.0  # high modes underflow to 0


def test_semigroup_matches_kernel_quadrature():
    # P_t f computed spectrally vs direct Simpson integration of p_t(x,y)f(y);
    # the field is smooth so quadrature converges at full rate
    n = 255
    rng = np.random.default_rng(13)
    c = np.zeros(n)
    c[:8] = rng.standard_normal(8) / (1.0 + np.arange(8)) ** 2
    f = Field.from_coeffs(c)
    t = 0.08
    g = _propagators(n, t)[0] * f.coeffs
    ys = np.concatenate(([0.0], nodes(n), [1.0]))
    fv = np.concatenate(([0.0], f.values, [0.0]))
    w = simpson_weights(n + 2, 1.0 / (n + 1))
    xs = np.array([0.25, 0.5, 0.8])
    direct = _kernel_grid(t, xs, ys) @ (w * fv)
    spectral = np.sin(np.outer(xs, np.arange(1, n + 1) * np.pi)) @ (np.sqrt(2.0) * g)
    assert direct == pytest.approx(spectral, abs=2e-6)


def _mass_and_l2(t):
    """sup_x int p_t(x, y) dy and sup_x int p_t(x, y)^2 dy over an x grid
    holding 1/2, where both peak, by Simpson quadrature in y on a grid that
    resolves the kernel width sqrt(t)."""
    n_y = 1 + 2 * max(1024, math.ceil(48.0 / math.sqrt(t)))
    P = _kernel_grid(t, np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, n_y))
    w = simpson_weights(n_y, 1.0 / (n_y - 1))
    return float((P @ w).max()), float(((P * P) @ w).max())


def test_mass_below_one_and_l2_semigroup_identity():
    for t in (0.005, 0.05, 0.1, 0.5):
        mass, l2sq = _mass_and_l2(t)
        assert mass <= 1.0 + 1e-10
        # closed form: int p_t(x,.)^2 dy = p_{2t}(x,x), peaked at x = 1/2
        assert l2sq == pytest.approx(kernel_series(2 * t, 0.5, 0.5), abs=1e-8)


def test_mass_matches_closed_series():
    # int_0^1 p_t(x,y) dy = sum_n 2 e^{-n^2 pi^2 t/2} sin(n pi x)(1-(-1)^n)/(n pi)
    for t, ref in [(0.1, 0.77231160685859059543), (0.005, 0.99999999999692508041)]:
        mass, _ = _mass_and_l2(t)
        assert mass == pytest.approx(ref, abs=1e-8)


def time_increment_pointwise(x: float, h: float, R: float = 3.0) -> float:
    """The time-increment integral at the single point x, as its closed mode
    sum sum_n 2 sin^2(n pi x) (1 - e^{-pi^2 n^2 h/2})^2 (1 - e^{-pi^2 n^2 R})
    / (pi^2 n^2), truncated where the 1/n^2 envelope is spent. A lower
    value than the sup-in-x integral."""
    n = np.arange(1, max(200_000, int(20.0 / math.sqrt(h))) + 1, dtype=float)
    lam = 0.5 * (math.pi * n) ** 2
    kap = -np.expm1(-lam * h)
    return float(np.sum(2.0 * np.sin(n * math.pi * x) ** 2 * kap * kap
                        * -np.expm1(-2.0 * lam * R) / (2.0 * lam)))


def test_time_increment_frozen_value_and_oracle_band():
    v = time_increment_estimate(0.05)
    assert v == pytest.approx(TIME_INCREMENT_VALUE_H005, rel=1e-9)
    assert abs(v - TIME_INCREMENT_QUAD_ORACLE_H005) <= 5e-5
    # the all-modes envelope series dominates the sup version, which in turn
    # dominates any single-point evaluation
    assert v <= TIME_INCREMENT_CLOSED_SERIES_H005
    assert v >= time_increment_pointwise(0.5, 0.05)


def _increment_images(r: float, h: float, xs: np.ndarray) -> np.ndarray:
    """[p_{2r} - 2 p_{2r+h} + p_{2r+2h}](x, x) on xs, in image form."""
    return kernel_images(2.0 * r, xs, xs) - 2.0 * kernel_images(2.0 * r + h, xs, xs) \
        + kernel_images(2.0 * r + 2.0 * h, xs, xs)


# the nodes k/1024, k = 1..512, at which _increment_modes sums the integrand;
# the nodes above 1/2 mirror them
INCREMENT_XS = np.linspace(0.0, 1.0, INCREMENT_X_POINTS)[1 : INCREMENT_X_POINTS // 2 + 1]
INCREMENT_HS = (0.1, 0.0125, 0.0015625)


def test_time_increment_forms_agree_near_the_split():
    # around 2r = switch_time, where the kernel changes form
    xs = INCREMENT_XS
    rs = 0.5 * DEFAULT_PARAMS.switch_time * np.linspace(0.8, 1.25, 10)
    for h in INCREMENT_HS:
        modes = np.hstack(list(_increment_modes(rs, h)))
        assert modes.shape == (xs.size, rs.size)
        assert np.all(modes >= 0.0)
        for j, r in enumerate(rs):
            assert np.max(np.abs(modes[:, j] - _increment_images(r, h, xs))) <= 1e-13


def test_time_increment_mode_form_holds_at_the_first_nodes():
    # the integrand's first two nodes w = sqrt(3)/1200 and 2 sqrt(3)/1200,
    # where the kernel is sharpest and the mode form needs the most modes
    xs = INCREMENT_XS
    for r in (3.0 / 1200**2, 12.0 / 1200**2):
        for h in INCREMENT_HS:
            modes = next(_increment_modes(np.array([r]), h))[:, 0]
            images = _increment_images(r, h, xs)
            assert np.max(np.abs(modes - images)) <= 1e-13 * images.max()


def test_time_increment_cli_values_match_the_image_form():
    hs = [0.1 * 2.0 ** -k for k in range(7)]
    for h, ref in zip(hs, TIME_INCREMENT_IMAGE_FORM):
        assert time_increment_estimate(h) == pytest.approx(ref, rel=1e-12, abs=0.0)


# sha256 of the CLI's seven time_increment_estimate values, in a child
TIME_INCREMENT_HASH_CHILD = (
    "import hashlib\nimport numpy as np\n"
    "from logdrift.heat_kernel import time_increment_estimate\n"
    "vals = [time_increment_estimate(0.1 * 2.0 ** -k) for k in range(7)]\n"
    "print(hashlib.sha256(np.array(vals).tobytes()).hexdigest())\n")


def test_time_increment_does_not_depend_on_blas_threads():
    # a BLAS-scheduled reduction rounds by its thread count; this can only
    # fail on a machine with at least two CPUs
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", TIME_INCREMENT_HASH_CHILD],
                               env=env, capture_output=True, text=True,
                               timeout=300)
        assert child.returncode == 0, child.stderr
        digests.append(child.stdout.strip())
    assert digests[0] == digests[1]


def test_time_increment_square_root_scaling():
    hs = [2.0**-k for k in (4, 6, 8)]
    vals = [time_increment_estimate(h) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
    assert 0.4 <= slope <= 0.6


def test_time_increment_validation():
    with pytest.raises(ValueError):
        time_increment_estimate(0.0)
    with pytest.raises(ValueError):
        time_increment_estimate(0.05, R=1.0)  # tail bound above 1e-12
    with pytest.raises(ValueError):
        spatial_modulus_estimate(0.2, 0.7, R=0.0)
    for n_terms in (0, -1):
        with pytest.raises(ValueError):
            spatial_modulus_estimate(0.2, 0.7, n_terms=n_terms)


def test_heat_kernel_names_nan_and_non_integer_arguments():
    # each raised by accident before ("cannot convert float NaN to integer",
    # a TypeError from range)
    with pytest.raises(ValueError, match="R must be a positive number"):
        spatial_modulus_estimate(0.2, 0.7, R=math.nan)
    with pytest.raises(ValueError, match="n_terms must be an integer"):
        spatial_modulus_estimate(0.2, 0.7, n_terms=2.5)
    for R in (math.nan, math.inf):
        with pytest.raises(ValueError, match="R must be finite and positive"):
            time_increment_estimate(0.05, R=R)
    with pytest.raises(ValueError, match="h must be finite and positive"):
        time_increment_estimate(math.nan)


def test_spatial_modulus_dominates_quadrature_oracle():
    for pair, oracle in SPATIAL_QUAD_ORACLE.items():
        maj = spatial_modulus_estimate(*pair)
        assert maj == pytest.approx(SPATIAL_MAJORANT_VALUE[pair], rel=1e-9)
        assert maj >= oracle


def _full_series(x, y, n_terms, R):
    n = np.arange(1, n_terms + 1, dtype=float)
    lam = 0.5 * (math.pi * n) ** 2
    dsin = np.abs(np.sin(n * math.pi * x) - np.sin(n * math.pi * y))
    return float((2.0 * dsin * (-np.expm1(-lam * R)) / lam).sum())


@pytest.mark.parametrize("R", [1e-4, 0.3, 3.0, 50.0])
def test_spatial_modulus_matches_the_full_series_bit_for_bit(R):
    # pairs without a small dyadic denominator sum the series; the saturation
    # factor is skipped only where it is exactly 1.0
    for x, y in ((0.2, 0.7), (0.01, 0.999)):
        assert spatial_modulus_estimate(x, y, n_terms=100_000, R=R) == \
            _full_series(x, y, 100_000, R)


@pytest.mark.parametrize("R", [1e-4, 0.3, 3.0, 50.0])
def test_spatial_modulus_closed_form_matches_the_series(R):
    # dyadic pairs take the closed form: the same truncated sum, rounded
    # differently; n_terms runs below P, at P, past P and not a multiple of P
    pairs = {(0.5 - 2.0**-9, 0.5 + 2.0**-9): 2**10, (0.25, 0.5): 8,
             (0.4375, 0.5625): 32, (3 / 64, 0.5 + 2.0**-9): 2**10,
             (0.5 - 2.0**-13, 0.5 + 2.0**-13): 2**14}
    for (x, y), P in pairs.items():
        for n_terms in (1, 7, P - 1, P, P + 1, 1000, 100_000):
            ref = _full_series(x, y, n_terms, R)
            got = spatial_modulus_estimate(x, y, n_terms=n_terms, R=R)
            assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-15, (x, y, n_terms)


def test_spatial_modulus_closed_form_matches_an_mpmath_sum():
    import mpmath
    x, y, n_terms = 0.5 - 2.0**-7, 0.5 + 2.0**-7, 3000
    with mpmath.workdps(40):
        mx, my = mpmath.mpf(x), mpmath.mpf(y)
        for R in (0.3, 3.0):
            ref = mpmath.fsum(
                2 * abs(mpmath.sinpi(n * mx) - mpmath.sinpi(n * my))
                * -mpmath.expm1(-(n * mpmath.pi) ** 2 / 2 * R)
                / ((n * mpmath.pi) ** 2 / 2) for n in range(1, n_terms + 1))
            got = spatial_modulus_estimate(x, y, n_terms=n_terms, R=R)
            assert abs(got - ref) <= 1e-14 * ref


def test_cli_separations_take_the_closed_form(monkeypatch):
    # a return to the summed series would show as a 4,000,000-term loop
    summed, periods = [], []
    series, tail = heat_kernel._majorant_sum, heat_kernel._periodic_tail

    def counted_series(amplitude, n_one, n_terms, R):
        summed.append(n_terms)
        return series(amplitude, n_one, n_terms, R)

    def counted_tail(a, P, n_one, n_terms):
        periods.append(P)
        return tail(a, P, n_one, n_terms)

    monkeypatch.setattr(heat_kernel, "_majorant_sum", counted_series)
    monkeypatch.setattr(heat_kernel, "_periodic_tail", counted_tail)
    for k in range(3, 13):
        sep = 2.0**-k
        spatial_modulus_estimate(0.5 - sep / 2.0, 0.5 + sep / 2.0)
    # x = 1/2 - 2^-(k+1) has D = 2^(k+1), so P = 2^(k+2); at R = 3 only
    # n = 1 takes the saturation factor
    assert periods == [2 ** (k + 2) for k in range(3, 13)]
    assert summed == [1] * 10


def test_spatial_modulus_degenerate_and_symmetry():
    assert spatial_modulus_estimate(0.3, 0.3) == 0.0
    a = spatial_modulus_estimate(0.2, 0.7, n_terms=200_000)
    b = spatial_modulus_estimate(0.7, 0.2, n_terms=200_000)
    assert a == b


def test_log_jensen_inequality_on_rough_fields():
    rng = np.random.default_rng(29)
    for dt in (1e-4, 1e-3, 1e-2):
        for k in range(5):
            amp = float(rng.uniform(0.5, 50.0))
            u = Field.random_l2(255, amp, seed=1000 + k)
            lhs, rhs = log_jensen_bound_check(dt, u)
            assert lhs <= rhs


def test_log_jensen_sharpens_with_small_field():
    u = Field.zero(127)
    lhs, rhs = log_jensen_bound_check(1e-3, u)
    assert lhs == 0.0
    assert rhs >= 4.0  # the constant term alone


def test_log_plus_definition():
    assert log_plus(0.0) == 0.0
    assert log_plus(1.0) == 0.0
    assert log_plus(-np.e) == pytest.approx(1.0)
    assert log_plus(np.e**2) == pytest.approx(2.0)
