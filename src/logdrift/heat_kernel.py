"""Dirichlet heat kernel on [0, 1] and the estimates built on it.

The kernel is p_t(x, y) = sum_n 2 exp(-n^2 pi^2 t / 2) sin(n pi x) sin(n pi y),
the transition density of the semigroup generated by (1/2) d^2/dx^2 with zero
boundary values. Two dual evaluations are kept: the spectral series, efficient
for t away from 0, and the method-of-images sum of Gaussians
G_t(z) = exp(-z^2 / (2t)) / sqrt(2 pi t), efficient for small t. Each takes
its term count from t and `TRUNCATION_TOL`. Both are exposed so they can be
cross-checked.

Derived estimates: an integrated small-time increment estimate (the
sup-over-space time-modulus integral, summed in mode form on the nodes
k/1024, where the modes fold modulo 1024 into one real FFT per time node),
a spatial modulus majorant series, and a log-Jensen inequality check
used by the moment arguments, which applies the semigroup in sine modes
and evaluates no kernel terms.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.fft import rfft
from scipy.special import polygamma

from .fields import (Field, coeffs_to_values, log_plus, simpson_weights,
                     values_to_coeffs)

SQRT_PI = math.sqrt(math.pi)

# absolute truncation target of both kernel forms; hard cap on series terms
TRUNCATION_TOL = 1e-14
MAX_MODES = 200_000
# the x grid of time_increment_estimate's sup (1024 intervals, so the nodes
# k/1024), its (even) count of Simpson intervals in w = sqrt(r) and its
# w-nodes per block of the mode form. A block folds its modes modulo 1024:
# the first block, at r = 3/1200^2, needs 1268 modes, two folds of 1024 rows
INCREMENT_X_POINTS = 1025
INCREMENT_W_INTERVALS = 1200
INCREMENT_W_BLOCK = 128
# the largest common dyadic denominator of x and y for which
# spatial_modulus_estimate sums in closed form
MODULUS_MAX_DENOMINATOR = 2**16


@dataclass(frozen=True)
class KernelParams:
    """Evaluation controls for the heat kernel.

    switch_time: the time from which the series form is the one to use, the
    image form below it. No package code reads it: callers pick the form.
    """

    switch_time: float = 0.05

    def __post_init__(self):
        if self.switch_time <= 0:
            raise ValueError("switch_time must be positive")


DEFAULT_PARAMS = KernelParams()


def _check_txy(t, x, y):
    if not (np.isscalar(t) or np.ndim(t) == 0) or not math.isfinite(float(t)):
        raise ValueError("t must be a finite scalar")
    if float(t) <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all((x >= 0) & (x <= 1)) and np.all((y >= 0) & (y <= 1))):
        raise ValueError("x and y must lie in [0, 1]")
    return float(t), x, y


def _series_mode_count(t: float, params: KernelParams) -> int:
    # tail of sum 2 e^{-n^2 pi^2 t/2} beyond N is < tol once
    # N^2 pi^2 t / 2 > log(2/tol) + margin
    n = math.ceil(math.sqrt(2.0 * math.log(2.0 / TRUNCATION_TOL) / (math.pi**2 * t))) + 2
    return min(max(n, 3), MAX_MODES)


def kernel_series(t, x, y, params: KernelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Spectral form of p_t(x, y); accurate for t not too small."""
    t, x, y = _check_txy(t, x, y)
    N = _series_mode_count(t, params)
    n = np.arange(1, N + 1)
    decay = 2.0 * np.exp(-0.5 * (n * math.pi) ** 2 * t)
    xb, yb = np.broadcast_arrays(x, y)
    sx = np.sin(np.multiply.outer(xb, n * math.pi))
    sy = np.sin(np.multiply.outer(yb, n * math.pi))
    out = (sx * sy) @ decay
    return out if out.shape else float(out)


def _image_pairs(t: float) -> int:
    # with x, y in [0, 1] the nearest dropped charge (k = +-(K+1)) lies at
    # least 2K from its argument; bounding its Gaussian at 2K - 1 leaves room
    # for the rest of the dropped tail
    peak = 1.0 / math.sqrt(2.0 * math.pi * t)
    reach = math.sqrt(2.0 * t * max(0.0, math.log(peak / TRUNCATION_TOL)))
    return max(1, math.ceil(0.5 * (1.0 + reach)))


def kernel_images(t, x, y) -> np.ndarray:
    """Image-charge form of p_t(x, y); accurate for small t.

    Sums the charges at 2k, k = -K..K, for the fewest pairs K >= 1 whose
    dropped Gaussians all fall below TRUNCATION_TOL: one pair up to
    t ~ 0.015, two below switch_time, five at t = 1.
    """
    t, x, y = _check_txy(t, x, y)
    K = _image_pairs(t)
    k = 2.0 * np.arange(-K, K + 1)
    xb, yb = np.broadcast_arrays(x, y)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    d1 = np.subtract.outer(xb - yb, k)
    d2 = np.subtract.outer(xb + yb, k)
    out = norm * (np.exp(-d1 * d1 / (2.0 * t)) - np.exp(-d2 * d2 / (2.0 * t))).sum(axis=-1)
    return out if out.shape else float(out)


def _increment_modes(rs: np.ndarray, h: float):
    """[p_{2r} - 2 p_{2r+h} + p_{2r+2h}](x, x) in mode form, one block of r
    at a time.

    sum_n c_n(r) 2 sin^2(n pi x), c_n(r) = e^{-n^2 pi^2 r} (1 - e^{-n^2 pi^2 h/2})^2,
    on the nodes x = k/P, P = INCREMENT_X_POINTS - 1, k = 1..P/2 (rows; the
    nodes above 1/2 mirror these), for INCREMENT_W_BLOCK values of rs
    (columns) per yielded array, with the modes the block's smallest r
    needs. On the nodes 2 sin^2(n pi k/P) = 1 - cos(2 pi n k/P) depends on
    n mod P only, so the block's coefficients fold modulo P and the values
    are Re F[0] - Re F[k], F = rfft(folded), where F[0] = sum_n c_n.
    """
    P = INCREMENT_X_POINTS - 1
    for lo in range(0, rs.size, INCREMENT_W_BLOCK):
        block = rs[lo : lo + INCREMENT_W_BLOCK]
        N = _series_mode_count(2.0 * float(block.min()), DEFAULT_PARAMS)
        lam = (np.arange(1, N + 1) * math.pi) ** 2
        # row n holds c_n; row 0 (n = 0) and the rows past N are zero
        c = np.zeros((-(-(N + 1) // P) * P, block.size))
        c[1 : N + 1] = np.expm1(-0.5 * lam * h)[:, None] ** 2 * np.exp(-np.outer(lam, block))
        spectrum = rfft(c.reshape(-1, P, block.size).sum(axis=0), axis=0).real
        yield spectrum[0] - spectrum[1 : P // 2 + 1]


def time_increment_estimate(h: float, R: float = 3.0) -> float:
    """Integrated sup-over-space second difference of the kernel in time.

    Computes int_0^R sup_x [p_{2r} - 2 p_{2r+h} + p_{2r+2h}](x, x) dr, the
    quantity controlling the time modulus of stochastic convolutions over a
    horizon R, with the sup taken over the nodes k/1024. The integrand
    equals sum_n e_n(x)^2 e^{-pi^2 n^2 r} (1 - e^{-pi^2 n^2 h / 2})^2 >= 0,
    which every node w > 0 sums in mode form, its modes folded modulo 1024
    into one real FFT (`_increment_modes`): the sum of the nonnegative
    coefficients minus a cosine transform. That rounds to about eps times the
    sum, against a sup of the same order (at least the mean over the nodes,
    the sum less its modes that are multiples of 1024), even where the kernel
    is sharply peaked. The 1/sqrt(r) endpoint singularity is removed by the
    substitution r = w^2; at w = 0 the integrand tends to 1/sqrt(pi) exactly.

    The tail beyond R is bounded by exp(-pi^2 R)/3; R must make that at
    most 1e-12.
    """
    if not 0 < h < math.inf:
        raise ValueError("h must be finite and positive")
    if not 0 < R < math.inf:
        raise ValueError("R must be finite and positive")
    if math.exp(-math.pi**2 * R) / 3.0 > 1e-12:
        raise ValueError("R too small for the required tail bound")
    n_w = INCREMENT_W_INTERVALS
    ws = np.linspace(0.0, math.sqrt(R), n_w + 1)
    rs = ws * ws
    sup = np.concatenate([g.max(axis=0) for g in _increment_modes(rs[1:], h)])
    vals = np.concatenate([[1.0 / SQRT_PI], 2.0 * ws[1:] * sup])
    w_quad = simpson_weights(n_w + 1, ws[1] - ws[0])
    return float(vals @ w_quad)


def spatial_modulus_estimate(x: float, y: float, n_terms: int = 4_000_000,
                             R: float = 3.0) -> float:
    """Majorant series for the spatial modulus of stochastic convolutions.

    sum_n |e_n(x) - e_n(y)| * sqrt(2) * (1 - e^{-pi^2 n^2 R / 2}) * 2/(pi^2 n^2),
    n = 1..n_terms, which dominates int_0^R sup-type increments of the kernel
    between x and y. Returns 0 for x == y. The truncation after n_terms
    shorts the value by at most 8/(pi^2 n_terms).

    When x and y share a dyadic denominator D <= MODULUS_MAX_DENOMINATOR
    = 2^16 (every CLI pair does), the terms' amplitudes repeat with period
    P = 2D. The terms n >= n_one, whose saturation factor is exactly 1, are
    then summed in closed form per residue with the trigamma function, and
    the few n < n_one one by one: O(min(P, n_terms)) work, not O(n_terms),
    for the same truncated sum up to rounding. Other pairs, such as 0.2 (a
    float with denominator 2^54), sum the series in chunks of 1,000,000
    terms.
    """
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError("x and y must lie in [0, 1]")
    if not R > 0:
        raise ValueError("R must be a positive number")
    if not isinstance(n_terms, numbers.Integral):
        raise ValueError("n_terms must be an integer")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if x == y:
        return 0.0
    # 1 - e^{-lam R} is exactly 1.0 from n_one on, where lam R > 64 log 2
    # (libm's expm1 returns -1.0 below -56 log 2), so only n < n_one take it
    n_one = math.floor(math.sqrt(128.0 * math.log(2.0) / R) / math.pi) + 1
    (px, dx), (py, dy) = float(x).as_integer_ratio(), float(y).as_integer_ratio()
    D = math.lcm(dx, dy)
    if D > MODULUS_MAX_DENOMINATOR:
        return _majorant_sum(
            lambda n, npi: 2.0 * np.abs(np.sin(npi * x) - np.sin(npi * y)),
            n_one, n_terms, R)
    # a_r for r = 1..min(P, n_terms), each sine argument reduced exactly, as
    # the integer (r p) mod P, before it is scaled by pi/D
    P = 2 * D
    r = np.arange(1, min(P, n_terms) + 1)
    p, q = px * (D // dx), py * (D // dy)
    a = 2.0 * np.abs(np.sin(math.pi * (r * p % P) / D) - np.sin(math.pi * (r * q % P) / D))
    head = _majorant_sum(lambda n, npi: a[(n - 1) % P],
                         n_one, min(n_terms, n_one - 1), R)
    return head + _periodic_tail(a, P, n_one, n_terms)


def _periodic_tail(a: np.ndarray, P: int, n_one: int, n_terms: int) -> float:
    """sum_{n = n_one..n_terms} a_{n mod P} / lam_n in closed form.

    The terms n = r + m P of residue r (a[r - 1]) sum to
    (2 / (pi^2 P^2)) sum_{m=m0..M} (m + r/P)^-2
    = (2 / (pi^2 P^2)) [psi_1(r/P + m0) - psi_1(r/P + M + 1)],
    where m0 = ceil((n_one - r)/P) skips the head and M = floor((n_terms - r)/P).
    """
    r = np.arange(1, a.size + 1)
    top = (n_terms - r) // P + 1
    first = np.clip(-((r - n_one) // P), 0, top)
    base = r / P
    trig = polygamma(1, base + first) - polygamma(1, base + top)
    # a sum, not a BLAS dot, so the bits do not depend on the thread count
    return float((a * trig).sum()) * 2.0 / (math.pi * P) ** 2


def _majorant_sum(amplitude, n_one: int, n_terms: int, R: float) -> float:
    """sum_{n=1..n_terms} amplitude(n) * s_n / lam_n, lam_n = (n pi)^2 / 2, with
    s_n = 1 - e^{-lam_n R} for n < n_one and 1 from n_one on, a chunk of
    terms at a time; amplitude(n, n pi) returns a fresh array."""
    total = 0.0
    chunk = 1_000_000
    for lo in range(1, n_terms + 1, chunk):
        n = np.arange(lo, min(lo + chunk, n_terms + 1))
        npi = n * math.pi
        lam = 0.5 * npi ** 2
        term = amplitude(n, npi)
        head = max(0, min(n_one - lo, n.size))
        term[:head] *= -np.expm1(-lam[:head] * R)
        total += float((term / lam).sum())
    return total


def log_jensen_bound_check(dt: float, u: Field,
                           params: KernelParams = DEFAULT_PARAMS) -> tuple[float, float]:
    """Both sides of the smoothed log-squared inequality.

    LHS: sup over x of int p_dt(x, y) g(y) dy, g = log_+^2 |u|, as the max
    over u's nodes of P_dt g~, where g~ is the sine interpolant of g on u's
    nodes: its sine coefficients damped by e^{-j^2 pi^2 dt / 2}, j = 1..n,
    and transformed back. That is exact at every dt, with no quadrature and
    no kernel terms. RHS: (2 + (1/4) log_+(1/dt) + log_+ ||u||_{L2})^2.
    params is not read; the signature keeps it because the benchmark's
    tracer binds it.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    if not np.all(np.isfinite(u.values)):
        raise ValueError("u must have finite values")
    g_hat = values_to_coeffs(log_plus(u.values) ** 2)
    decay = np.exp(-0.5 * (np.arange(1, u.n + 1) * math.pi) ** 2 * dt)
    lhs = float(coeffs_to_values(g_hat * decay).max())
    rhs = (2.0 + 0.25 * log_plus(1.0 / dt) + log_plus(u.l2_norm())) ** 2
    return lhs, float(rhs)
