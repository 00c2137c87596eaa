"""Dirichlet heat kernel on [0, 1] and the estimates built on it.

The kernel is p_t(x, y) = sum_n 2 exp(-n^2 pi^2 t / 2) sin(n pi x) sin(n pi y),
the transition density of the semigroup generated by (1/2) d^2/dx^2 with zero
boundary values. Two dual evaluations are kept: the spectral series, efficient
for t away from 0, and the method-of-images sum of Gaussians
G_t(z) = exp(-z^2 / (2t)) / sqrt(2 pi t), efficient for small t. Both are
exposed so they can be cross-checked; `kernel_eval` switches between them at
`switch_time`.

Derived estimates: kernel mass and L2 size, an integrated small-time
increment estimate (the sup-over-space time-modulus integral), a spatial
modulus majorant series, and a log-Jensen inequality check used by the
moment arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, simpson_weights, nodes
from .gronwall import log_plus

SQRT_PI = math.sqrt(math.pi)

# image charges on each side in the Gaussian form
N_IMAGES = 5

# spectral series: absolute tail target and hard cap on terms
TRUNCATION_TOL = 1e-14
MAX_MODES = 200_000
# x grids of the sups in mass_and_l2_bounds and time_increment_estimate, and
# the latter's (even) count of Simpson intervals in w = sqrt(r)
MASS_X_POINTS = 513
INCREMENT_X_POINTS = 1025
INCREMENT_W_INTERVALS = 1200


@dataclass(frozen=True)
class KernelParams:
    """Evaluation controls for the heat kernel.

    switch_time: series for t >= switch_time, images below.
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
    if np.any(x < 0) or np.any(x > 1) or np.any(y < 0) or np.any(y > 1):
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


def kernel_images(t, x, y) -> np.ndarray:
    """Image-charge form of p_t(x, y); accurate for small t."""
    t, x, y = _check_txy(t, x, y)
    k = 2.0 * np.arange(-N_IMAGES, N_IMAGES + 1)
    xb, yb = np.broadcast_arrays(x, y)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    d1 = np.subtract.outer(xb - yb, k)
    d2 = np.subtract.outer(xb + yb, k)
    out = norm * (np.exp(-d1 * d1 / (2.0 * t)) - np.exp(-d2 * d2 / (2.0 * t))).sum(axis=-1)
    return out if out.shape else float(out)


def kernel_eval(t, x, y, params: KernelParams = DEFAULT_PARAMS):
    """Evaluate p_t(x, y), choosing the series or image form by t."""
    t = float(t)
    if t < params.switch_time:
        return kernel_images(t, x, y)
    return kernel_series(t, x, y, params)


def _kernel_matrix(t: float, xs: np.ndarray, ys: np.ndarray, params: KernelParams) -> np.ndarray:
    """p_t on a tensor grid, exploiting separability of the series form."""
    if t >= params.switch_time:
        N = _series_mode_count(t, params)
        n = np.arange(1, N + 1)
        decay = 2.0 * np.exp(-0.5 * (n * math.pi) ** 2 * t)
        sx = np.sin(np.outer(xs, n * math.pi))
        sy = np.sin(np.outer(ys, n * math.pi))
        return (sx * decay) @ sy.T
    out = np.empty((xs.size, ys.size))
    step = max(1, int(2e6 // max(ys.size, 1)))
    for i in range(0, xs.size, step):
        out[i : i + step] = kernel_images(t, xs[i : i + step, None], ys[None, :])
    return out


def semigroup_apply(t: float, f: Field) -> Field:
    """Apply the Dirichlet heat semigroup at time t to a field.

    Mode k is damped by exp(-k^2 pi^2 t / 2); t = 0 is the identity. The map
    is an L2 contraction, which callers may rely on.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return Field(f.n, coeffs=f.coeffs.copy())
    k = np.arange(1, f.n + 1)
    return Field(f.n, coeffs=f.coeffs * np.exp(-0.5 * (k * math.pi) ** 2 * t))


def mass_and_l2_bounds(t: float, params: KernelParams = DEFAULT_PARAMS) -> tuple[float, float]:
    """Return (sup_x int p_t(x, y) dy, sup_x int p_t(x, y)^2 dy).

    Simpson quadrature in y on a grid fine enough to resolve the kernel
    width sqrt(t); the sup is over an x grid containing the symmetry point
    1/2, where both profiles peak.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    n_y = 1 + 2 * max(1024, int(math.ceil(48.0 / math.sqrt(t))))
    xs = np.linspace(0.0, 1.0, MASS_X_POINTS)
    ys = np.linspace(0.0, 1.0, n_y)
    P = _kernel_matrix(t, xs, ys, params)
    w = simpson_weights(n_y, 1.0 / (n_y - 1))
    mass = P @ w
    l2sq = (P * P) @ w
    return float(mass.max()), float(l2sq.max())


def _diag_images(s: float, xs: np.ndarray) -> np.ndarray:
    """p_s(x, x) on an x grid via images, image count adapted to s."""
    K = int(math.ceil(math.sqrt(22.5 * s))) + 1
    k = 2.0 * np.arange(-K, K + 1)
    norm = 1.0 / math.sqrt(2.0 * math.pi * s)
    same = np.exp(-k * k / (2.0 * s)).sum()
    d = np.subtract.outer(2.0 * xs, k)
    refl = np.exp(-d * d / (2.0 * s)).sum(axis=-1)
    return norm * (same - refl)


def time_increment_estimate(h: float, R: float = 3.0) -> float:
    """Integrated sup-over-space second difference of the kernel in time.

    Computes int_0^R sup_x [p_{2r} - 2 p_{2r+h} + p_{2r+2h}](x, x) dr, the
    quantity controlling the time modulus of stochastic convolutions over a
    horizon R. The integrand equals sum_n e_n(x)^2 e^{-pi^2 n^2 r}
    (1 - e^{-pi^2 n^2 h / 2})^2 >= 0, and the diagonal second difference is
    evaluated in image form. The 1/sqrt(r) endpoint singularity is removed
    by the substitution r = w^2; at w = 0 the integrand tends to
    1/sqrt(pi) exactly.

    The tail beyond R is bounded by exp(-pi^2 R)/3; R must make that at
    most 1e-12.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if math.exp(-math.pi**2 * R) / 3.0 > 1e-12:
        raise ValueError("R too small for the required tail bound")
    n_w = INCREMENT_W_INTERVALS
    xs = np.linspace(0.0, 1.0, INCREMENT_X_POINTS)[1:-1]
    ws = np.linspace(0.0, math.sqrt(R), n_w + 1)
    vals = np.empty(n_w + 1)
    vals[0] = 1.0 / SQRT_PI
    for i in range(1, n_w + 1):
        r = ws[i] * ws[i]
        g = _diag_images(2.0 * r, xs) - 2.0 * _diag_images(2.0 * r + h, xs) \
            + _diag_images(2.0 * r + 2.0 * h, xs)
        vals[i] = 2.0 * ws[i] * g.max()
    w_quad = simpson_weights(n_w + 1, ws[1] - ws[0])
    return float(vals @ w_quad)


def time_increment_pointwise(x: float, h: float, R: float = 3.0) -> float:
    """Closed mode sum of the time-increment integral at a single point x.

    sum_n 2 sin^2(n pi x) (1 - e^{-pi^2 n^2 h/2})^2 (1 - e^{-pi^2 n^2 R})
    / (pi^2 n^2), truncated where the summand's 1/n^2 envelope is spent.
    Always a lower value than the sup-in-x integral.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    N = int(max(200_000, 20.0 / math.sqrt(h)))
    total = 0.0
    chunk = 1_000_000
    for lo in range(1, N + 1, chunk):
        n = np.arange(lo, min(lo + chunk, N + 1), dtype=float)
        lam = 0.5 * (math.pi * n) ** 2
        kap = -np.expm1(-lam * h)
        term = 2.0 * np.sin(n * math.pi * x) ** 2 * kap * kap \
            * (-np.expm1(-2.0 * lam * R)) / (2.0 * lam)
        total += float(term.sum())
    return total


def spatial_modulus_estimate(x: float, y: float, n_terms: int = 4_000_000,
                             R: float = 3.0) -> float:
    """Majorant series for the spatial modulus of stochastic convolutions.

    sum_n |e_n(x) - e_n(y)| * sqrt(2) * (1 - e^{-pi^2 n^2 R / 2}) * 2/(pi^2 n^2),
    which dominates int_0^R sup-type increments of the kernel between x and y.
    Returns 0 for x == y. The truncation after n_terms shorts the value by
    at most 8/(pi^2 n_terms).
    """
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError("x and y must lie in [0, 1]")
    if x == y:
        return 0.0
    total = 0.0
    chunk = 1_000_000
    for lo in range(1, n_terms + 1, chunk):
        n = np.arange(lo, min(lo + chunk, n_terms + 1), dtype=float)
        lam = 0.5 * (math.pi * n) ** 2
        dsin = np.abs(np.sin(n * math.pi * x) - np.sin(n * math.pi * y))
        total += float((2.0 * dsin * (-np.expm1(-lam * R)) / lam).sum())
    return total


def log_jensen_bound_check(dt: float, u: Field,
                           params: KernelParams = DEFAULT_PARAMS) -> tuple[float, float]:
    """Both sides of the smoothed log-squared inequality.

    LHS: sup over nodes x of int p_dt(x, y) log_+^2 |u(y)| dy, computed by
    Simpson quadrature on u's own grid (a grid sup, hence never above the
    true sup). RHS: (2 + (1/4) log_+(1/dt) + log_+ ||u||_{L2})^2.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = u.n
    ys = np.concatenate(([0.0], nodes(n), [1.0]))
    g = np.zeros(n + 2)
    g[1:-1] = log_plus(u.values) ** 2
    w = simpson_weights(n + 2, 1.0 / (n + 1))
    P = _kernel_matrix(dt, nodes(n), ys, params)
    lhs = float((P @ (w * g)).max())
    rhs = (2.0 + 0.25 * log_plus(1.0 / dt) + log_plus(u.l2_norm())) ** 2
    return lhs, float(rhs)
