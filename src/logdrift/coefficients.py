"""Drift and diffusion families, growth/log-Lipschitz checkers, mollification.

Drift families cover the critical logarithmic nonlinearity z log|z|, its
superlinear log-power relatives, and plain diagnostic drifts (linear,
polynomial, tabulated). The checkers are sample-based: they compute minimal
feasible constants on fixed sample sets, and flag families whose required
growth constant keeps climbing decade over decade at the top of the sampled
range. Mollified drifts are precomputed on a lookup grid and evaluated by
monotone cubic interpolation, so they are cheap, Lipschitz, and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import linprog

from .gronwall import log_plus

CONSTANT_CAP = 1.0e6

DRIFT_FAMILIES = ("log_linear", "log_power", "linear", "polynomial", "custom_table")
DIFFUSION_FAMILIES = ("sublinear_power", "bounded", "lipschitz_custom")


class HypothesisViolation(ValueError):
    """A drift or diffusion family failed a growth or regularity check."""


@dataclass(frozen=True)
class DriftSpec:
    """Reaction term b(z), selected by family name.

    log_linear:   b(z) = scale * z * log|z|, with b(0) = 0.
    log_power:    b(z) = scale * z * log(1 + |z|)**exponent.
    linear:       b(z) = scale * z.
    polynomial:   b(z) = scale * z**degree.
    custom_table: piecewise-linear interpolation of (table_x, table_y).

    declared_constants, when given, is (c1, c2, c3, c4, c5): growth constants
    |b(z)| <= c1 |z| log+|z| + c2 and log-Lipschitz constants
    |b(u)-b(v)| <= c3 |u-v| log+(1/|u-v|) + c4 log+(|u| v |v|) |u-v| + c5 |u-v|.
    They are validated against the standard samples at construction.
    """

    family: str
    scale: float = 1.0
    exponent: float = 2.0
    degree: int = 2
    table_x: Optional[tuple] = None
    table_y: Optional[tuple] = None
    declared_constants: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in DRIFT_FAMILIES:
            raise ValueError(f"unknown drift family {self.family!r}")
        if not np.isfinite(self.scale):
            raise ValueError("scale must be finite")
        if self.family == "log_power" and self.exponent < 1.0:
            raise ValueError("log_power exponent must be >= 1")
        if self.family == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.family == "custom_table":
            if self.table_x is None or self.table_y is None:
                raise ValueError("custom_table needs table_x and table_y")
            xs = np.asarray(self.table_x, dtype=float)
            ys = np.asarray(self.table_y, dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
                raise ValueError("table_x and table_y must be 1-d, equal length >= 2")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
                raise ValueError("table entries must be finite")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("table_x must be strictly increasing")
        if self.declared_constants is not None:
            cs = tuple(float(c) for c in self.declared_constants)
            if len(cs) != 5 or any(c < 0 for c in cs):
                raise ValueError("declared_constants must be 5 nonnegative reals")
            validate_declared_constants(self, cs)


def drift_eval(spec: DriftSpec, z):
    """Evaluate b(z); z may be a scalar or an array."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("drift argument must be finite")
    a = np.abs(z)
    if spec.family == "log_linear":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(a > 0.0, spec.scale * z * np.log(np.where(a > 0.0, a, 1.0)), 0.0)
    elif spec.family == "log_power":
        out = spec.scale * z * np.log1p(a) ** spec.exponent
    elif spec.family == "linear":
        out = spec.scale * z
    elif spec.family == "polynomial":
        out = spec.scale * z ** spec.degree
    else:
        out = np.interp(z, np.asarray(spec.table_x), np.asarray(spec.table_y))
    return out if out.ndim else float(out)


def standard_sample() -> np.ndarray:
    """Fixed evaluation magnitudes: +-[1e-12, 1e6] at 20 points per decade,
    zero, and the anchors 1/e, 1, e where the growth envelope has corners."""
    mags = np.logspace(-12.0, 6.0, 361)
    anchors = np.array([0.0, 1.0 / np.e, 1.0, np.e])
    vals = np.concatenate([mags, anchors])
    return np.unique(np.concatenate([-vals, vals]))


def pair_sample():
    """Fixed (u, v) pairs: gaps down to 1e-12 around bases up to 1e6,
    antipodal pairs, and gap-dominated pairs with both ends inside [-1, 1]."""
    bases = np.array([0.0, 1e-9, 1e-6, 1e-3, 0.05, 1.0 / np.e, 0.5, 1.0,
                      np.e, 10.0, 1e3, 1e6,
                      -1e-6, -0.05, -0.5, -1.0, -10.0, -1e3, -1e6])
    gaps = np.logspace(-12.0, 1.0, 27)
    u = np.repeat(bases, gaps.size)
    v = u + np.tile(gaps, bases.size)
    mirror = np.logspace(-3.0, 6.0, 19)
    u = np.concatenate([u, mirror, [1.0]])
    v = np.concatenate([v, -mirror, [-1.0]])
    return u, v


def _required_growth_constant(bvals, weights, c2_floor):
    mask = weights > 0.0
    if not np.any(mask):
        return 0.0
    req = (bvals[mask] - c2_floor) / weights[mask]
    return float(max(np.max(req), 0.0))


def growth_check(spec: DriftSpec):
    """Minimal (c1, c2) with |b(z)| <= c1 |z| log+|z| + c2 on the sample.

    c2 is pinned first by the points where the weight |z| log+|z| vanishes,
    then c1 is the smallest slope covering the rest. Raises
    HypothesisViolation when the required c1 keeps growing across the top
    sampled decades (super-log-linear drift) or exceeds the constant cap.
    """
    zs = standard_sample()
    bvals = np.abs(drift_eval(spec, zs))
    weights = np.abs(zs) * log_plus(np.abs(zs))
    flat = weights == 0.0
    c2 = float(np.max(bvals[flat])) if np.any(flat) else 0.0
    c1 = _required_growth_constant(bvals, weights, c2)
    with np.errstate(invalid="ignore"):
        req = np.where(weights > 0.0, (bvals - c2) / np.where(weights > 0.0, weights, 1.0), 0.0)
    decade_max = []
    for lo in (1e3, 1e4, 1e5):
        m = (np.abs(zs) >= lo) & (np.abs(zs) <= lo * 10.0)
        decade_max.append(np.max(req[m]) if np.any(m) else 0.0)
    d1, d2, d3 = decade_max
    # required slope still climbing at the top of the range: no finite pair fits
    if d3 > 0.0 and d3 > 1.05 * d2 and d2 > 1.05 * d1:
        raise HypothesisViolation(
            f"growth check: required constant climbs {d1:.3g} -> {d2:.3g} -> {d3:.3g} "
            "across the top sampled decades")
    if not (c1 <= CONSTANT_CAP and c2 <= CONSTANT_CAP):
        raise HypothesisViolation(f"growth check: constants ({c1:.3g}, {c2:.3g}) exceed cap")
    return c1, c2


def loglip_terms(u, v):
    """The three majorant terms for |b(u) - b(v)|:
    gap * log+(1/gap), log+(|u| v |v|) * gap, gap."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gap = np.abs(u - v)
    with np.errstate(divide="ignore"):
        t1 = gap * log_plus(np.where(gap > 0.0, 1.0 / np.where(gap > 0.0, gap, 1.0), 0.0))
    t2 = log_plus(np.maximum(np.abs(u), np.abs(v))) * gap
    return t1, t2, gap


def loglip_check(spec: DriftSpec):
    """Minimal (c3, c4, c5) majorizing |b(u)-b(v)| over the pair sample.

    Solved as a linear program (minimize c3+c4+c5 subject to the sampled
    inequalities, all constants in [0, cap]). Infeasibility at the cap is
    how discontinuous or super-log-Lipschitz drifts surface.
    """
    u, v = pair_sample()
    t1, t2, t3 = loglip_terms(u, v)
    d = np.abs(drift_eval(spec, u) - drift_eval(spec, v))
    keep = d > 0.0
    if not np.any(keep):
        return 0.0, 0.0, 0.0
    # rows normalized by the gap: raw terms span 18 decades and defeat the
    # solver's internal scaling
    s = t3[keep]
    A = -np.column_stack([t1[keep] / s, t2[keep] / s, t3[keep] / s])
    res = linprog(c=[1.0, 1.0, 1.0], A_ub=A, b_ub=-d[keep] / s,
                  bounds=[(0.0, CONSTANT_CAP)] * 3, method="highs")
    if not res.success:
        raise HypothesisViolation("log-Lipschitz check: no constants below the cap fit")
    c3, c4, c5 = (float(max(x, 0.0)) for x in res.x)
    return c3, c4, c5


def validate_declared_constants(spec: DriftSpec, cs) -> None:
    """Declared (c1..c5) must satisfy both sampled inequalities pointwise."""
    c1, c2, c3, c4, c5 = cs
    zs = standard_sample()
    lhs = np.abs(drift_eval(spec, zs))
    rhs = c1 * np.abs(zs) * log_plus(np.abs(zs)) + c2
    if np.any(lhs > rhs * (1.0 + 1e-12) + 1e-12):
        raise HypothesisViolation("declared growth constants do not cover the sample")
    u, v = pair_sample()
    t1, t2, t3 = loglip_terms(u, v)
    d = np.abs(drift_eval(spec, u) - drift_eval(spec, v))
    rhs = c3 * t1 + c4 * t2 + c5 * t3
    if np.any(d > rhs * (1.0 + 1e-12) + 1e-12):
        raise HypothesisViolation("declared log-Lipschitz constants do not cover the sample")


# ---------------------------------------------------------------------------
# mollification


# lookup-grid steps of a mollified drift (fine on [-1, 1] around the log
# kink) and Gauss-Legendre nodes per half of its bump integral
COARSE_STEP = 1.0 / 64.0
FINE_STEP = 1.0 / 1024.0
QUAD_POINTS = 96
GROWTH_LEVELS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class MollifierParams:
    """Mollification level n >= 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("mollifier level must be >= 1")


def mollifier_levels(levels: Sequence[int]) -> list[int]:
    """The levels as a list of ints, checked to be >= 1 and strictly
    increasing, as level sweeps over mollified drifts need them."""
    levels = [int(n) for n in levels]
    if any(n < 1 for n in levels):
        raise ValueError("mollification levels must be >= 1")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return levels


def _bump_normalization() -> float:
    x, w = np.polynomial.legendre.leggauss(96)
    return float(np.sum(w * np.exp(-1.0 / (1.0 - x * x))))


_BUMP_NORM = _bump_normalization()


def bump(x):
    """Unit-mass smooth bump supported in (-1, 1)."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    x2 = np.where(inside, x * x, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(inside, np.exp(-1.0 / (1.0 - x2)), 0.0)
    return vals / _BUMP_NORM


def cutoff(x, n: int):
    """Profile equal to 1 on [-n, n], 0 outside [-n-2, n+2], quintic joins."""
    t = np.clip((np.abs(np.asarray(x, dtype=float)) - n) / 2.0, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


class MollifiedDrift:
    """b_n = (b convolved with the scaled bump) times the cutoff.

    Values are precomputed on a graded lookup grid and interpolated with a
    monotone cubic; evaluation outside [-(n+2), n+2] returns 0 exactly.
    """

    def __init__(self, spec: DriftSpec, params: MollifierParams):
        self.spec = spec
        self.params = params
        n = params.n
        edge = n + 2.0
        coarse = np.arange(-edge, edge + 0.5 * COARSE_STEP, COARSE_STEP)
        inner = min(1.0, edge)
        fine = np.arange(-inner, inner + 0.5 * FINE_STEP, FINE_STEP)
        grid = np.unique(np.concatenate([coarse, fine, [-edge, 0.0, edge]]))
        # interpolate the smooth convolution only; the cutoff varies fast near
        # the support edge and is applied exactly at call time
        conv = _convolve_bump(spec, grid, n)
        self._interp = PchipInterpolator(grid, conv, extrapolate=False)
        mids = 0.5 * (grid[1:] + grid[:-1])
        dense = np.sort(np.concatenate([grid, mids]))
        slopes = np.diff(self(dense)) / np.diff(dense)
        self.lipschitz = float(np.max(np.abs(slopes)))

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = self._interp(z) * cutoff(z, self.params.n)
        out = np.where(np.isnan(out), 0.0, out)
        return out if out.ndim else float(out)


def _convolve_bump(spec: DriftSpec, xs: np.ndarray, n: int):
    """int_{-1}^{1} b(x - s/n) bump(s) ds on each x, split at the s where the
    drift argument crosses zero (the log kink sits there)."""
    g, w = np.polynomial.legendre.leggauss(QUAD_POINTS)
    split = np.clip(n * xs, -1.0, 1.0)
    total = np.zeros_like(xs)
    for a, b in ((-np.ones_like(split), split), (split, np.ones_like(split))):
        half = 0.5 * (b - a)
        nodes = a[:, None] + half[:, None] * (g[None, :] + 1.0)
        fvals = drift_eval(spec, xs[:, None] - nodes / n) * bump(nodes)
        total += half * (fvals @ w)
    return total


def mollify(spec: DriftSpec, params: MollifierParams) -> MollifiedDrift:
    return MollifiedDrift(spec, params)


def uniform_growth_check(spec: DriftSpec) -> float:
    """Smallest L with |b_n(x)| <= c1 |x| log+|x| + L (|x| + 1) across levels.

    c1 is the base drift's growth constant; finiteness of the returned L,
    uniformly over GROWTH_LEVELS, is the point of the check.
    """
    zs = standard_sample()
    zs = zs[np.abs(zs) <= max(GROWTH_LEVELS) + 3.0]
    c1, _ = growth_check(spec)
    envelope = c1 * np.abs(zs) * log_plus(np.abs(zs))
    worst = 0.0
    for n in GROWTH_LEVELS:
        bn = mollify(spec, MollifierParams(n=n))
        excess = (np.abs(bn(zs)) - envelope) / (np.abs(zs) + 1.0)
        worst = max(worst, float(np.max(excess)))
    return max(worst, 0.0)


# ---------------------------------------------------------------------------
# diffusion


@dataclass(frozen=True)
class DiffusionSpec:
    """Noise coefficient sigma(u).

    sublinear_power:  sigma(u) = d1 * u * (1 + u^2)^((theta-1)/2) + d2,
                      which obeys |sigma(u)| <= d1 |u|^theta + d2.
    bounded:          the same shape pinned at theta = 0 (|sigma| <= d1 + d2).
    lipschitz_custom: user callable with declared Lipschitz constant d3.
    """

    family: str
    d1: float = 1.0
    d2: float = 0.0
    theta: float = 0.0
    d3: Optional[float] = None
    func: Optional[Callable] = None

    def __post_init__(self):
        if self.family not in DIFFUSION_FAMILIES:
            raise ValueError(f"unknown diffusion family {self.family!r}")
        if not (0.0 <= self.d1 < math.inf and 0.0 <= self.d2 < math.inf):
            raise ValueError("d1, d2 must be finite and nonnegative")
        if not (0.0 <= self.theta < 1.0):
            raise ValueError("theta must lie in [0, 1)")
        if self.family == "bounded" and self.theta != 0.0:
            raise ValueError("bounded family fixes theta = 0")
        if self.family == "lipschitz_custom":
            if self.func is None or self.d3 is None:
                raise ValueError("lipschitz_custom needs func and d3")
            u, v = pair_sample()
            gap = np.abs(u - v)
            d = np.abs(np.asarray(self.func(u)) - np.asarray(self.func(v)))
            if np.any(d > self.d3 * gap * (1.0 + 1e-9) + 1e-12):
                raise HypothesisViolation("declared d3 is not a Lipschitz bound on the sample")


def sigma_eval(spec: DiffusionSpec, u):
    u = np.asarray(u, dtype=float)
    if spec.family == "lipschitz_custom":
        out = np.asarray(spec.func(u), dtype=float)
    else:
        out = spec.d1 * u * (1.0 + u * u) ** (0.5 * (spec.theta - 1.0)) + spec.d2
    return out if out.ndim else float(out)


def sublinear_check(spec: DiffusionSpec):
    """Minimal (d1, d2) with |sigma(u)| <= d1 |u|^theta + d2 on the sample."""
    us = standard_sample()
    svals = np.abs(sigma_eval(spec, us))
    weights = np.abs(us) ** spec.theta if spec.theta > 0.0 else np.ones_like(us)
    flat = weights == 0.0
    d2 = float(np.max(svals[flat])) if np.any(flat) else 0.0
    d1 = _required_growth_constant(svals, weights, d2)
    if not (d1 <= CONSTANT_CAP and d2 <= CONSTANT_CAP):
        raise HypothesisViolation("sublinear check: constants exceed cap")
    return d1, d2


def lipschitz_check(spec: DiffusionSpec) -> float:
    """Largest sampled difference quotient of sigma; raises
    HypothesisViolation unless it is at most the constant cap."""
    u, v = pair_sample()
    gap = np.abs(u - v)
    keep = gap > 0.0
    d = np.abs(sigma_eval(spec, u[keep]) - sigma_eval(spec, v[keep]))
    d3 = float(np.max(d / gap[keep]))
    if not d3 <= CONSTANT_CAP:
        raise HypothesisViolation("Lipschitz check: constant exceeds cap")
    return d3
