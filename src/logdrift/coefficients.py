"""Drift and diffusion families, growth/log-Lipschitz checkers, mollification.

Drift families cover the critical logarithmic nonlinearity z log|z|, its
superlinear log-power relatives, and plain diagnostic drifts (linear,
polynomial, tabulated). The checkers are sample-based: they compute minimal
feasible constants on fixed sample sets, and flag families whose required
growth constant keeps climbing decade over decade at the top of the sampled
range. Mollified drifts are precomputed on a lookup grid and evaluated by
monotone cubic interpolation, so they are cheap, Lipschitz, and deterministic.

The module imports only numpy, and its answers depend on numpy alone. The
monotone cubic is a numpy port of scipy's PCHIP, so the tables do not depend
on the installed scipy, and ``loglip_check`` solves its three-variable
linear program with a small simplex method of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import log_plus

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
    """

    family: str
    scale: float = 1.0
    exponent: float = 2.0
    degree: int = 2
    table_x: Optional[tuple] = None
    table_y: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in DRIFT_FAMILIES:
            raise ValueError(f"unknown drift family {self.family!r}")
        if not np.isfinite(self.scale):
            raise ValueError("scale must be finite")
        if self.family == "log_power" and not 1.0 <= self.exponent < math.inf:
            raise ValueError("log_power exponent must be finite and >= 1")
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

    @property
    def odd(self) -> bool:
        """Whether b(-z) = -b(z) for every z, by family."""
        return self.family in ("log_linear", "log_power", "linear") or \
            (self.family == "polynomial" and self.degree % 2 == 1)


def drift_eval(spec: DriftSpec, z):
    """Evaluate b(z); z may be a scalar or an array."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("drift argument must be finite")
    a = np.abs(z)
    if spec.family == "log_linear":
        # log|z| and then b(z) in place of |z| where z != 0; b(0) keeps
        # the +0.0 of |z|, also at z = -0.0
        nonzero = a > 0.0
        out = np.asarray(a)  # an array also for a scalar z
        np.log(out, out=out, where=nonzero)
        np.multiply(spec.scale * z, out, out=out, where=nonzero)
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
    antipodal pairs, and gap-dominated pairs with both ends inside [-1, 1].

    A pair whose gap is below 2^20 ulps of max(|u|, |v|) is dropped: its
    drift difference is resolved to worse than about 1e-6 relative, so its
    quotient would sample rounding error."""
    bases = np.array([0.0, 1e-9, 1e-6, 1e-3, 0.05, 1.0 / np.e, 0.5, 1.0,
                      np.e, 10.0, 1e3, 1e6,
                      -1e-6, -0.05, -0.5, -1.0, -10.0, -1e3, -1e6])
    gaps = np.logspace(-12.0, 1.0, 27)
    u = np.repeat(bases, gaps.size)
    v = u + np.tile(gaps, bases.size)
    mirror = np.logspace(-3.0, 6.0, 19)
    u = np.concatenate([u, mirror, [1.0]])
    v = np.concatenate([v, -mirror, [-1.0]])
    ulp = np.spacing(np.maximum(np.abs(u), np.abs(v)))
    resolved = np.abs(u - v) >= 2.0 ** 20 * ulp
    return u[resolved], v[resolved]


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
    inequalities, all constants in [0, cap]) by ``_capped_lp``, whose answer
    scales with the drift. Infeasibility at the cap is how discontinuous or
    super-log-Lipschitz drifts surface; a drift whose sampled differences
    leave the float range raises as well.
    """
    u, v = pair_sample()
    t1, t2, t3 = loglip_terms(u, v)
    d = np.abs(drift_eval(spec, u) - drift_eval(spec, v))
    if not np.all(np.isfinite(d)):
        raise HypothesisViolation("log-Lipschitz check: a sampled drift "
                                  "difference is not finite")
    keep = d > 0.0
    if not np.any(keep):
        return 0.0, 0.0, 0.0
    # rows divided by the gap: raw terms span 18 decades, while these lie in
    # [0, 28] and the last column is all ones. A quotient past the float
    # range exceeds every majorant with constants at the cap
    s = t3[keep]
    with np.errstate(over="ignore"):
        r = d[keep] / s
    x = _capped_lp(np.column_stack([t1[keep] / s, t2[keep] / s, t3[keep] / s]),
                   r, CONSTANT_CAP) if np.all(np.isfinite(r)) else None
    if x is None:
        raise HypothesisViolation("log-Lipschitz check: no constants below the cap fit")
    c3, c4, c5 = (float(max(xi, 0.0)) for xi in x)
    return c3, c4, c5


# pivots that ``_capped_lp`` may take. Bland's rule cannot cycle, so this
# guards only against a floating-point stall; the drift families take 10 to
# 175. Reduced costs, pivot elements and basic values at or below the
# tolerance count as zero, on data scaled to max(r) = 1
_MAX_PIVOTS = 10_000
_PIVOT_TOL = 1e-12


def _capped_lp(M: np.ndarray, r: np.ndarray, cap: float):
    """The x minimizing sum(x) subject to M x >= r and 0 <= x <= cap, or
    None when no x fits; M has three columns and r is finite with max > 0.

    Solves the dual, maximize [r; -cap]^T y subject to [M; -I]^T y <= 1 and
    y >= 0, by the simplex method from its slack basis, which is feasible.
    Each basis is a 3 x 3 solve, and x is the simplex multiplier of the
    optimal one. The cap rows are part of the dual, so the bounds hold
    exactly, and an unbounded dual means that no x fits. Both the entering
    and the leaving index follow Bland's rule (Math. Oper. Res. 2, 1977,
    103-107), which cannot cycle on the sample's degenerate rows. r and the
    cap are divided by max(r) first, so the tolerance is relative and the
    answer scales with r.
    """
    k = M.shape[1]
    top = float(np.max(r))
    D = np.hstack([M.T, -np.eye(k), np.eye(k)])
    w = np.concatenate([r / top, np.full(k, -cap / top), np.zeros(k)])
    basis = np.arange(D.shape[1] - k, D.shape[1])
    for _ in range(_MAX_PIVOTS):
        B = D[:, basis]
        x = np.linalg.solve(B.T, w[basis])
        # einsum, not BLAS's gemv, whose rounding follows its thread count
        entering = np.flatnonzero(w - np.einsum("i,ij->j", x, D) > _PIVOT_TOL)
        if entering.size == 0:
            return x * top
        j = entering[0]
        col, level = np.linalg.solve(B, np.column_stack([D[:, j], np.ones(k)])).T
        # exact zeros, so that degenerate rows tie in the ratio test
        level[level <= _PIVOT_TOL] = 0.0
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return None
        ratio = level[rows] / col[rows]
        tied = rows[ratio == ratio.min()]
        basis[tied[np.argmin(basis[tied])]] = j
    raise HypothesisViolation("log-Lipschitz check: the linear program did not "
                              f"converge in {_MAX_PIVOTS} pivots")


# ---------------------------------------------------------------------------
# mollification


# lookup-grid steps of a mollified drift (fine on [-1, 1] around the log
# kink) and Gauss-Legendre nodes per half of its bump integral
COARSE_STEP = 1.0 / 64.0
FINE_STEP = 1.0 / 1024.0
QUAD_POINTS = 96
# lookup-grid rows per block of a table build. A temporary holds the drift
# arguments or values of the block's rows, or the nodes and bump values of
# its rows with n|x| < 1: at most 1024 x QUAD_POINTS doubles, about 0.8 MB
_BUMP_BLOCK_ROWS = 1024
GROWTH_LEVELS = (1, 2, 4, 8, 16, 32, 64)
# the largest mollification level. A level-n table takes time and memory
# linear in n to build and to hold (at n = 1024, about 0.3 s and a peak
# RSS of 83 MB in a fresh process, 57 MB of which is the import), so a
# level far above this would exhaust memory instead of exiting
MAX_MOLLIFIER_LEVEL = 1024


def mollifier_levels(levels: Sequence[int]) -> list[int]:
    """The levels as a list of ints, checked to lie in [1,
    MAX_MOLLIFIER_LEVEL], to be strictly increasing and to sum to at most
    2 MAX_MOLLIFIER_LEVEL, as level sweeps over mollified drifts need them."""
    levels = [int(n) for n in levels]
    if any(not 1 <= n <= MAX_MOLLIFIER_LEVEL for n in levels):
        raise ValueError("mollification levels must be >= 1 and <= "
                         f"{MAX_MOLLIFIER_LEVEL}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    # a uniqueness sweep holds every level's table at once, about 12.8 KB
    # per level unit (13.1 MB at n = 1024), so 1, 2, ..., 1024 would need
    # about 6.7 GB; this sum keeps the tables near 26 MB and admits every
    # dyadic ladder up to MAX_MOLLIFIER_LEVEL
    if sum(levels) > 2 * MAX_MOLLIFIER_LEVEL:
        raise ValueError("levels must sum to at most "
                         f"{2 * MAX_MOLLIFIER_LEVEL}")
    return levels


# the Gauss-Legendre rule of the bump's mass and of each half of a table's
# bump integrals, built once for the many row blocks of every table
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(QUAD_POINTS)
_BUMP_NORM = float(np.sum(_GAUSS_W * np.exp(-1.0 / (1.0 - _GAUSS_X * _GAUSS_X))))


def bump(x):
    """Unit-mass smooth bump supported in (-1, 1)."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    x2 = np.where(inside, x * x, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(inside, np.exp(-1.0 / (1.0 - x2)), 0.0)
    return vals / _BUMP_NORM


# the nodes and bump values of a half of full width, [-1, 1], on which every
# row with n|x| >= 1 of every table integrates: a row's own nodes
# a + half (g + 1) at a = -1 and half = 1, operation for operation
_FULL_NODES = -1.0 + 1.0 * (_GAUSS_X + 1.0)
_FULL_BUMP = bump(_FULL_NODES)


def cutoff(x, n: int):
    """Profile equal to 1 on [-n, n], 0 outside [-n-2, n+2], quintic joins."""
    t = np.clip((np.abs(np.asarray(x, dtype=float)) - n) / 2.0, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


class MollifiedDrift:
    """b_n = (b convolved with the scaled bump) times the cutoff.

    Values are precomputed on a graded lookup grid and interpolated with a
    monotone cubic; evaluation outside [-(n+2), n+2] returns 0 exactly.
    A call and ``stack_levels``, which looks up several levels at once, both
    evaluate the cubic with ``_table_values``.
    """

    def __init__(self, spec: DriftSpec, n: int):
        if not 1 <= n <= MAX_MOLLIFIER_LEVEL:
            raise ValueError("mollifier level must be >= 1 and <= "
                             f"{MAX_MOLLIFIER_LEVEL}")
        self.spec = spec
        self.n = n
        edge = n + 2.0
        coarse = np.arange(-edge, edge + 0.5 * COARSE_STEP, COARSE_STEP)
        inner = min(1.0, edge)
        fine = np.arange(-inner, inner + 0.5 * FINE_STEP, FINE_STEP)
        grid = np.unique(np.concatenate([coarse, fine, [-edge, 0.0, edge]]))
        # interpolate the smooth convolution only; the cutoff varies fast near
        # the support edge and is applied exactly at call time. A block of
        # rows at a time keeps the temporaries the same size at every level;
        # each row's sum is its own, so the blocks move no bit
        conv = np.concatenate([_convolve_bump(spec, grid[lo:lo + _BUMP_BLOCK_ROWS], n)
                               for lo in range(0, grid.size, _BUMP_BLOCK_ROWS)])
        if not np.all(np.isfinite(conv)):
            raise HypothesisViolation(f"mollified drift at level n={n} is not "
                                      "finite on its lookup grid")
        # each interval's monotone cubic, highest power first. _table_values
        # starts its sum at c3, scipy's PPoly (the tests' reference) at
        # 0.0 + c3; they agree because c3, a node value summed from +0.0, is
        # never -0.0
        self._coef = _pchip_coefficients(grid, conv)
        self._grid, self._edge = grid, edge
        # every breakpoint is a multiple of FINE_STEP, so each fine bucket of
        # [-edge, edge] lies in one interval; z = edge closes the last one
        widths = np.rint(np.diff(grid) / FINE_STEP).astype(np.int64)
        self._bucket = np.append(
            np.repeat(np.arange(grid.size - 1, dtype=np.int32), widths),
            np.int32(grid.size - 2))

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        inside = np.abs(z) <= self._edge  # false for NaN
        out[inside] = _table_values(z[inside], self._edge, self.n, 0,
                                    self._grid, self._coef, self._bucket)
        return out if out.ndim else float(out)


def stack_levels(drifts: Sequence[MollifiedDrift]) -> Callable:
    """One lookup for several mollified drifts: the callable maps (rows, N)
    values, rows <= levels, to (rows, N), row i by drifts[i], bit for bit.
    A breach leaves a march fewer rows than levels. The march multiplies
    through fields.rows_matmul, so no row reaches the lookup twice.

    The tables are joined: each level's grid (less its right end) and
    cubics follow the previous level's, and its buckets point into its own
    rows of them. Each point reads its row's edge, level and first bucket,
    so one pass of ``_table_values`` serves every row.
    """
    rows = np.cumsum([0] + [d._coef.shape[0] for d in drifts])
    grid = np.concatenate([d._grid[:-1] for d in drifts])
    coef = np.concatenate([d._coef for d in drifts])
    bucket = np.concatenate([d._bucket + int(r) for d, r in zip(drifts, rows)])
    edge = np.array([d._edge for d in drifts])
    level = np.array([d.n for d in drifts], dtype=float)
    first = np.cumsum([0] + [d._bucket.size for d in drifts[:-1]])

    def lookup(z):
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) <= edge[:z.shape[0], None]  # false for NaN
        row = np.nonzero(inside)[0]
        out = np.zeros(z.shape)
        out[inside] = _table_values(z[inside], edge.take(row),
                                    level.take(row), first.take(row),
                                    grid, coef, bucket)
        return out

    return lookup


def _table_values(z, edge, n, first, grid, coef, bucket):
    """A mollified drift's monotone cubic times its cutoff at the points z,
    each inside [-edge, edge], from the joined tables of one or several
    levels. edge, the level n and the table's first bucket index are
    scalars or, one per point, arrays like z."""
    # z + edge can round up onto a bucket's left end, never below it
    k = bucket.take(((z + edge) * (1.0 / FINE_STEP)).astype(np.intp) + first)
    k -= z < grid.take(k)
    s = z - grid.take(k)
    c = coef.take(k, axis=0)
    ss = s * s
    vals = c[:, 3] + c[:, 2] * s + c[:, 1] * ss + c[:, 0] * (ss * s)
    # the cutoff is exactly 1.0 on [-n, n]
    tail = np.abs(z) > n
    if tail.any():
        vals[tail] *= cutoff(z[tail], np.broadcast_to(n, z.shape)[tail])
    return vals


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-interval cubic of the monotone (PCHIP) interpolant of y on the
    strictly increasing x (at least three nodes), highest power first, one
    row per interval: scipy's ``PchipInterpolator(x, y).c.T``, bit for bit.

    Interior slopes are the weighted harmonic mean of Fritsch and Butland
    (SIAM J. Sci. Stat. Comput. 5, 1984), zero where the secants change sign
    or vanish; the end slopes are the shape-preserving one-sided three-point
    formula. The float arithmetic follows scipy 1.17's
    ``_find_derivatives``, ``_edge_case`` and ``CubicHermiteSpline``
    operation for operation.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    flat = np.sign(m[1:]) * np.sign(m[:-1]) <= 0.0
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # a flat node may divide by zero here; np.where discards its value
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])],
                        np.where(flat, 0.0, inner),
                        [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.column_stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope from the end interval (h0, m0) and
    its neighbour (h1, m1), zeroed where its sign disagrees with m0 and
    capped at 3 m0. scipy caps only where m0 and m1 differ in sign; with
    equal signs |d| < 2 |m0|, so the cap cannot bind there."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    return 3.0 * m0 if abs(d) > 3.0 * abs(m0) else d


def _convolve_bump(spec: DriftSpec, xs: np.ndarray, n: int):
    """int_{-1}^{1} b(x - s/n) bump(s) ds on each x, split at the s where the
    drift argument crosses zero (the log kink sits there).

    A row with n|x| >= 1 has one live half of full width, whose nodes and
    bump values (``_FULL_NODES``, ``_FULL_BUMP``) are the same for every
    such row and are built once; only the rows with n|x| < 1 build their
    own."""
    w = _GAUSS_W
    split = np.clip(n * xs, -1.0, 1.0)
    total = np.zeros_like(xs)
    # where n|x| >= 1 the other half has zero width: its term would be 0
    # times a sum, finite unless b overflows at its one argument
    # x - sign(x)/n. Each family's |b| grows with |z| where it can overflow,
    # and the live half reaches larger |z|, so it is not finite then either.
    # Adding a zero to a total that starts at +0.0 changes no bit
    full = np.abs(split) == 1.0
    fvals = drift_eval(spec, xs[full, None] - _FULL_NODES / n) * _FULL_BUMP
    # einsum, not BLAS's gemv, whose rounding follows its thread count; the
    # half width is 1.0, and 1.0 times the sum is the sum
    total[full] += np.einsum("ij,j->i", fvals, w)
    part = ~full
    split = split[part]
    for a, b in ((-np.ones_like(split), split), (split, np.ones_like(split))):
        half = 0.5 * (b - a)
        nodes = a[:, None] + half[:, None] * (_GAUSS_X[None, :] + 1.0)
        fvals = drift_eval(spec, xs[part, None] - nodes / n) * bump(nodes)
        total[part] += half * np.einsum("ij,j->i", fvals, w)
    if spec.odd:
        # the bump is even, so an odd drift's convolution is exactly 0 at 0,
        # not quadrature roundoff
        total[xs == 0.0] = 0.0
    return total


def mollify(spec: DriftSpec, n: int) -> MollifiedDrift:
    return MollifiedDrift(spec, n)


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
        bn = mollify(spec, n)
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
