"""Gronwall-type comparison bounds with logarithmic nonlinearities.

Everything here revolves around one scalar Volterra inequality on [0, 1]
with constant coefficients:

    f(t) <= M + int_0^t c1 f(s) ds + int_0^t c2 g(f(s)) ds
              + int_0^t (t-s)^{-alpha} c3 f(s) ds,

where g is either the superlinear x log_+ x or the vanishing-data
x log_+(1/x). An independent oracle marches the maximal solution of the
corresponding integral EQUALITY forward in Picard-solved pieces (product
integration for the weakly singular kernel), each started from the
reflection of the finished history or, on a refined grid, from the coarse
oracle, the problems of a batch in lockstep, one singular kernel per
lockstep batch. Each closed-form bound is then a machine-checkable
domination statement against that oracle. For x log_+ x one Bihari
bound, built from (c1, c2, c3, alpha) alone, covers the regular and the
singular problems; it never reads the oracle.

The Osgood classifier decides whether 1/b integrates at infinity for a
positive drift b, separating drifts that admit global comparison solutions
from those that explode.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import beta as beta_fn, betainc

from .fields import fft_lag_product, lag_convolver, log_plus

MAX_PICARD_ITERATIONS = 10_000
PICARD_TOL = 1e-10
OSGOOD_TAIL_RATIO = 0.75
# rows x grid points x 8 B of one lockstep batch: a default corpus (100
# problems on the refined grid, K = 512) marches as one batch
_LOCKSTEP_BYTES = 1 << 20
# the most steps of one Picard-solved piece, which also spans at most a
# quarter of the grid: fewer passes settle a shorter piece
_PIECE_STEPS = 512


class OracleConvergenceError(RuntimeError):
    """Raised when Picard iteration fails to settle; never silently ignored."""


def superlinear_g(x):
    """x * log_+(x), the superlinear logarithmic nonlinearity."""
    x = np.asarray(x, dtype=float)
    return x * log_plus(x)


def vanishing_g(x):
    """x * log_+(1/x), continuously extended by 0 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = (x > 0) & (x < 1)
    out[mask] = -x[mask] * np.log(x[mask])
    return out


_NONLINEARITIES = {"superlinear": superlinear_g, "vanishing": vanishing_g}


@dataclass
class GronwallProblem:
    """Data of one Volterra inequality on [0, 1].

    M is the constant forcing; c1, c2, c3 are the constant coefficients, all
    finite and nonnegative; alpha in [0, 1/2] is the kernel singularity; the
    oracle and all bounds are evaluated on the uniform grid with spacing
    grid_dt, which must be 1/n for an integer n >= 1 up to rounding, so
    that n steps span [0, 1] and the halved grid's even nodes are its nodes.
    """

    M: float
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    alpha: float = 0.0
    grid_dt: float = 1.0 / 256.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 0.5:
            raise ValueError("alpha must lie in [0, 1/2]")
        if not (0.0 < self.grid_dt <= 1.0
                and math.isclose(round(1.0 / self.grid_dt) * self.grid_dt, 1.0)):
            raise ValueError("need grid_dt = 1/n for an integer n >= 1")
        for name in ("M", "c1", "c2", "c3"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, round(1.0 / self.grid_dt) + 1)

    def refined(self) -> "GronwallProblem":
        """The same problem on the halved grid."""
        return dataclasses.replace(self, grid_dt=self.grid_dt / 2.0)


def singular_weights(n_steps: int, alpha: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Product-integration node weights for int_0^{t_k} (t_k-s)^{-alpha} f(s) ds.

    f is taken piecewise linear; the kernel moments over each interval are
    exact. Returns per-lag weights (wl, wr) for the left/right node of an
    interval at lag m = k - l >= 1; at alpha = 0 both reduce to dt/2
    (trapezoid), which anchors the convention.
    """
    # in place, each (n_steps+1,) array built in the order of
    # m0 = (b^(1-alpha) - a^(1-alpha)) / (1-alpha),
    # m1 = b m0 - (b^(2-alpha) - a^(2-alpha)) / (2-alpha),
    # wr = m1 / dt and wl = m0 - wr
    b = np.arange(0, n_steps + 1, dtype=float)
    a = b - 1.0
    np.maximum(a, 0.0, out=a)
    a *= dt
    b *= dt
    wl = b ** (1.0 - alpha)
    wl -= a ** (1.0 - alpha)
    wl /= 1.0 - alpha
    wr = b ** (2.0 - alpha)
    wr -= a ** (2.0 - alpha)
    wr /= 2.0 - alpha
    b *= wl
    np.subtract(b, wr, out=wr)
    wr /= dt
    wl -= wr
    wl[0] = wr[0] = 0.0
    return wl, wr


def _startup_corrections(n_steps: int, alpha: float, dt: float,
                         wl: np.ndarray, wr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace the first-interval weights by an s^{1-alpha} interpolation.

    Solutions of the singular equation start like f(0) + A s^{1-alpha}, so
    piecewise-linear interpolation on [0, dt] costs a whole order of
    accuracy when alpha > 0. Interpolating through the same two endpoints
    with basis {1, s^{1-alpha}} instead needs the moment
    nu_k = int_0^dt (t_k - s)^{-alpha} s^{1-alpha} ds
         = t_k^{2-2 alpha} B(2-alpha, 1-alpha) I_{dt/t_k}(2-alpha, 1-alpha),
    with I the regularized incomplete beta. Returns additive corrections to
    the node-0 and node-1 weights of each row k >= 1, two separate arrays;
    identically zero when alpha = 0.
    """
    if alpha == 0.0:
        return np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    # in place, each (n_steps+1,) array built in the order of
    # scale = t_k^(2-2 alpha) B(2-alpha, 1-alpha) I_x(2-alpha, 1-alpha)
    #         / dt^(1-alpha) = nu_k / dt^(1-alpha),
    # corr0 = (m0_first - scale) - wl and corr1 = scale - wr
    tk = np.arange(n_steps + 1, dtype=float)
    tk *= dt
    t = tk[1:]
    x = np.maximum(t, dt)
    np.divide(dt, x, out=x)
    np.clip(x, 0.0, 1.0, out=x)
    corr1 = np.zeros(n_steps + 1)
    corr1[1:] = t ** (2.0 - 2.0 * alpha)
    corr1[1:] *= float(beta_fn(2.0 - alpha, 1.0 - alpha))
    corr1[1:] *= betainc(2.0 - alpha, 1.0 - alpha, x, out=x)
    corr1 /= dt ** (1.0 - alpha)
    # m0_first, the kernel's moment over the first interval, then corr0
    corr0 = np.zeros(n_steps + 1)
    corr0[1:] = t ** (1.0 - alpha)
    t -= dt
    corr0[1:] -= t ** (1.0 - alpha)
    corr0[1:] /= 1.0 - alpha
    corr0 -= corr1
    corr0 -= wl
    corr1 -= wr
    corr0[0] = corr1[0] = 0.0
    return corr0, corr1


def _cumtrapz(vals: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along the last axis."""
    out = np.empty_like(vals)
    out[..., 0] = 0.0
    np.cumsum(0.5 * dt * (vals[..., 1:] + vals[..., :-1]), axis=-1,
              out=out[..., 1:])
    return out


def volterra_oracle(problems: GronwallProblem | Sequence[GronwallProblem],
                    nonlinearity: str = "superlinear") -> np.ndarray:
    """Maximal solution of the integral equality on the problem grid.

    Regular terms by trapezoid, singular term by product integration: one
    lag convolution with the merged kernel w[m] = wl[m] + wr[m+1]
    (wr[K+1] = 0), its spurious node-0 term wr[k+1] phi_0 moved into the
    forcing. The system is lower triangular, so the oracle marches forward
    (after Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6,
    1985): a span of at most a quarter of the grid's K steps, and at most
    _PIECE_STEPS, is one piece, solved by Picard iteration. The singular
    terms of its finished first node join the forcing, and its other nodes
    go through the blocked, causal direct branch of fields.lag_convolver,
    built once per lockstep batch on a piece's lags. A longer span marches
    its first half, adds that half's singular history to the second through
    one fields.fft_lag_product call over the batch's rows, whose rounding
    thus falls only on nodes after its sources, then marches the second
    half. A piece [a, b] with a >= b - a starts its passes from the odd
    reflection of the finished history, 2 f[a] - f[a - j]; the others, and
    a row whose reflection is not finite, start from the constant f[a].

    problems is one GronwallProblem, whose oracle comes back as a 1-D
    array, or a nonempty sequence of them on one grid_dt. The sequence is
    grouped by singular kernel (its alpha where c3 > 0, none otherwise),
    each group solved in lockstep as the rows of one array, and the rows
    come back in order as one (P, K+1) array: each row leaves the Picard
    passes of a piece at the pass where its own delta settles, and the
    iterating rows share one lag_convolver call per pass, in which each row
    keeps its lone call's bits; so every row equals its problem's single
    call bit for bit.
    Raises OracleConvergenceError if a piece's successive iterates are not
    within PICARD_TOL in sup-norm after MAX_PICARD_ITERATIONS passes, or if
    an iterate leaves the finite range.
    """
    single, batch = _as_batch(problems)
    f = _oracles(batch, _NONLINEARITIES[nonlinearity], None)
    return f[0] if single else f


def oracle_pair(problems: GronwallProblem | Sequence[GronwallProblem],
                nonlinearity: str = "superlinear") -> tuple[np.ndarray, np.ndarray]:
    """(volterra_oracle(problems), the oracle of the refined problems).

    The refined march starts each piece's Picard passes from the coarse
    oracle: node 2i from coarse node i, an odd node from the midpoint of its
    two neighbours, built piece by piece. The stop rule is the same, so the
    refined oracle is the cold one's to within the Picard tolerance, and
    each row of a batch equals its problem's single pair bit for bit.
    """
    single, batch = _as_batch(problems)
    g = _NONLINEARITIES[nonlinearity]
    coarse = _oracles(batch, g, None)
    fine = _oracles([prob.refined() for prob in batch], g, coarse)
    return (coarse[0], fine[0]) if single else (coarse, fine)


def _as_batch(problems) -> tuple[bool, list]:
    """(whether problems is one GronwallProblem, the problems as a list),
    checked to be nonempty and to share one grid_dt."""
    single = isinstance(problems, GronwallProblem)
    batch = [problems] if single else list(problems)
    if not batch:
        raise ValueError("need at least one problem")
    if len({p.grid_dt for p in batch}) > 1:
        raise ValueError("a batch of problems must share one grid_dt")
    return single, batch


def _lockstep_rows(n_points: int) -> int:
    """How many problems on a grid of n_points march as one lockstep batch."""
    return max(1, _LOCKSTEP_BYTES // (8 * n_points))


def _oracles(batch: list, g: Callable, coarse: np.ndarray | None) -> np.ndarray:
    """The (P, K+1) oracles of a batch, marched a lockstep batch of one
    singular kernel at a time and scattered back in order; coarse, if given,
    holds the oracles on the halved grid's coarse nodes."""
    ts = batch[0].times()
    f = np.empty((len(batch), ts.size))
    rows = _lockstep_rows(ts.size)
    # the singular kernel's alpha, or None for the rows without one
    groups = {}
    for r, prob in enumerate(batch):
        groups.setdefault(prob.alpha if prob.c3 > 0 else None, []).append(r)
    for alpha, members in groups.items():
        for lo in range(0, len(members), rows):
            idx = members[lo:lo + rows]
            part = np.empty((len(idx), ts.size))
            _lockstep([batch[r] for r in idx], alpha, g, ts, part,
                      None if coarse is None else coarse[idx])
            f[idx] = part
    return f


def _lockstep(batch: list, alpha: float | None, g: Callable, ts: np.ndarray,
              f: np.ndarray, coarse: np.ndarray | None) -> None:
    """volterra_oracle of a batch on the grid ts, marched into f's rows,
    each piece started from coarse if given (see oracle_pair). alpha is
    the singularity of every row's kernel, or None if no row has c3 > 0."""
    dt = ts[1] - ts[0]
    span = max(1, min(_PIECE_STEPS, (ts.size - 1) // 4))
    c1 = np.array([[p.c1] for p in batch])
    c2 = np.array([[p.c2] for p in batch])
    c3 = np.array([[p.c3] for p in batch])
    f[:] = np.array([[p.M] for p in batch])
    rhs = f.copy()  # forcing plus the singular history of finished pieces
    if alpha is not None:
        wl, wr = singular_weights(ts.size - 1, alpha, dt)
        corr0, corr1 = _startup_corrections(ts.size - 1, alpha, dt, wl, wr)
        spurious = np.append(wr[1:], 0.0)
        w = wl + spurious
        spurious[0] = 0.0
        # a piece convolves its nodes after the first: at most span
        convolve = lag_convolver(w[:span])
        # every iterate keeps f[0] = M, so phi[0] is fixed for the call
        corr0 -= spurious
        rhs += corr0 * (c3 * f[:, :1])
        # the march reads w and corr1 only
        del wl, wr, corr0, spurious
    # trapezoid integral of c1 f + c2 g(f) up to each row's finished node
    area = np.zeros(len(batch))

    def integrand(x, k1, k2):
        """c1 x + c2 g(x), summed in place on g's result."""
        vals = g(x)
        vals *= k2
        vals += k1 * x
        return vals

    def start(a: int, b: int) -> np.ndarray:
        """The first iterate of the piece [a, b], node a finished."""
        if coarse is not None:
            k = np.arange(a, b + 1)
            piece = 0.5 * coarse[:, k // 2] + 0.5 * coarse[:, (k + 1) // 2]
        elif a >= b - a:
            piece = 2.0 * f[:, a:a + 1] - f[:, 2 * a - b:a + 1][:, ::-1]
        else:
            return np.repeat(f[:, a:a + 1], b - a + 1, axis=1)
        lost = ~np.isfinite(piece).all(axis=1)
        piece[lost] = f[lost, a:a + 1]
        piece[:, 0] = f[:, a]
        return piece

    def solve(a: int, b: int) -> None:
        rows = np.arange(len(batch))  # the rows still iterating, in order
        piece = start(a, b)
        base = rhs[:, a + 1:b + 1] + area[:, None]
        k1, k2, k3 = c1, c2, c3  # (rows, 1) columns, narrowed as rows settle
        if alpha is not None:
            # the singular terms of finished nodes join the base: node a's,
            # and after the first piece node 1's startup correction
            base += w[1:b - a + 1] * (c3 * f[:, a:a + 1])
            if a > 0:
                base += corr1[a + 1:b + 1] * (c3 * f[:, 1:2])
        for _ in range(MAX_PICARD_ITERATIONS):
            vals = integrand(piece, k1, k2)
            # base plus _cumtrapz(vals)[:, 1:]
            fn = vals[:, 1:] + vals[:, :-1]
            fn *= 0.5 * dt
            fn.cumsum(axis=1, out=fn)
            fn += base
            if alpha is not None:
                terms = convolve(k3 * piece[:, 1:])
                if a == 0:
                    # node 1 is still iterating in the first piece
                    terms += corr1[1:b + 1] * (k3 * piece[:, 1:2])
                fn += terms
            if not np.isfinite(fn).all():
                raise OracleConvergenceError("Picard iterate left the finite range")
            diff = fn - piece[:, 1:]
            delta = np.abs(diff, out=diff).max(axis=1)
            piece[:, 1:] = fn
            done = delta < PICARD_TOL
            if done.any():
                # settled rows leave the lockstep; the rest close ranks
                fin = piece[done]
                f[rows[done], a + 1:b + 1] = fin[:, 1:]
                area[rows[done]] += _cumtrapz(integrand(fin, k1[done], k2[done]),
                                              dt)[:, -1]
                if done.all():
                    return
                left = ~done
                rows, piece, base = rows[left], piece[left], base[left]
                k1, k2, k3 = k1[left], k2[left], k3[left]
        raise OracleConvergenceError(f"no convergence within {MAX_PICARD_ITERATIONS} "
                                     f"Picard passes (last delta {delta.max():.3e})")

    def march(a: int, b: int) -> None:
        if b - a <= span:
            return solve(a, b)
        m = (a + b) // 2
        march(a, m)
        if alpha is not None:
            # the sources a..m-1 reach the nodes m+1..b at lags 2..b-a
            rhs[:, m + 1:b + 1] += fft_lag_product(
                c3 * f[:, a:m], w[:b - a + 1], m + 1 - a, b + 1 - a)
        march(m, b)

    with np.errstate(over="ignore", invalid="ignore"):
        march(0, ts.size - 1)
    # march's closure holds march: unbound, the batch's arrays go now, not
    # at the next cyclic garbage collection
    del march


def _bound_series(kind: str, prob: GronwallProblem,
                  oracle: np.ndarray | None) -> np.ndarray:
    """Closed-form bound of one family over the whole problem grid.

    With h = M + int_0^t (c1 f + c2 g(f)) nondecreasing, f <= h + c3 K f, K
    the Abel operator of kernel (t-s)^{-alpha}. Substituting this once into
    its own singular term, with K h <= h t^{1-alpha}/(1-alpha) and
    K^2 f <= B(1-alpha, 1-alpha) t^{1-2 alpha} int f (alpha <= 1/2), gives
        f <= C1 M + int_0^t (C2 f + C3 g(f)) on [0, t],
    with the three increasing constants frozen at t:
        C1(t) = 1 + c3 t^{1-alpha}/(1-alpha)
        C2(t) = c1 C1(t) + c3^2 B(1-alpha, 1-alpha) t^{1-2 alpha}
        C3(t) = c2 C1(t)

    vanishing (g = x log_+(1/x)): C(t) M + C(t) int_0^t g(f), f the oracle
      and C(t) = max(C1, C3) e^{C2 t}: Gronwall on the linear part.
    superlinear and singular (g = x log_+ x): the Bihari bound (Bihari, Acta
      Math. Acad. Sci. Hungar. 7, 1956) from the coefficients alone, for
      every M >= 0. y' = C2 y + C3 y log_+ y from y0 = max(C1 M, 1) stays
      at least 1, so log y solves a linear ODE:
        log y(t) = log(y0) e^{C3 t} + C2 t expm1(C3 t)/(C3 t),
      the last factor 1 at C3 t = 0, and y is +inf beyond the double range.
      At c3 = 0 and M >= 1 it is the classical closed form
      M^{e^{c2 t}} exp(e^{c2 t} int_0^t c1 e^{-c2 s} ds).
    oracle is the problem's oracle on the same grid; only vanishing reads it.
    """
    ts = prob.times()
    a = prob.alpha
    C1 = 1.0 + prob.c3 * ts ** (1.0 - a) / (1.0 - a)
    C2 = prob.c1 * C1 + prob.c3**2 * float(beta_fn(1.0 - a, 1.0 - a)) * ts ** (1.0 - 2.0 * a)
    C3 = prob.c2 * C1
    if kind == "vanishing":
        C = np.maximum(C1, C3) * np.exp(C2 * ts)
        return C * (prob.M + _cumtrapz(vanishing_g(oracle), ts[1] - ts[0]))
    log_y0 = np.log(np.maximum(C1 * prob.M, 1.0))
    x = C3 * ts
    with np.errstate(over="ignore", invalid="ignore"):
        # a zero coefficient keeps its term 0 where the factor overflows
        ratio = np.where(x > 0.0, np.expm1(x) / x, 1.0)
        log_bound = (np.where(log_y0 > 0.0, log_y0 * np.exp(x), 0.0)
                     + np.where(C2 > 0.0, C2 * ts * ratio, 0.0))
        return np.exp(log_bound)


@dataclass(frozen=True)
class DominationReport:
    kind: str
    passed: bool
    min_gap: float            # min of bound - oracle over finite-bound nodes
    max_tolerance: float      # largest tolerance granted at those nodes
    richardson_error: float   # sup |coarse - fine| oracle defect
    oracle_max: float
    bound_max: float          # inf where the bound exceeds the double range


# bound family -> the nonlinearity of the oracle it is checked against
_ORACLE_NONLINEARITY = {"superlinear": "superlinear", "singular": "superlinear",
                        "vanishing": "vanishing"}


def check_domination(kind: str,
                     problems: GronwallProblem | Sequence[GronwallProblem]
                     ) -> DominationReport | list[DominationReport]:
    """Grid-wide oracle <= bound check with a self-scaling error budget.

    kind "superlinear" and "singular" name a corpus (make_problem_corpus)
    checked against the superlinear oracle and the one Bihari bound of
    _bound_series; "vanishing" names the vanishing-data family.
    The oracle is recomputed on the halved grid; the pointwise tolerance is
    the observed Richardson defect |f_dt - f_{dt/2}| (about three times the
    fine oracle's own discretization error) plus 1e-7 (1 + bound) for
    round-off. The bounds are exact solutions of a comparison ODE, which at
    c3 = 0 is the inequality itself, so a sharper test would only be
    measuring quadrature bias.
    A node whose bound is +inf is dominated, since the oracle is finite;
    min_gap and max_tolerance are taken over the other nodes, among them
    t = 0, whose bound is always finite.

    problems is one GronwallProblem, whose report comes back alone, or a
    sequence of them on one grid_dt: the batch is solved by oracle_pair, in
    lockstep, and the reports come back in order, each equal to its
    problem's single check.
    """
    if kind not in _ORACLE_NONLINEARITY:
        raise ValueError(f"unknown bound family {kind!r}")
    single, batch = _as_batch(problems)
    reports = []
    # a lockstep batch at a time, so the oracles held stay bounded
    rows = _lockstep_rows(batch[0].refined().times().size)
    for lo in range(0, len(batch), rows):
        coarse, fines = oracle_pair(batch[lo:lo + rows],
                                    _ORACLE_NONLINEARITY[kind])
        for prob, low, fine in zip(batch[lo:lo + rows], coarse, fines):
            bound = _bound_series(kind, prob.refined(), fine)
            defect = np.abs(low - fine[::2])
            tol = defect + 1e-7 * (1.0 + np.abs(bound[::2]))
            gap = bound[::2] - fine[::2]
            # a NaN bound stays in, and fails
            kept = bound[::2] != np.inf
            reports.append(DominationReport(
                kind=kind, passed=bool(np.all(gap[kept] >= -tol[kept])),
                min_gap=float(np.min(gap[kept])),
                max_tolerance=float(np.max(tol[kept])),
                richardson_error=float(np.max(defect)),
                oracle_max=float(np.max(fine)), bound_max=float(np.max(bound))))
    return reports[0] if single else reports


def vanishing_data_decay(eps_values: Sequence[float],
                         grid_dt: float = 1.0 / 1024.0) -> np.ndarray:
    """sup_t over [0, 1] of the vanishing-log oracle when the forcing is
    M = eps, with c1 = c3 = 1/4, c2 = 1/2 and alpha = 1/2.

    As eps -> 0 the supremum decays like a power of eps (with exponent
    strictly between 0 and 1 set by the log term), which is the quantitative
    content of uniqueness from zero initial data.
    """
    problems = [GronwallProblem(M=float(eps), c1=0.25, c2=0.5, c3=0.25,
                                alpha=0.5, grid_dt=grid_dt)
                for eps in eps_values]
    return volterra_oracle(problems, "vanishing").max(axis=1)


@dataclass(frozen=True)
class OsgoodReport:
    classification: str  # "convergent" | "divergent"
    integral_estimate: float
    shell_bounds: tuple
    shell_increments: tuple


def osgood_classifier(drift: Callable[[float], float], z0: float) -> OsgoodReport:
    """Classify whether int_{z0}^inf dz / b(z) converges, for positive b.

    Substituting z = e^w turns the integral into int e^w / b(e^w) dw, which
    is split over shells whose log-boundaries eventually double; geometric
    decay of the shell increments (last ratio below OSGOOD_TAIL_RATIO)
    certifies convergence, with the tail geometrically extrapolated. A flat
    or growing increment sequence is classified divergent. b must be
    positive on the sampled range; b values overflowing to inf contribute 0,
    consistent with a convergent tail.
    """
    # loaded on first call: no CLI scenario calls this function
    from scipy.integrate import quad

    if not (math.isfinite(z0) and z0 > 0):
        raise ValueError("z0 must be finite and positive")
    w0 = math.log(z0)
    if w0 > 300.0:
        raise ValueError("z0 too large to build shells")
    # full shells only: a shell truncated at the float ceiling would bias the
    # last increment ratio toward fake convergence
    bounds = [w0]
    while True:
        nxt = max(2.0 * bounds[-1], bounds[-1] + 1.0)
        if nxt > 700.0:
            break
        bounds.append(nxt)
    for z in np.exp(np.linspace(w0, math.log(1e300) if w0 < 690 else w0, 200)):
        bz = drift(float(z))
        if not (bz > 0 or not math.isfinite(bz)):
            raise ValueError(f"drift must be positive beyond z0; b({z:.3g}) = {bz!r}")

    def integrand(w: float) -> float:
        z = math.exp(w)
        bz = drift(z)
        if not math.isfinite(bz) or bz <= 0:
            return 0.0
        val = z / bz
        return val if math.isfinite(val) else 0.0

    incs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        val, _ = quad(integrand, a, b, limit=200)
        incs.append(max(val, 0.0))
    incs = np.asarray(incs)
    total = float(incs.sum())
    nz = np.nonzero(incs > 1e-300)[0]
    if nz.size == 0 or nz[-1] < incs.size - 2:
        # increments already dead well before the float ceiling
        return OsgoodReport("convergent", total, tuple(bounds), tuple(incs))
    last, prev = incs[-1], incs[-2]
    if prev > 0 and last / prev < OSGOOD_TAIL_RATIO:
        r = last / prev
        return OsgoodReport("convergent", total + float(last * r / (1.0 - r)),
                            tuple(bounds), tuple(incs))
    return OsgoodReport("divergent", math.inf, tuple(bounds), tuple(incs))


def make_problem_corpus(kind: str, count: int, seed: int) -> list[GronwallProblem]:
    """Randomized problems for one inequality family, reproducible by seed.

    kind "superlinear": no singular term, M constant in [1, 5].
    kind "vanishing": all terms, M constant in [0.005, 0.5].
    kind "singular": all terms, M constant in [1, 5].
    Coefficients are uniform in [0, 2], alpha uniform on {0, 1/4, 1/2}.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha = float(rng.choice([0.0, 0.25, 0.5]))
        c1 = float(rng.uniform(0.0, 2.0))
        c2 = float(rng.uniform(0.0, 2.0))
        c3 = float(rng.uniform(0.0, 2.0))
        if kind == "superlinear":
            M, c3 = float(rng.uniform(1.0, 5.0)), 0.0
        elif kind == "vanishing":
            M = float(rng.uniform(0.005, 0.5))
        elif kind == "singular":
            M = float(rng.uniform(1.0, 5.0))
        else:
            raise ValueError(f"unknown corpus kind {kind!r}")
        out.append(GronwallProblem(M=M, c1=c1, c2=c2, c3=c3, alpha=alpha))
    return out


# One problem per kernel regularity class. The alpha = 1/2 member needs the
# finest grid: uniform-mesh product trapezoid converges at O(dt^{3/2}) once
# the startup singularity is corrected, and the 1e-6 sup-norm stability
# target is absolute.
STABILITY_REFERENCE = (
    ("superlinear", GronwallProblem(M=1.5, c1=0.8, c2=0.6, grid_dt=1.0 / 4096.0)),
    ("vanishing", GronwallProblem(M=0.2, c1=0.5, c2=0.7, c3=0.4, alpha=0.25,
                                  grid_dt=1.0 / 4096.0)),
    ("superlinear", GronwallProblem(M=1.2, c1=0.3, c2=0.4, c3=0.5, alpha=0.5,
                                    grid_dt=1.0 / 32768.0)),
)
