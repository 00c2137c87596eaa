"""Monte Carlo estimation of path-sup moments of the L2 norm.

Each report estimates E[sup_{t<=T} ||u(t)||^p] over an ensemble of solver
paths whose noise seeds derive from one master seed through the documented
per-path derivation, so reruns with the same configuration are bit-identical.
On top of the plain estimator sit three structured probes: how the moments of
the pure stochastic convolution scale in the diffusion amplitude, whether an
epsilon-weighted split between the sup term and the time integral is feasible,
and whether mollifying the drift leaves the moments bounded uniformly in the
mollification level.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import (
    DiffusionSpec, DriftSpec, MollifiedDrift, MollifierParams, mollifier_levels,
    mollify,
)
from .fields import Field
from .noise import derive_path_seed, sample_noise
from .solver import DEFAULT_BLOWUP_THRESHOLD, Grid, solve_l2_ensemble

__all__ = [
    "MomentReport", "mc_sup_moment", "convolution_scaling_report",
    "epsilon_split_report", "mollified_uniformity_report",
    "restart_window_report",
]

# paths simulated per batch; bounds the resident noise array
_CHUNK = 128

# least ensemble with a meaningful standard error; least moment order
MIN_ENSEMBLE = 30
MIN_ORDER = 1.0

CONSTANT_FEASIBILITY_CAP = 1.0e9


def _describe(obj) -> str:
    """Stable text form of a coefficient argument for config fingerprints."""
    if obj is None:
        return "none"
    if isinstance(obj, (int, float)):
        return repr(float(obj))
    if isinstance(obj, (DriftSpec, DiffusionSpec)):
        return repr(obj)
    if isinstance(obj, MollifiedDrift):
        return f"mollified[n={obj.params.n}]:{obj.spec!r}"
    return f"callable:{getattr(obj, '__name__', type(obj).__name__)}"


def _fingerprint(**config) -> str:
    blob = ";".join(f"{k}={v}" for k, v in sorted(config.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class MomentReport:
    p: float
    T: float
    ensemble: int
    estimate: float          # nan when every path blew up
    std_error: float
    blowup_fraction: float
    fingerprint: str

    def __post_init__(self):
        if self.p < MIN_ORDER:
            raise ValueError("moment order must be >= 1")
        if self.ensemble < 1:
            raise ValueError("ensemble must be positive")
        if not 0.0 <= self.blowup_fraction <= 1.0:
            raise ValueError("blowup_fraction must lie in [0, 1]")
        if math.isfinite(self.estimate) and self.estimate < 0.0:
            raise ValueError("estimate must be nonnegative")
        if math.isfinite(self.std_error) and self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")

    @property
    def valid(self) -> bool:
        return math.isfinite(self.estimate)


def _ensemble_chunks(drift, diffusion, u0: Field, grid: Grid, ensemble: int,
                     master_seed: int, threshold: float):
    """Solve the ensemble in path-index order, yielding per chunk
    (lo, hi, l2, blown, blow_steps) for paths lo..hi-1.

    Chunking only bounds memory. Without diffusion every path is the same
    solve, so one solve is yielded for all paths; its single row broadcasts
    over [lo, hi)."""
    if diffusion is None:
        Xi = np.zeros((1, grid.n_modes, grid.n_steps))
        yield (0, ensemble) + solve_l2_ensemble(u0, drift, diffusion, grid, Xi, threshold)
        return
    for lo in range(0, ensemble, _CHUNK):
        hi = min(lo + _CHUNK, ensemble)
        Xi = np.empty((hi - lo, grid.n_modes, grid.n_steps))
        for i in range(lo, hi):
            Xi[i - lo] = sample_noise(derive_path_seed(master_seed, i),
                                      grid.n_modes, grid.n_steps,
                                      grid.dt).increments
        yield (lo, hi) + solve_l2_ensemble(u0, drift, diffusion, grid, Xi, threshold)


def _path_reductions(drift, diffusion, u0: Field, grid: Grid, ensemble: int,
                     master_seed: int, threshold: float, terminal: bool):
    """Per-path sup (or terminal) L2 norm and blow-up flags."""
    out = np.empty(ensemble)
    blown = np.zeros(ensemble, dtype=bool)
    for lo, hi, l2, b, _ in _ensemble_chunks(drift, diffusion, u0, grid, ensemble,
                                             master_seed, threshold):
        blown[lo:hi] = b
        out[lo:hi] = l2[:, -1] if terminal else np.max(l2, axis=1)
    return out, blown


def _report_config(p: float, drift, diffusion, u0: Field, grid: Grid,
                   ensemble: int, master_seed: int, threshold: float) -> dict:
    """Check a moment report's arguments; return its fingerprint fields."""
    if p < MIN_ORDER:
        raise ValueError("moment order must be >= 1")
    if ensemble < MIN_ENSEMBLE:
        raise ValueError(f"ensemble must be >= {MIN_ENSEMBLE} for a meaningful "
                         "standard error")
    if u0.n != grid.n_modes:
        raise ValueError("field resolution does not match the grid")
    return dict(p=p, n_modes=grid.n_modes, n_steps=grid.n_steps,
                ensemble=ensemble, master_seed=master_seed,
                threshold=threshold, drift=_describe(drift),
                diffusion=_describe(diffusion),
                u0=hashlib.sha256(u0.coeffs.tobytes()).hexdigest()[:12])


def _report(values: np.ndarray, blown: np.ndarray, T: float,
            config: dict) -> MomentReport:
    """The report over one window; config holds the fingerprint fields
    other than T."""
    alive = ~blown
    if alive.any():
        x = values[alive] ** config["p"]
        est = float(np.mean(x))
        se = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.nan
    else:
        est = se = math.nan
    return MomentReport(p=float(config["p"]), T=T, ensemble=config["ensemble"],
                        estimate=est, std_error=se,
                        blowup_fraction=float(np.mean(blown)),
                        fingerprint=_fingerprint(T=T, **config))


def mc_sup_moment(p: float, drift, diffusion, u0: Field, grid: Grid,
                  ensemble: int, master_seed: int,
                  threshold: float = DEFAULT_BLOWUP_THRESHOLD,
                  terminal: bool = False) -> MomentReport:
    """Estimate E[sup_{t<=T} ||u(t)||^p] over `ensemble` independently seeded
    paths. Path i uses the noise seed derived from (master_seed, i).

    The sup runs over every computed step including t = 0. Blown-up paths are
    excluded from the estimate and counted in blowup_fraction; if every path
    blows up the estimate is nan (report invalid). terminal=True replaces the
    running sup by the final-time norm, which is what the additive-noise
    variance identity pins down exactly.
    """
    config = _report_config(p, drift, diffusion, u0, grid, ensemble,
                            master_seed, threshold)
    values, blown = _path_reductions(drift, diffusion, u0, grid, ensemble,
                                     master_seed, threshold, terminal)
    return _report(values, blown, grid.T, dict(config, terminal=terminal))


def _constant_field_norm(grid: Grid, value: float) -> float:
    return Field.from_values(np.full(grid.n_modes, value)).l2_norm()


def _convolution_moment(p: float, sigma: float, grid: Grid, ensemble: int,
                        master_seed: int) -> float:
    """E[sup_t ||u(t)||^p] of the pure stochastic convolution: zero drift,
    zero data and constant diffusion sigma. Raises RuntimeError when a path
    breaches the blow-up threshold."""
    sup, blown = _path_reductions(None, sigma, Field.zero(grid.n_modes), grid,
                                  ensemble, master_seed,
                                  DEFAULT_BLOWUP_THRESHOLD, False)
    if blown.any():
        raise RuntimeError("a pure-convolution path breached the blow-up "
                           "threshold; the configuration is off scale")
    return float(np.mean(sup ** p))


def convolution_scaling_report(p: float, sigma_base: float,
                               lambdas: Sequence[float], grid: Grid,
                               ensemble: int, master_seed: int):
    """Scaling skeleton of the pure stochastic convolution for p > 8.

    With zero drift, zero initial data, and constant diffusion lam * sigma_base
    under common noise seeds, LHS(lam) = E[sup_t ||u_lam(t)||^p] must follow
    the exact power law LHS(lam)/LHS(1) = lam^p, and the ratio of LHS to
    RHS(lam) = int_0^T ||lam sigma_base||^p dt is one lam-free constant.
    Returns one row per requested lam with both diagnostics.
    """
    if p <= 8.0:
        raise ValueError("the scaling skeleton needs moment order p > 8")
    if not sigma_base > 0.0:
        raise ValueError("sigma_base must be positive")
    lam_list = [float(lam) for lam in lambdas]
    if any(lam <= 0.0 for lam in lam_list):
        raise ValueError("scaling factors must be positive")
    base = _convolution_moment(p, sigma_base, grid, ensemble, master_seed)
    norm1 = _constant_field_norm(grid, sigma_base)
    rows = []
    for lam in lam_list:
        left = base if lam == 1.0 else _convolution_moment(
            p, lam * sigma_base, grid, ensemble, master_seed)
        right = grid.T * (lam * norm1) ** p
        over_base = left / base
        rows.append({
            "lam": lam,
            "lhs": left,
            "rhs": right,
            "ratio": left / right,
            "lhs_over_base": over_base,
            "power_rel_err": abs(over_base - lam ** p) / lam ** p,
        })
    return rows


def epsilon_split_report(p: float, epsilons: Sequence[float],
                         sigma_value: float, grid: Grid, ensemble: int,
                         master_seed: int):
    """Feasibility of E[sup conv^p] <= eps E[sup||sigma||^p] + C int term
    for moment orders p <= 8 and constant diffusion.

    For each epsilon the smallest feasible constant is
    C_eps = max(0, (LHS - eps A) / B) with A = ||sigma||^p and
    B = T ||sigma||^p; a row is infeasible when C_eps exceeds
    CONSTANT_FEASIBILITY_CAP. C_eps is recorded, not asserted against any
    target value.
    """
    if not 1.0 <= p <= 8.0:
        raise ValueError("the split holds for moment orders 1 <= p <= 8")
    if sigma_value < 0.0:
        raise ValueError("sigma_value must be nonnegative")
    eps_list = [float(e) for e in epsilons]
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("epsilon values must be positive")
    if sigma_value == 0.0:
        left = 0.0
        A = B = 0.0
    else:
        left = _convolution_moment(p, sigma_value, grid, ensemble, master_seed)
        norm = _constant_field_norm(grid, sigma_value)
        A = norm ** p
        B = grid.T * norm ** p
    rows = []
    for eps in eps_list:
        slack = left - eps * A
        if slack <= 0.0:
            c_eps = 0.0
        elif B > 0.0:
            c_eps = slack / B
        else:
            c_eps = math.inf
        rows.append({
            "epsilon": eps,
            "lhs": left,
            "sup_term": eps * A,
            "c_epsilon": c_eps,
            "feasible": c_eps <= CONSTANT_FEASIBILITY_CAP,
        })
    return rows


def mollified_uniformity_report(levels: Sequence[int], p: float,
                                drift_spec: DriftSpec, diffusion, u0: Field,
                                grid: Grid, ensemble: int, master_seed: int,
                                threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Moment estimates across mollification levels under common seeds.

    Every level runs the same ensemble with the same per-path seeds, so the
    spread across levels reflects the drift approximation alone. Mollified
    drifts are globally Lipschitz and bounded, so a blow-up at any level means
    the configuration is wrong and raises rather than reports.
    """
    levels = mollifier_levels(levels)
    rows = []
    for n in levels:
        bn = mollify(drift_spec, MollifierParams(n=n))
        rep = mc_sup_moment(p, bn, diffusion, u0, grid, ensemble, master_seed,
                            threshold)
        if rep.blowup_fraction > 0.0:
            raise RuntimeError(f"mollified level n={n} produced blow-ups; "
                               "bounded drifts cannot do that in this regime")
        rows.append({"level": n, "estimate": rep.estimate,
                     "std_error": rep.std_error})
    return rows


def restart_window_report(p: float, drift, diffusion, u0: Field, grid: Grid,
                          ensemble: int, master_seed: int,
                          threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Moments of the sup over [0, T] and over [T, 2T] from one ensemble run
    on the doubled horizon.

    The scheme is Markov in (state, remaining increments): continuing past T
    is bitwise the same as restarting from u(T) with the time-shifted tail of
    the noise, so a finite first-window moment propagating to a finite
    second-window moment is exactly the restart structure. Returns the pair
    (first_window, second_window) of reports; the first excludes only paths
    that blew up by T, the second excludes all blown paths.
    """
    config = _report_config(p, drift, diffusion, u0, grid, ensemble,
                            master_seed, threshold)
    K = grid.n_steps
    full = Grid(grid.n_modes, 2.0 * grid.T, 2 * K)
    sup1 = np.empty(ensemble)
    sup2 = np.empty(ensemble)
    blown1 = np.zeros(ensemble, dtype=bool)
    blown2 = np.zeros(ensemble, dtype=bool)
    for lo, hi, l2, b, steps in _ensemble_chunks(drift, diffusion, u0, full, ensemble,
                                                 master_seed, threshold):
        sup1[lo:hi] = np.max(l2[:, :K + 1], axis=1)
        sup2[lo:hi] = np.max(l2[:, K:], axis=1)
        blown1[lo:hi] = b & (steps <= K)
        blown2[lo:hi] = b
    return (_report(sup1, blown1, grid.T, dict(config, window="first")),
            _report(sup2, blown2, 2.0 * grid.T, dict(config, window="second")))
