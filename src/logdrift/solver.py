"""Spectral exponential-Euler integrator for the mild equation.

State lives in sine-mode coefficients. One step reads, mode by mode,

    u_j(t_{k+1}) = exp(-j^2 pi^2 dt / 2) * (u_j(t_k) + dt * bhat_j)
                   + gamma_j * shat_j,

where bhat is the transform of the nodal drift values, shat the transform of
sigma(u) times the nodal back-transform of the modal noise increments, and
gamma_j = sqrt((1 - exp(-j^2 pi^2 dt)) / (j^2 pi^2 dt)) matches the additive
case's per-step modal variance exactly. For a constant sigma the
back-and-forth transform is the identity (the sine matrix squares to
(n_modes + 1) I), so shat = sigma * xi, the modal increments scaled; with no
diffusion the noise term is absent. The semigroup factor is exact, so there
is no stability restriction; dt * (pi^2 n_modes^2 / 2) is recorded as a
stiffness diagnostic only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import (
    DiffusionSpec, DriftSpec, drift_eval, mollifier_levels, mollify,
    sigma_eval, stack_levels,
)
from .fields import Field, fft_lag_product, rows_matmul, sine_matrix
from .noise import NoiseRealization, sample_noise

__all__ = [
    "Grid", "Trajectory", "solve_path", "solve_l2_ensemble",
    "coupled_uniqueness_experiment", "factorization_check",
]

DEFAULT_BLOWUP_THRESHOLD = 1.0e8
MAX_FACTORIZATION_ALPHA = 0.25  # factorization_check needs 0 < alpha < this


@dataclass(frozen=True)
class Grid:
    n_modes: int
    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_modes < 4:
            raise ValueError("n_modes must be >= 4")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("T must be positive and finite")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def stiffness(self) -> float:
        return self.dt * 0.5 * math.pi ** 2 * self.n_modes ** 2

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    l2_times: np.ndarray       # every computed time
    l2_series: np.ndarray      # L2 norm at every computed time
    blown_up: bool
    blowup_time: Optional[float]
    coeffs: np.ndarray         # (computed steps + 1, n_modes)


def _as_drift(drift) -> Optional[Callable]:
    if drift is None:
        return None
    if isinstance(drift, DriftSpec):
        return lambda z: drift_eval(drift, z)
    if callable(drift):
        return drift
    raise TypeError("drift must be None, a DriftSpec, or a callable")


def _propagators(n_modes: int, dt: float):
    lam2 = (np.arange(1, n_modes + 1) * np.pi) ** 2 * dt  # j^2 pi^2 dt
    E = np.exp(-0.5 * lam2)
    gamma = np.sqrt(-np.expm1(-lam2) / lam2)
    return E, gamma


def _scheme(drift, diffusion, grid: Grid) -> Callable:
    """The exponential-Euler step advance(U, xi) on (P, N) coefficient rows;
    xi holds the rows' (P, N) modal increments of the step. Nodal values
    U @ B are formed only when the drift or a DiffusionSpec reads them.
    Every product goes through fields.rows_matmul."""
    drift_fn = _as_drift(drift)
    if isinstance(diffusion, (int, float)):
        diffusion = float(diffusion)
    elif not (diffusion is None or isinstance(diffusion, DiffusionSpec)):
        raise TypeError("diffusion must be None, a DiffusionSpec, or a constant")
    spec = diffusion if isinstance(diffusion, DiffusionSpec) else None
    nodal = drift_fn is not None or spec is not None
    B = sine_matrix(grid.n_modes)
    inv_np1 = 1.0 / (grid.n_modes + 1)
    E, gamma = _propagators(grid.n_modes, grid.dt)
    dt = grid.dt

    def advance(U, xi):
        vals = rows_matmul(U, B) if nodal else None
        if drift_fn is not None:
            U = U + dt * (rows_matmul(drift_fn(vals), B) * inv_np1)
        if spec is not None:
            shat = rows_matmul(sigma_eval(spec, vals) * rows_matmul(xi, B),
                               B) * inv_np1
            return E * U + gamma * shat
        if diffusion is None:
            return E * U
        return E * U + gamma * (diffusion * xi)

    return advance


def _check_noise(grid: Grid, noise: NoiseRealization):
    if noise.n_modes < grid.n_modes or noise.n_steps != grid.n_steps:
        raise ValueError("noise realization does not cover the grid")
    if abs(noise.dt - grid.dt) > 1e-12 * grid.dt:
        raise ValueError("noise step does not match the grid step")


def _march(u0: Field, drift, diffusion, grid: Grid, Xi: np.ndarray,
           threshold: float, history: bool = False):
    """The time loop: advance one path per row of Xi (P, n_modes, n_steps).

    A row breaches at the first step whose L2 norm is non-finite or above
    threshold; it stops advancing there and its l2 tail is frozen at the
    breach value. The loop ends when no row is active. The step's products
    go through fields.rows_matmul, so each row's bits are those of any
    batch holding it, one-row batches included. Returns (l2, blown,
    blow_steps, states): l2 is (P, n_steps+1), blow_steps the breach step or
    -1, and states the (steps run + 1, P, n_modes) coefficients with history,
    else None.
    """
    advance = _scheme(drift, diffusion, grid)
    P = Xi.shape[0]
    U = np.tile(u0.coeffs, (P, 1))
    l2 = np.empty((P, grid.n_steps + 1))
    l2[:, 0] = np.sqrt(np.sum(U * U, axis=1))
    states = np.empty((grid.n_steps + 1,) + U.shape) if history else None
    if history:
        states[0] = U
    blown = np.zeros(P, dtype=bool)
    blow_steps = np.full(P, -1)
    # ~(norms <= limit) flags NaN, +inf and norms above threshold in one
    # comparison; with the float max first, min ignores a NaN threshold, which
    # no finite norm exceeds
    limit = min(sys.float_info.max, threshold)
    # every row until the first breach, then the surviving rows' indices
    active = slice(None)
    steps = grid.n_steps
    for k in range(grid.n_steps):
        # a (P, N, K) batch's step is strided; BLAS takes contiguous rows
        Un = advance(U[active], np.ascontiguousarray(Xi[active, :, k]))
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.sqrt(np.sum(Un * Un, axis=1))
        U[active] = Un
        l2[active, k + 1] = norms
        if history:
            states[k + 1] = U
        bad = ~(norms <= limit)
        if bad.any():
            rows = np.arange(P)[active]
            hit = rows[bad]
            blown[hit] = True
            blow_steps[hit] = k + 1
            l2[hit, k + 2:] = l2[hit, k + 1][:, None]
            active = rows[~bad]
            if active.size == 0:
                steps = k + 1
                break
    return l2, blown, blow_steps, states[:steps + 1] if history else None


def solve_path(u0: Field, drift, diffusion, grid: Grid,
               noise: Optional[NoiseRealization] = None,
               threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> Trajectory:
    """Integrate one path, keeping the coefficients and the L2 norm at every
    step. Stops early when the norm leaves [0, threshold] or turns
    non-finite; the first offending time is recorded as blowup_time.

    noise may be omitted only for deterministic runs (diffusion None)."""
    if u0.n != grid.n_modes:
        raise ValueError("field resolution does not match the grid")
    if noise is None:
        if diffusion is not None:
            raise ValueError("stochastic runs need a noise realization")
        Xi = np.zeros((1, grid.n_modes, grid.n_steps))
    else:
        _check_noise(grid, noise)
        Xi = noise.increments[None, :grid.n_modes]
    l2, blown, _, states = _march(u0, drift, diffusion, grid, Xi, threshold,
                                  history=True)
    k_end = states.shape[0] - 1
    times = grid.times()
    return Trajectory(
        l2_times=times[:k_end + 1],
        l2_series=l2[0, :k_end + 1],
        blown_up=bool(blown[0]),
        blowup_time=float(times[k_end]) if blown[0] else None,
        coeffs=states[:, 0],
    )


def solve_l2_ensemble(u0: Field, drift, diffusion, grid: Grid,
                      noise_batch: np.ndarray,
                      threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Integrate a batch of paths carrying only the L2 norm series.

    noise_batch has shape (paths, n_modes, n_steps). Returns (l2, blown,
    blow_steps): l2 is (paths, n_steps+1) with blown rows frozen at their
    breach value, blow_steps holds the breaching step index or -1.
    """
    Xi = np.asarray(noise_batch, dtype=float)
    if Xi.shape[1:] != (grid.n_modes, grid.n_steps):
        raise ValueError("noise batch shape does not match the grid")
    return _march(u0, drift, diffusion, grid, Xi, threshold)[:3]


def coupled_uniqueness_experiment(u0: Field, drift_spec: DriftSpec, diffusion,
                                  grid: Grid, seed: int,
                                  levels: Sequence[int],
                                  threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Solve with mollified drifts b_n under one noise realization and one u0;
    report sup_t L2 differences between consecutive levels.

    The levels are the rows of one march: row i runs under level i's
    mollified drift, all rows' drifts looked up at once from the joined
    tables (``stack_levels``), and every row reads the same noise. Returns
    {"levels": ..., "pairs": [(n, n'), ...], "sup_diffs": [...]}. Raises
    RuntimeError naming the first level to blow up (the lowest on a tie): the
    mollified critical drift is globally Lipschitz, so a blow-up here means
    the configuration is wrong.
    """
    levels = mollifier_levels(levels)
    if not levels:
        raise ValueError("need at least one mollification level")
    if u0.n != grid.n_modes:
        raise ValueError("field resolution does not match the grid")
    # rows match levels until the first breach, which raises below
    drift = stack_levels([mollify(drift_spec, n) for n in levels])
    noise = sample_noise(seed, grid.n_modes, grid.n_steps, grid.dt)
    Xi = np.broadcast_to(noise.increments,
                         (len(levels),) + noise.increments.shape)
    _, blown, blow_steps, states = _march(u0, drift, diffusion, grid, Xi,
                                          threshold, history=True)
    if blown.any():
        i = int(np.argmin(np.where(blown, blow_steps, grid.n_steps + 1)))
        raise RuntimeError(
            f"mollified level n={levels[i]} blew up at "
            f"t={float(grid.times()[blow_steps[i]])}; "
            "critical drifts should stay bounded in this experiment")
    sup_diffs = []
    # a consecutive pair's (steps, N) difference at a time, squared in
    # place, so no (steps, pairs, N) temporary is held
    for i in range(len(levels) - 1):
        d = states[:, i + 1] - states[:, i]
        d *= d
        sup_diffs.append(float(np.max(np.sqrt(np.sum(d, axis=1)))))
    return {"levels": levels, "pairs": list(zip(levels, levels[1:])),
            "sup_diffs": sup_diffs}


def factorization_check(alpha: float, grid: Grid, noise: NoiseRealization) -> float:
    """Relative sup-t L2 gap between the direct stochastic convolution and its
    two-stage form (sin(alpha pi)/pi) J^{alpha-1}(J_alpha sigma), both built
    from the same increments.

    The inner and outer fractional kernels use product integration (exact cell
    moments of (t-s)^(alpha-1) and (s-r)^(-alpha)) against right-endpoint
    semigroup factors, reduced to per-mode lag convolutions: two
    fields.fft_lag_product calls, each over all modes at once.
    """
    if not 0.0 < alpha < MAX_FACTORIZATION_ALPHA:
        raise ValueError("alpha must lie in (0, 1/4)")
    _check_noise(grid, noise)
    N, K, dt = grid.n_modes, grid.n_steps, grid.dt
    gamma = _propagators(N, dt)[1]
    GS = gamma * noise.increments[:N].T  # (K, N); sigma == 1 needs no transform
    # direct convolution V_{k+1} = E V_k + GS_k: the solver's constant-sigma
    # step from zero data, with no drift and no breach threshold
    V = solve_path(Field.zero(N), None, 1.0, grid, noise, math.inf).coeffs
    # inner: Z_m = sum_{l<m} g_{m-l} E^{m-l-1} GS_l, cell-exact (s-r)^(-alpha)
    q = np.arange(1, K + 1, dtype=float)
    g = dt ** -alpha * (q ** (1.0 - alpha) - (q - 1.0) ** (1.0 - alpha)) / (1.0 - alpha)
    # outer: Y_k = c sum_{m<=k} v_{k-m} E^{k-m} Z_m, cell-exact (t-s)^(alpha-1)
    r = np.arange(K, dtype=float)
    v = dt ** alpha * ((r + 1.0) ** alpha - r ** alpha) / alpha
    c = math.sin(alpha * math.pi) / math.pi
    Y = np.zeros((K + 1, N))
    logE = -0.5 * (np.arange(1, N + 1) * np.pi) ** 2 * dt
    Epow = np.exp(logE[:, None] * r)  # (N, K): row j holds E_j^r
    Z = fft_lag_product(g * Epow, GS.T, 0, K)
    Y[1:] = c * fft_lag_product(v * Epow, Z, 0, K).T
    num = np.max(np.sqrt(np.sum((Y - V) ** 2, axis=1)))
    den = np.max(np.sqrt(np.sum(V * V, axis=1)))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return float(num / den)
