"""Modal space-time white noise with exact dyadic refinement.

Increments attach to sine modes: xi_{j,k} ~ N(0, dt), independent across
(mode, step), addressed by (seed, mode, step). Each (seed, mode) pair owns a
counter-based stream, and values are realized through a Brownian-bridge
cascade on an integer lattice whose quantum is a power of two: children are
parent +- offset in exact integer arithmetic, and the float conversions
(integer times power-of-two quantum) are exact, so a run at 2 n_steps
reproduces the coarser run's increments as bit-identical pairwise sums. The
lattice quantization perturbs each increment by at most half a quantum
(about 2^-27 relative), far below Monte Carlo resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "NoiseRealization", "sample_noise", "derive_path_seed",
    "IsometryReport", "ito_isometry_convergence_check",
]


@dataclass(frozen=True)
class NoiseRealization:
    seed: int
    n_modes: int
    n_steps: int
    dt: float
    increments: np.ndarray  # (n_modes, n_steps), row j-1 holds mode j

    def modal_paths(self) -> np.ndarray:
        """W^j at the grid times, including t = 0: shape (n_modes, n_steps+1)."""
        out = np.zeros((self.n_modes, self.n_steps + 1))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out

    def coarsened(self) -> "NoiseRealization":
        """The same path on the twice-coarser grid (exact pairwise sums)."""
        if self.n_steps % 2:
            raise ValueError("cannot coarsen an odd number of steps")
        pair = self.increments[:, 0::2] + self.increments[:, 1::2]
        pair.flags.writeable = False
        return NoiseRealization(self.seed, self.n_modes, self.n_steps // 2,
                                2.0 * self.dt, pair)


def _gaussians(raw: np.ndarray) -> np.ndarray:
    # strictly inside (0,1) and exactly symmetric under k -> 2^53-1-k
    u = (raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54
    return ndtri(u)


def _mode_increments(seed: int, n_modes: int, n_steps: int, dt: float) -> np.ndarray:
    """Increments of modes 1..n_modes via the integer-lattice bridge cascade.

    Mode j draws from its own stream Philox(SeedSequence([seed, j])).
    n_steps = m * 2^v with m odd: m root increments at step dt*2^v, then v
    halving levels, each run on all modes at once. Stream row layout is
    level-major (roots first, then each level's offsets), so coarser runs
    consume a prefix of finer runs' rows.
    """
    v = (n_steps & -n_steps).bit_length() - 1
    m = n_steps >> v
    delta0 = dt * 2.0 ** v
    sigma0 = math.sqrt(delta0)
    q0 = math.ldexp(1.0, math.frexp(sigma0)[1] - 27)
    raw = np.empty((n_modes, n_steps), dtype=np.uint64)
    for j in range(1, n_modes + 1):
        raw[j - 1] = np.random.Philox(
            np.random.SeedSequence([seed, j])).random_raw(n_steps)
    z = _gaussians(raw)
    ints = np.rint(z[:, :m] * (sigma0 / q0)).astype(np.int64)
    for level in range(1, v + 1):
        q = math.ldexp(q0, -level)
        sigma_off = math.sqrt(dt * 2.0 ** (v - level) / 2.0)
        lo = m << (level - 1)
        offs = np.rint(z[:, lo:2 * lo] * (sigma_off / q)).astype(np.int64)
        kids = np.empty((n_modes, 2 * lo), dtype=np.int64)
        kids[:, 0::2] = ints + offs
        kids[:, 1::2] = ints - offs
        ints = kids
        if np.max(np.abs(ints)) >= 2 ** 52:
            raise OverflowError("lattice coordinates left the exact-float range")
    return ints * math.ldexp(q0, -v)


def sample_noise(seed: int, n_modes: int, n_steps: int, dt: float) -> NoiseRealization:
    """Modal white-noise increments, shape (n_modes, n_steps).

    Deterministic in (seed, mode, step): mode rows are independent streams,
    so realizations with more modes or more (dyadically refined) steps agree
    with coarser ones on the shared indices.
    """
    if n_modes < 1 or n_steps < 1:
        raise ValueError("n_modes and n_steps must be >= 1")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    out = _mode_increments(int(seed), n_modes, n_steps, dt)
    out.flags.writeable = False
    return NoiseRealization(int(seed), n_modes, n_steps, dt, out)


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """Stable per-path seed for ensemble runs."""
    ss = np.random.SeedSequence([int(master_seed), int(path_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class IsometryReport:
    targets: tuple        # discrete int int |f_n - f|^2 per sequence member
    estimates: tuple      # MC mean of the squared stochastic integral
    std_errors: tuple
    within_3se: bool
    decreasing: bool


def ito_isometry_convergence_check(f_sequence, f_limit, realization_count: int,
                                   dt: float, seed: int = 0) -> IsometryReport:
    """Monte Carlo check that E[ (int (f_n - f) dW)^2 ] matches the discrete
    squared L2 distance, and that both fall along the sequence.

    Integrands are modal coefficient arrays of shape (n_steps, n_modes),
    piecewise constant in time. Realizations are coupled (common noise per
    path index) so the decrease along the sequence is not masked by Monte
    Carlo noise.
    """
    f_limit = np.asarray(f_limit, dtype=float)
    if f_limit.ndim != 2 or not np.all(np.isfinite(f_limit)):
        raise ValueError("integrands must be finite (n_steps, n_modes) arrays")
    diffs = []
    for fn in f_sequence:
        fn = np.asarray(fn, dtype=float)
        if fn.shape != f_limit.shape or not np.all(np.isfinite(fn)):
            raise ValueError("integrands must be finite (n_steps, n_modes) arrays")
        diffs.append(fn - f_limit)
    n_steps, n_modes = f_limit.shape
    targets = [float(np.sum(d * d) * dt) for d in diffs]
    sums = np.zeros(len(diffs))
    sq_sums = np.zeros(len(diffs))
    for i in range(realization_count):
        real = sample_noise(derive_path_seed(seed, i), n_modes, n_steps, dt)
        for a, d in enumerate(diffs):
            x = float(np.sum(d.T * real.increments))
            sums[a] += x * x
            sq_sums[a] += x ** 4
    est = sums / realization_count
    var = np.maximum(sq_sums / realization_count - est * est, 0.0)
    se = np.sqrt(var / realization_count)
    within = bool(np.all(np.abs(est - targets) <= 3.0 * se + 1e-300))
    decreasing = bool(np.all(np.diff(est) <= 1e-12 * (1.0 + est[:-1])))
    return IsometryReport(tuple(targets), tuple(est), tuple(se), within, decreasing)
