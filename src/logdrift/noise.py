"""Modal space-time white noise with exact dyadic refinement.

Increments attach to sine modes: xi_{j,k} ~ N(0, dt), independent across
(mode, step), addressed by (seed, mode, step). Each (seed, mode) pair owns a
counter-based stream, and values are realized through a Brownian-bridge
cascade on an integer lattice whose quantum is a power of two: children are
parent +- offset in exact integer arithmetic (integral float64 values below
2^53), and the scaling (integer times power-of-two quantum) is exact, so a
run at 2 n_steps reproduces the coarser run's increments as bit-identical
pairwise sums. The lattice quantization perturbs each increment by at most
half a quantum (about 2^-27 relative), far below Monte Carlo resolution.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "NoiseRealization", "sample_noise", "derive_path_seeds",
    "IsometryReport", "ito_isometry_convergence_check",
]


@dataclass(frozen=True)
class NoiseRealization:
    seed: int
    n_modes: int
    n_steps: int
    dt: float
    increments: np.ndarray  # (n_modes, n_steps), row j-1 holds mode j


def _gaussians(raw: np.ndarray) -> np.ndarray:
    """Standard normals from raw 64-bit draws; shifts ``raw`` in place."""
    # strictly inside (0,1) and exactly symmetric under k -> 2^53-1-k
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u *= 2.0 ** -53
    u += 2.0 ** -54
    return ndtri(u, out=u)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _stream_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(2, np.uint64) for each i in
    indices, every i in [0, 2^32).

    numpy's pool mixing, run on all indices at once: every index's entropy
    is the seed's little-endian 32-bit words followed by i, and the hash
    constants advance the same way for every index, so each step is one
    uint32 array operation (wrapping mod 2^32, as the C code does).
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    n = len(indices)
    entropy = np.empty((len(words) + 1, n), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = indices
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ r >> 16

    pad = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else pad)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _INIT_B
    state = np.empty((n, 4), dtype=np.uint32)
    for i in range(4):
        value = pool[i] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


# at least the default ensemble (200 path seeds), so the reports that run one
# ensemble after another on the same seeds derive each seed's keys once;
# 256 entries of 64 modes are 256 KiB
_KEY_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_KEY_MEMO_SIZE)
def _philox_keys(seed: int, n_modes: int) -> np.ndarray:
    """The keys of modes 1..n_modes from _stream_keys, derived once per
    (seed, n_modes) and shared read-only: a stream's key never depends on
    n_steps."""
    keys = _stream_keys(seed, np.arange(1, n_modes + 1))
    keys.flags.writeable = False
    return keys


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
    # one generator per call, not per module: callers run on worker threads
    bitgen = np.random.Philox(0)
    # the state of a freshly keyed Philox: counter 0, empty buffer; plain
    # ints, so the setter converts no numpy scalars
    keyed = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": keyed,
             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    raw = np.empty((n_modes, n_steps), dtype=np.uint64)
    for j, key in enumerate(_philox_keys(seed, n_modes).tolist()):
        keyed["key"] = key
        bitgen.state = state
        raw[j] = bitgen.random_raw(n_steps)
    z = _gaussians(raw)
    # lattice coordinates are integral float64: every sum stays below 2^53
    # (checked per level), so the cascade is exact
    ints = np.rint(z[:, :m] * (sigma0 / q0))
    for level in range(1, v + 1):
        q = math.ldexp(q0, -level)
        sigma_off = math.sqrt(dt * 2.0 ** (v - level) / 2.0)
        lo = m << (level - 1)
        offs = z[:, lo:2 * lo] * (sigma_off / q)
        np.rint(offs, out=offs)
        kids = np.empty((n_modes, lo, 2))
        np.add(ints, offs, out=kids[:, :, 0])
        np.subtract(ints, offs, out=kids[:, :, 1])
        ints = kids.reshape(n_modes, 2 * lo)
        if np.max(np.abs(ints)) >= 2 ** 52:
            raise OverflowError("lattice coordinates left the exact-float range")
    # + 0.0 turns a -0.0 coordinate into the +0.0 an integer lattice gives
    return (ints + 0.0) * math.ldexp(q0, -v)


def sample_noise(seed: int, n_modes: int, n_steps: int, dt: float) -> NoiseRealization:
    """Modal white-noise increments, shape (n_modes, n_steps).

    Deterministic in (seed, mode, step): mode rows are independent streams,
    so realizations with more modes or more (dyadically refined) steps agree
    with coarser ones on the shared indices.
    The seed is a nonnegative integer; a non-integral one raises TypeError.
    """
    if n_modes < 1 or n_steps < 1:
        raise ValueError("n_modes and n_steps must be >= 1")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    seed = operator.index(seed)
    out = _mode_increments(seed, n_modes, n_steps, dt)
    out.flags.writeable = False
    return NoiseRealization(seed, n_modes, n_steps, dt, out)


def derive_path_seeds(master_seed: int, start: int, stop: int) -> list[int]:
    """The ensemble seeds of paths i in range(start, stop), hashed in one
    vectorized pass: path i's seed is
    SeedSequence([master_seed, i]).generate_state(1, np.uint64)[0]. Needs
    integers 0 <= start <= stop <= 2^32."""
    start, stop = operator.index(start), operator.index(stop)
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError("need 0 <= start <= stop <= 2^32")
    keys = _stream_keys(operator.index(master_seed), np.arange(start, stop))
    return keys[:, 0].tolist()


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
    Carlo noise. Needs at least two realizations, so that the standard
    error is an estimate.
    """
    if realization_count < 2:
        raise ValueError("need at least two realizations")
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
    # x is a numpy float, so that x ** 4 overflows to inf, not to an error
    with np.errstate(over="ignore", invalid="ignore"):
        for path_seed in derive_path_seeds(seed, 0, realization_count):
            real = sample_noise(path_seed, n_modes, n_steps, dt)
            for a, d in enumerate(diffs):
                x = np.sum(d.T * real.increments)
                sums[a] += x * x
                sq_sums[a] += x ** 4
        est = sums / realization_count
        var = np.maximum(sq_sums / realization_count - est * est, 0.0)
    se = np.sqrt(var / realization_count)
    # an infinite standard error would admit any estimate
    within = bool(np.all(np.isfinite(est) & np.isfinite(se))
                  and np.all(np.abs(est - targets) <= 3.0 * se + 1e-300))
    decreasing = bool(np.all(np.diff(est) <= 1e-12 * (1.0 + est[:-1])))
    return IsometryReport(tuple(targets), tuple(est), tuple(se), within, decreasing)
