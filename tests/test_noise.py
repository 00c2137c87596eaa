import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from logdrift import noise
from logdrift.fields import values_to_coeffs
from logdrift.heat_kernel import DEFAULT_PARAMS, kernel_images, kernel_series
from logdrift.noise import (
    _KEY_MEMO_SIZE,
    _philox_keys,
    _stream_keys,
    derive_path_seeds,
    ito_isometry_convergence_check,
    sample_noise,
)


def test_dyadic_refinement_is_bit_exact():
    coarse = sample_noise(42, 8, 256, 1.0 / 256.0)
    fine = sample_noise(42, 8, 512, 1.0 / 512.0)
    pair = fine.increments[:, 0::2] + fine.increments[:, 1::2]
    np.testing.assert_array_equal(pair, coarse.increments)


def test_refinement_with_odd_root_count():
    coarse = sample_noise(42, 4, 3 * 64, 1.0 / 192.0)
    fine = sample_noise(42, 4, 6 * 64, 1.0 / 384.0)
    pair = fine.increments[:, 0::2] + fine.increments[:, 1::2]
    np.testing.assert_array_equal(pair, coarse.increments)


# sha256 of increments.tobytes(), recorded before any rewrite of the
# generator; n_steps 12 and 7 have odd root counts 3 and 7
GOLDEN_DIGESTS = [
    ((0, 4, 16, 1.0 / 16.0),
     "cf5bc2b5f398d7769ddddf515f4f740cd2ff7d838197560a9eed5b29e9f9387a"),
    ((12345, 3, 12, 0.25),
     "cf9c68969fa5e62dbde2c2461685de4b7d0116cce2e4c3f3ee4558cbe7f8d6a8"),
    ((2 ** 40 + 7, 5, 7, 0.1),
     "959aa6db67a83f3d981b8142add8363b5435c119e915de81c44075bf1c191cbd"),
    ((909, 8, 64, 1.0 / 64.0),
     "003b9ac26765bcbc5bb928dbb32e287221b0e489d66dd45d2d2610fcc16a1221"),
    # the benchmark's shapes, recorded with the per-mode cascade before the
    # cascade ran across modes; the seeds are path 0's of master 2024 and
    # path 3's of master 0, derive_path_seeds(2024, 0, 1)[0] and
    # derive_path_seeds(0, 3, 4)[0]
    ((5514401882974304769, 64, 256, 1.0 / 256.0),
     "d21c36c5e61fcf07c5dddbb1be963ca53997d9a974530adf824e24848075595b"),
    ((5514401882974304769, 64, 512, 1.0 / 256.0),
     "6e1242dfcdea34c8c9db52c5b7bdd896d56b7a317e5ca01ecb83fb0584d181bc"),
    ((6582426945856704739, 16, 2048, 4.0 / 2048.0),
     "cdad86bf8db689f2d50e77ea43278cb066fdb5225d4c5a4c4667b18b45a7c3c6"),
    # edge cases: one step (a root draw, no halving level) and one mode
    ((31, 6, 1, 0.5),
     "b634d0cd99141134635e7edf39a70b7d4f38583889c62b1089f5231b6a86b4c1"),
    ((77, 1, 96, 1.0 / 96.0),
     "3b2f92b6ba20e69af4c7af8adb5305cfd245903c20a9d6614f80f3b41721733f"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_DIGESTS)
def test_absolute_noise_bits_are_pinned(args, digest):
    real = sample_noise(*args)
    assert hashlib.sha256(real.increments.tobytes()).hexdigest() == digest


# one to five little-endian 32-bit words
KEY_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 3, 2 ** 96 + 5,
             2 ** 128 + 7]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_stream_keys_match_seed_sequence(seed):
    ref = np.array([np.random.SeedSequence([seed, j]).generate_state(2, np.uint64)
                    for j in range(1, 65)])
    keys = _stream_keys(seed, np.arange(1, 65))
    assert keys.dtype == np.uint64
    np.testing.assert_array_equal(keys, ref)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        sample_noise(-1, 4, 8, 0.1)
    with pytest.raises(ValueError):
        _stream_keys(-2 ** 40, np.arange(1, 4))


def test_concurrent_calls_match_serial_and_golden_bits():
    # each call owns its generator; a shared one would interleave streams
    cases = [args for args, _ in GOLDEN_DIGESTS] * 6
    serial = [sample_noise(*args).increments for args in cases]
    # threads race on the key memo's misses as well as its hits
    _philox_keys.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(sample_noise, *args) for args in cases]
            threaded = [f.result(timeout=60).increments for f in futures]
    finally:
        sys.setswitchinterval(interval)
    digests = dict(GOLDEN_DIGESTS)
    for args, a, b in zip(cases, serial, threaded):
        np.testing.assert_array_equal(a, b)
        assert hashlib.sha256(b.tobytes()).hexdigest() == digests[args]


def test_memoised_keys_are_read_only():
    keys = _philox_keys(4321, 5)
    np.testing.assert_array_equal(keys, _stream_keys(4321, np.arange(1, 6)))
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0, 0] = 0
    assert _philox_keys(4321, 5) is keys


def test_key_memo_eviction_keeps_the_bits(monkeypatch):
    seeds = range(1000, 1000 + _KEY_MEMO_SIZE + 5)
    with monkeypatch.context() as m:
        m.setattr(noise, "_philox_keys",
                  lambda seed, n: _stream_keys(seed, np.arange(1, n + 1)))
        fresh = [sample_noise(s, 4, 8, 0.125).increments for s in seeds]
    _philox_keys.cache_clear()
    for _ in range(2):
        for s, ref in zip(seeds, fresh):
            np.testing.assert_array_equal(
                sample_noise(s, 4, 8, 0.125).increments, ref)
    info = _philox_keys.cache_info()
    assert info.currsize == _KEY_MEMO_SIZE
    # the second cycle found its first seeds evicted
    assert info.misses > len(seeds)


def test_mode_extension_keeps_shared_rows():
    base = sample_noise(42, 8, 128, 1.0 / 128.0)
    wide = sample_noise(42, 16, 128, 1.0 / 128.0)
    np.testing.assert_array_equal(wide.increments[:8], base.increments)


def test_increment_statistics():
    real = sample_noise(7, 64, 16384, 1e-3)
    x = real.increments
    assert abs(x.var() / 1e-3 - 1.0) < 0.01
    assert abs(x.mean()) < 4.0 * np.sqrt(1e-3 / x.size)
    stacked = x[:6].reshape(3, -1)
    corr = np.corrcoef(stacked)
    assert np.max(np.abs(corr[np.triu_indices(3, 1)])) < 0.01


def test_determinism_and_immutability():
    a = sample_noise(123, 8, 64, 0.01)
    b = sample_noise(123, 8, 64, 0.01)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert not a.increments.flags.writeable
    with pytest.raises(ValueError):
        a.increments[0, 0] = 0.0


def test_sample_noise_validation():
    with pytest.raises(ValueError):
        sample_noise(1, 0, 4, 0.1)
    with pytest.raises(ValueError):
        sample_noise(1, 4, 0, 0.1)
    with pytest.raises(ValueError):
        sample_noise(1, 4, 4, 0.0)
    with pytest.raises(ValueError):
        sample_noise(1, 4, 4, -0.5)


def test_non_integral_seeds_are_rejected():
    for seed in (2.5, 2.0, float("inf"), np.float64(3.0)):
        with pytest.raises(TypeError):
            sample_noise(seed, 4, 8, 0.1)
        with pytest.raises(TypeError):
            derive_path_seeds(seed, 0, 1)
    # integer types index as the same seed
    real = sample_noise(np.uint64(42), 4, 8, 0.1)
    assert type(real.seed) is int
    np.testing.assert_array_equal(real.increments,
                                  sample_noise(42, 4, 8, 0.1).increments)
    assert derive_path_seeds(np.int64(99), 0, 1) == derive_path_seeds(99, 0, 1)


def derive_path_seed(master_seed, path_index):
    """Path path_index's seed, from numpy's SeedSequence itself."""
    ss = np.random.SeedSequence([master_seed, path_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_vectorized_path_seeds_match_derive_path_seed(seed):
    # masters of one to five 32-bit words; path 0 and the last single-word
    # index included
    assert derive_path_seeds(seed, 0, 70) == [derive_path_seed(seed, i)
                                              for i in range(70)]
    for i in (2 ** 31, 2 ** 32 - 1):
        assert derive_path_seeds(seed, i, i + 1) == [derive_path_seed(seed, i)]
    assert derive_path_seeds(seed, 5, 5) == []


def test_vectorized_path_seeds_reject_bad_ranges():
    for start, stop in ((-1, 3), (4, 3), (0, 2 ** 32 + 1)):
        with pytest.raises(ValueError):
            derive_path_seeds(7, start, stop)
    with pytest.raises(ValueError):
        derive_path_seeds(-1, 0, 3)
    for args in ((2.5, 0, 3), (7, 0, 2.5)):
        with pytest.raises(TypeError):
            derive_path_seeds(*args)


def test_path_seed_derivation():
    s0, s1 = derive_path_seeds(99, 0, 2)
    assert [s0] == derive_path_seeds(99, 0, 1)
    assert s0 != s1
    assert 0 <= s0 < 2 ** 64


def _kernel_slice_integrand(n_modes, n_steps, dt):
    xs = np.arange(1, n_modes + 1) / (n_modes + 1)
    out = np.empty((n_steps, n_modes))
    for k in range(n_steps):
        s = (k + 0.5) * dt
        t = 1.0 - s + 1e-3
        # the form the switch time picks at t; its bits fix the estimates
        kernel = kernel_images if t < DEFAULT_PARAMS.switch_time else kernel_series
        vals = kernel(t, np.full(n_modes, 0.3), xs)
        out[k] = values_to_coeffs(vals)
    return out


def test_isometry_check_on_scaled_kernel_slices():
    n_modes, n_steps, dt = 16, 32, 1.0 / 32.0
    F = _kernel_slice_integrand(n_modes, n_steps, dt)
    seq = [(1.0 + 1.0 / n) * F for n in (1, 2, 4, 8)]
    rep = ito_isometry_convergence_check(seq, F, 200, dt, seed=11)
    norm2 = float(np.sum(F * F) * dt)
    for n, tgt in zip((1, 2, 4, 8), rep.targets):
        assert tgt == pytest.approx(norm2 / n ** 2, rel=1e-12)
    assert rep.within_3se
    assert rep.decreasing


def test_isometry_check_coupled_zero():
    F = _kernel_slice_integrand(8, 16, 1.0 / 16.0)
    rep = ito_isometry_convergence_check([F, F.copy()], F, 5, 1.0 / 16.0)
    assert rep.estimates == (0.0, 0.0)
    assert rep.within_3se and rep.decreasing


def test_isometry_check_validation():
    F = np.zeros((4, 3))
    bad = F.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ito_isometry_convergence_check([bad], F, 3, 0.1)
    with pytest.raises(ValueError):
        ito_isometry_convergence_check([np.zeros((4, 2))], F, 3, 0.1)
    # with no realization the estimates are NaN, with one the standard
    # error reads 0
    for count in (0, 1):
        with pytest.raises(ValueError, match="at least two realizations"):
            ito_isometry_convergence_check([F + 1.0], F, count, 0.1)
