import hashlib

import numpy as np
import pytest

from logdrift.fields import nodes, values_to_coeffs
from logdrift.heat_kernel import kernel_eval
from logdrift.noise import (
    derive_path_seed,
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
    np.testing.assert_array_equal(fine.coarsened().increments, coarse.increments)


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
    # cascade ran across modes; the seeds are derive_path_seed(2024, 0) and
    # derive_path_seed(0, 3)
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


def test_coarsen_requires_even_steps():
    with pytest.raises(ValueError):
        sample_noise(1, 2, 9, 0.1).coarsened()


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


def test_modal_paths_start_at_zero_and_accumulate():
    real = sample_noise(5, 3, 10, 0.1)
    paths = real.modal_paths()
    assert paths.shape == (3, 11)
    np.testing.assert_array_equal(paths[:, 0], np.zeros(3))
    np.testing.assert_allclose(np.diff(paths, axis=1), real.increments, rtol=0, atol=1e-15)


def test_sample_noise_validation():
    with pytest.raises(ValueError):
        sample_noise(1, 0, 4, 0.1)
    with pytest.raises(ValueError):
        sample_noise(1, 4, 0, 0.1)
    with pytest.raises(ValueError):
        sample_noise(1, 4, 4, 0.0)
    with pytest.raises(ValueError):
        sample_noise(1, 4, 4, -0.5)


def test_path_seed_derivation():
    s0 = derive_path_seed(99, 0)
    s1 = derive_path_seed(99, 1)
    assert s0 == derive_path_seed(99, 0)
    assert s0 != s1
    assert 0 <= s0 < 2 ** 64


def _kernel_slice_integrand(n_modes, n_steps, dt):
    xs = nodes(n_modes)
    out = np.empty((n_steps, n_modes))
    for k in range(n_steps):
        s = (k + 0.5) * dt
        vals = kernel_eval(1.0 - s + 1e-3, np.full(n_modes, 0.3), xs)
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
