import hashlib

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from logdrift.fields import (
    _BLOCK,
    DIRECT_CONVOLUTION_MAX_LAGS,
    Field,
    _fast_length,
    coeffs_to_values,
    fft_lag_product,
    lag_convolver,
    rows_matmul,
    simpson_weights,
    sine_matrix,
    values_to_coeffs,
)


def test_sine_matrix_orthogonality():
    for n in (5, 16, 63, 128):
        B = sine_matrix(n)
        assert np.allclose(B @ B, (n + 1) * np.eye(n), atol=1e-10 * (n + 1))


def test_transform_round_trip():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(97)
    back = coeffs_to_values(values_to_coeffs(v))
    assert np.max(np.abs(back - v)) < 1e-12


def test_parseval_norm_agreement():
    f = Field.random_l2(200, norm=3.0, seed=5)
    by_coeffs = np.sqrt(np.sum(f.coeffs**2))
    by_values = np.sqrt(np.sum(f.values**2) / (f.n + 1))
    assert by_coeffs == pytest.approx(by_values, rel=1e-13)
    assert f.l2_norm() == pytest.approx(3.0, rel=1e-12)


def test_single_mode_field_matches_analytic():
    n, k = 31, 3
    f = Field.mode(n, k, amplitude=2.0)
    x = np.arange(1, n + 1) / (n + 1)
    expect = 2.0 * np.sqrt(2.0) * np.sin(k * np.pi * x)
    assert np.max(np.abs(f.values - expect)) < 1e-13
    assert f.l2_norm() == pytest.approx(2.0)


def test_field_shape_validation():
    with pytest.raises(ValueError):
        Field(4, values=np.zeros(5))
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field.mode(4, 5)


def test_field_views_are_linear():
    a = Field.random_l2(50, 1.0, seed=1)
    b = Field.random_l2(50, 2.0, seed=2)
    d = Field.from_coeffs(a.coeffs - b.coeffs)
    assert np.allclose(d.values, a.values - b.values)
    s = Field.from_coeffs(3.0 * a.coeffs)
    assert s.l2_norm() == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("n_points", [2, 3, 4, 5, 6, 7, 8, 11, 100, 101])
def test_simpson_weights_integrate_cubics_exactly(n_points):
    # 4th-order rule: exact on polynomials of degree <= 3 for any point count
    xs = np.linspace(0.0, 2.0, n_points)
    w = simpson_weights(n_points, xs[1] - xs[0])
    for k, exact in [(0, 2.0), (1, 2.0), (2, 8.0 / 3.0), (3, 4.0)]:
        if n_points == 2 and k >= 2:
            continue  # trapezoid fallback is only first order
        assert w @ xs**k == pytest.approx(exact, rel=1e-12)


def test_simpson_weights_smooth_accuracy():
    xs = np.linspace(0.0, 1.0, 201)
    w = simpson_weights(201, xs[1] - xs[0])
    assert w @ np.exp(xs) == pytest.approx(np.e - 1.0, rel=1e-10)
    xs = np.linspace(0.0, 1.0, 202)  # odd interval count hits the 3/8 tail
    w = simpson_weights(202, xs[1] - xs[0])
    assert w @ np.exp(xs) == pytest.approx(np.e - 1.0, rel=1e-10)


def test_dirichlet_boundary_is_implicit():
    # the sine basis vanishes at both endpoints, so any field extends by 0
    f = Field.random_l2(64, 1.0, seed=9)
    k = np.arange(1, 65)
    for edge in (0.0, 1.0):
        val = np.sum(f.coeffs * np.sqrt(2.0) * np.sin(k * np.pi * edge))
        assert abs(val) < 1e-12


@pytest.mark.parametrize("size", [1026, 1537, 2048, 2049, 4097, 8192])
def test_lag_convolver_fft_path_matches_scipy_signal_bit_for_bit(size):
    # the products past lag_convolver's direct branch: fft_lag_product from 0
    assert size - 1 > DIRECT_CONVOLUTION_MAX_LAGS
    rng = np.random.default_rng(size)
    x, w = rng.standard_normal(size), rng.standard_normal(size)
    ref = fftconvolve(x, w)[:size]
    got = fft_lag_product(x, w, 0, size)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_fast_length_is_scipys_real_transform_size():
    # fft_lag_product's transform sizes, and with them its bits, are those
    # of scipy.signal.fftconvolve's real transforms
    targets = range(1, 70_000)
    assert ([_fast_length(n) for n in targets]
            == [next_fast_len(n, True) for n in targets])


@pytest.mark.parametrize("size", [16, 1000, 2049])
@pytest.mark.parametrize("P", [1, 2, 33])
def test_fft_lag_product_rows_equal_their_single_calls(P, size):
    rng = np.random.default_rng(P * size)
    x = rng.standard_normal((P, size))
    w, ws = rng.standard_normal(size), rng.standard_normal((P, size))
    for start, stop in ((0, size), (size // 2, size + size // 3)):
        shared = fft_lag_product(x, w, start, stop)
        own = fft_lag_product(x, ws, start, stop)
        assert shared.shape == own.shape == (P, stop - start)
        for r in range(P):
            np.testing.assert_array_equal(
                shared[r].view(np.uint64),
                fft_lag_product(x[r], w, start, stop).view(np.uint64))
            np.testing.assert_array_equal(
                own[r].view(np.uint64),
                fft_lag_product(x[r], ws[r], start, stop).view(np.uint64))


@pytest.mark.parametrize("nx, nw, start, stop",
                         [(5, 9, 3, 12), (512, 1025, 513, 1025),
                          (1000, 2001, 1001, 2001), (300, 40, 0, 339),
                          (64, 100, 30, 50), (1000, 1000, 500, 600)])
def test_fft_lag_product_window_matches_np_convolve(nx, nw, start, stop):
    # the last two windows end before the convolution does, so a size fit
    # to stop alone would wrap its tail onto them
    rng = np.random.default_rng(nx + nw)
    x, w = rng.standard_normal(nx), rng.standard_normal(nw)
    got = fft_lag_product(x, w, start, stop)
    ref = np.convolve(x, w)[start:stop]
    scale = np.convolve(np.abs(x), np.abs(w))[start:stop]
    n = max(nx, nw)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 2 * n * np.finfo(float).eps * scale)


# sha256 of the direct branch's (x * w)[:size] for the standard normal x and
# w drawn from default_rng(size)
DIRECT_DIGESTS = {
    16: "964e948d3ec166a54d6bbe9095ed2a21103d3113244069a72d53234b0587b562",
    1024: "99db6b5238dbe832800f8e59c622fd6c00281b0b70f061839e2100119888d4c1",
    1025: "627951198fd93529aae69f60e214ce6e7af919bc775e8c1462b11303adfdd205",
}


@pytest.mark.parametrize("size", [16, 1024, 1025])
def test_lag_convolver_direct_path_is_causal_bit_for_bit(size):
    assert size - 1 <= DIRECT_CONVOLUTION_MAX_LAGS
    rng = np.random.default_rng(size)
    x, w = rng.standard_normal(size), rng.standard_normal(size)
    convolve = lag_convolver(w)
    out = convolve(x)
    assert hashlib.sha256(out.tobytes()).hexdigest() == DIRECT_DIGESTS[size]
    # the forward error bound of a sum of size products, twice over: for the
    # blocked product and for np.convolve's own rounding
    scale = np.convolve(np.abs(x), np.abs(w))[:size]
    ref = np.convolve(x, w)[:size]
    assert np.all(np.abs(out - ref) <= 2 * size * np.finfo(float).eps * scale)
    for j in (1, 2, size // 2, size - 1):
        spiked = x.copy()
        spiked[j] = 1e38
        np.testing.assert_array_equal(convolve(spiked)[:j].view(np.uint64),
                                      out[:j].view(np.uint64))
        # a shorter x is the same prefix
        np.testing.assert_array_equal(convolve(x[:j]).view(np.uint64),
                                      out[:j].view(np.uint64))


@pytest.mark.parametrize("size", [16, 129, 1024, 1025])
@pytest.mark.parametrize("P", [1, 2, 3, 33])
def test_lag_convolver_direct_rows_equal_their_single_calls(P, size):
    # 129 and 1025 end in a partial block
    rng = np.random.default_rng(P * size)
    x, w = rng.standard_normal((P, size)), rng.standard_normal(size)
    convolve = lag_convolver(w)
    batch = convolve(x)
    assert batch.shape == (P, size)
    for row, single in zip(batch, x):
        np.testing.assert_array_equal(row.view(np.uint64),
                                      convolve(single).view(np.uint64))


def test_lag_convolver_raises_above_its_maximum_length():
    lag_convolver(np.ones(DIRECT_CONVOLUTION_MAX_LAGS + 1))
    with pytest.raises(ValueError, match="exceed"):
        lag_convolver(np.ones(DIRECT_CONVOLUTION_MAX_LAGS + 2))


def test_blas_block_product_rows_do_not_depend_on_the_batch():
    # lag_convolver's direct branch and the solver's step rest on this: a
    # row of rows_matmul(X[:M], D) keeps its bits for every M and every
    # offset of the row in X, at the direct product's block and at the
    # solver's sine matrices, whose widths are not all multiples of 8
    rng = np.random.default_rng(7)
    matrices = [rng.standard_normal((_BLOCK, _BLOCK))] + [
        sine_matrix(n) for n in (*range(4, 41), 60, 66, 100)]
    for D in matrices:
        X = rng.standard_normal((1100, D.shape[0]))
        whole = rows_matmul(X, D)
        for M in [*range(1, 40), 64, 127, 128, 129, 255, 513, 1099]:
            for lo in (0, 1, 2, 5):
                if lo + M <= len(X):
                    np.testing.assert_array_equal(
                        rows_matmul(X[lo:lo + M], D).view(np.uint64),
                        whole[lo:lo + M].view(np.uint64),
                        err_msg=f"n={D.shape[0]} M={M} lo={lo}")
