"""Spatial fields on [0, 1] with Dirichlet boundary, in dual nodal/spectral form.

The working basis is e_n(x) = sqrt(2) sin(n pi x), orthonormal in L2(0, 1).
A field over n interior nodes x_i = i/(n+1) carries nodal values and sine
coefficients linked by the symmetric sine matrix; the two views are exact
inverses of each other up to roundoff, and the discrete L2 norm
(sum of values^2)/(n+1) equals the coefficient norm sum(coeffs^2).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

# the most lags of lag_convolver's blocked direct product; longer products
# go through fft_lag_product
DIRECT_CONVOLUTION_MAX_LAGS = 1024
# points per block of the direct product: with scipy-openblas 0.3.31 a row of
# X[:M] @ D keeps its bits for every M >= 2 at an inner dimension of 64, 128
# or 256, not at 512 (tests/test_fields.py pins it at this size)
_BLOCK = 128


@lru_cache(maxsize=64)
def sine_matrix(n: int) -> np.ndarray:
    """Return B with B[k, i] = sqrt(2) sin((k+1)(i+1) pi / (n+1)).

    values = coeffs @ B and coeffs = values @ B / (n+1); B is symmetric and
    B @ B = (n+1) I, so the round trip is exact up to roundoff.
    """
    if n < 1:
        raise ValueError("need at least one interior node")
    idx = np.arange(1, n + 1)
    B = np.sqrt(2.0) * np.sin(np.outer(idx, idx) * (np.pi / (n + 1)))
    B.setflags(write=False)
    return B


def lag_convolver(w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (x * w)[:L], the lower-triangular lag convolution by w, for x of
    length L <= n, w's length, and n - 1 <= DIRECT_CONVOLUTION_MAX_LAGS.

    It is a blocked lower-triangular Toeplitz product, built here once: w is
    cut into _BLOCK-point blocks, the diagonal block D_0 upper triangular and
    the others full, and x may be (L,) or (P, L). Each block diagonal d is
    one matrix product over all rows and block positions, added in
    increasing d, and a lone row runs as two, since BLAS takes a
    matrix-vector kernel for one row. So each row of a (P, L) call equals its
    own 1-D call bit for bit, and for finite x the rounding is causal: the
    products 0 * x[j] above the diagonal are exactly 0, so entry k reads only
    x[:k+1]. Longer products go through fft_lag_product.
    """
    n = w.size
    if n - 1 > DIRECT_CONVOLUTION_MAX_LAGS:
        raise ValueError(f"{n} weights exceed the direct product's "
                         f"{DIRECT_CONVOLUTION_MAX_LAGS + 1}")
    nb = -(-n // _BLOCK)
    # blocks[d, j, k] = w[d B + k - j]: row j of block d is a window of w
    # padded with a block of zeros in front (negative lags) and behind
    padded = np.zeros((nb + 1) * _BLOCK)
    padded[_BLOCK:_BLOCK + n] = w
    windows = sliding_window_view(padded, _BLOCK)[1:nb * _BLOCK + 1]
    blocks = np.ascontiguousarray(windows.reshape(nb, _BLOCK, _BLOCK)[:, ::-1])
    return lambda x: _toeplitz_product(blocks, x)


def fft_lag_product(x: np.ndarray, w: np.ndarray, start: int,
                    stop: int) -> np.ndarray:
    """Entries start..stop-1 of the linear convolution x * w along the last
    axis, leading axes broadcast and each row independent of the others: one
    irfft(rfft(x, S) * rfft(w, S)) at the smallest fast size S whose
    wrap-around lands below start. Its rounding is not causal: every entry
    carries error of order eps * max|x| * max|w|."""
    size = _fast_length(max(stop, x.shape[-1] + w.shape[-1] - 1 - start))
    return irfft(rfft(x, size) * rfft(w, size), size)[..., start:stop]


def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n >= 1: the real-transform size
    that scipy.fft.next_fast_len(n, True) returns."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 at or above n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_product(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """lag_convolver's direct branch: x (L,) or (P, L) times the lower-
    triangular Toeplitz matrix whose _BLOCK-point blocks are blocks."""
    L = x.shape[-1]
    rows = x.reshape(-1, L)
    if rows.shape[0] == 1:
        rows = np.repeat(rows, 2, axis=0)
    P, nb = rows.shape[0], -(-L // _BLOCK)
    # (block, row, point), so each diagonal's sources are one contiguous matrix
    xb = np.zeros((nb, P, _BLOCK))
    by_row = xb.transpose(1, 0, 2)
    full, tail = divmod(L, _BLOCK)
    by_row[:, :full] = rows[:, :full * _BLOCK].reshape(P, full, _BLOCK)
    if tail:
        by_row[:, full, :tail] = rows[:, full * _BLOCK:]
    yb = (xb.reshape(-1, _BLOCK) @ blocks[0]).reshape(nb, P, _BLOCK)
    for d in range(1, nb):
        yb[d:] += (xb[:nb - d].reshape(-1, _BLOCK) @ blocks[d]).reshape(
            nb - d, P, _BLOCK)
    y = yb.transpose(1, 0, 2).reshape(P, nb * _BLOCK)[:, :L]
    return y[0] if x.ndim == 1 else y[:x.shape[0]]


def log_plus(z):
    """log of max(1, |z|), elementwise."""
    return np.log(np.maximum(1.0, np.abs(z)))


def values_to_coeffs(values: np.ndarray) -> np.ndarray:
    n = values.shape[-1]
    return values @ sine_matrix(n) / (n + 1)


def coeffs_to_values(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.shape[-1]
    return coeffs @ sine_matrix(n)


def simpson_weights(n_points: int, dx: float) -> np.ndarray:
    """Quadrature weights for n_points equispaced samples with spacing dx.

    Composite Simpson when the interval count is even; otherwise Simpson on
    the leading part plus a 3/8 rule on the last three intervals, keeping
    fourth-order accuracy for any n_points >= 2.
    """
    if n_points < 2:
        raise ValueError("need at least two sample points")
    m = n_points - 1  # interval count
    w = np.zeros(n_points)
    if m == 1:
        w[:] = 0.5
    elif m % 2 == 0:
        w[0] = w[-1] = 1.0 / 3.0
        w[1:-1:2] = 4.0 / 3.0
        w[2:-1:2] = 2.0 / 3.0
    elif m == 3:
        w[:] = [3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
    else:
        head = simpson_weights(n_points - 3, 1.0)
        w[: n_points - 3] += head
        w[n_points - 4 :] += [3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
    return w * dx


class Field:
    """A Dirichlet field over interior nodes, with lazy nodal/spectral views."""

    __slots__ = ("n", "_values", "_coeffs")

    def __init__(self, n: int, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise ValueError("provide nodal values or sine coefficients")
        self.n = int(n)
        self._values = None if values is None else np.asarray(values, dtype=float)
        self._coeffs = None if coeffs is None else np.asarray(coeffs, dtype=float)
        for arr in (self._values, self._coeffs):
            if arr is not None and arr.shape != (self.n,):
                raise ValueError(f"expected shape ({self.n},), got {arr.shape}")

    @classmethod
    def from_values(cls, values) -> "Field":
        values = np.asarray(values, dtype=float)
        return cls(values.shape[0], values=values)

    @classmethod
    def from_coeffs(cls, coeffs) -> "Field":
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(coeffs.shape[0], coeffs=coeffs)

    @classmethod
    def zero(cls, n: int) -> "Field":
        return cls.from_coeffs(np.zeros(n))

    @classmethod
    def mode(cls, n: int, k: int, amplitude: float = 1.0) -> "Field":
        """The single basis function amplitude * e_k on n nodes."""
        if not 1 <= k <= n:
            raise ValueError("mode index out of range")
        if not np.isfinite(amplitude):
            raise ValueError("amplitude must be finite")
        c = np.zeros(n)
        c[k - 1] = amplitude
        return cls.from_coeffs(c)

    @classmethod
    def random_l2(cls, n: int, norm: float, seed: int) -> "Field":
        """A reproducible rough field with prescribed L2 norm.

        Coefficients decay like 1/k so the profile is square integrable but
        not smooth; the draw is fixed by the seed. A negative norm raises.
        """
        if not (np.isfinite(norm) and norm >= 0.0):
            raise ValueError("norm must be finite and nonnegative")
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n) / np.arange(1, n + 1)
        c *= norm / np.sqrt(np.sum(c * c))
        return cls.from_coeffs(c)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = coeffs_to_values(self._coeffs)
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = values_to_coeffs(self._values)
        return self._coeffs

    def l2_norm(self) -> float:
        # Parseval: sum(coeffs^2) == sum(values^2)/(n+1)
        if self._coeffs is not None:
            return float(np.sqrt(np.sum(self._coeffs**2)))
        return float(np.sqrt(np.sum(self._values**2) / (self.n + 1)))

    def __repr__(self) -> str:
        return f"Field(n={self.n}, l2={self.l2_norm():.6g})"
