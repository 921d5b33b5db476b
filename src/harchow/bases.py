"""Basis construction for the series long-run variance estimator.

The interleaved cosine/sine (Fourier) family, and its orthonormalization
under the kernel inner product ``a' C_T b / T^2``, enter only through sums.
:func:`series_sums` gives the score sums of ``run_test`` and of the Monte
Carlo engine alike, and :func:`series_root` the limit simulator's root;
both factor one ``K x K`` kernel Gram, cut to one kernel-feasible K, and
give each vector's norm-factor term, the mean square of its demeaned
("tilde") values. The dense forms (:func:`fourier_matrix`, the kernel, its
Gram, :func:`gram_transform`, :func:`feasible_k`) are test references no
command runs, kept because the benchmark tracer resolves them.

The Gram comes from the regime-one Fourier sums
``E(h) = sum_{t <= k*} exp(2 pi i h t / T)``, one FFT of the regime-one
indicator. The full-sample sums of the Fourier columns vanish and
``Phi' Phi = T I``, so the kernel Gram of the first K columns is

    G = I / w2^2 + (1/w1^2 - 1/w2^2) P1 / T - (1/w1^3 + 1/w2^3) a a' / T^2

with ``P1 = Phi_1' Phi_1`` the regime-one cross products (entries
``C(a - b) +- C(a + b)`` and ``S(a + b) - S(a - b)``, C and S the real and
imaginary parts of E) and ``a = Phi_1' 1`` the regime-one column sums. The
demeaned Gram ``tilde' tilde / T`` weighs ``a a'`` by
``(1/(w1^2 k*) + 1/(w2^2 (T - k*))) / T`` instead, equal at integer lambda T.

The break splits ``{1, ..., T}`` at ``k* = floor(lambda * T)``: regime one is
``t <= k*`` and regime two is ``t > k*``. Every function here uses that same
index so the kernel matrix, the regime sums and the regression design can
never disagree about regime membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BreakTooExtreme, NotPositiveDefinite
from .numkit import leading_spd_rank, solve_triangular
from .numkit.linalg import _pivot_factor

FOURIER_RAW = "fourier-raw"
FOURIER_TRANSFORMED = "fourier-transformed"

# Pivot threshold for the orthonormalizing transform, stricter than the bare
# factorization tolerance: a pivot at roundoff level would still factor, but
# the resulting column could not satisfy orthonormality to 1e-8 when checked
# against an independently recomputed Gram matrix.
_TRANSFORM_PIVOT_RTOL = 1e-8


def break_index(lam: float, t: int) -> int:
    """Break row ``k* = floor(lambda * T)`` with a guard against FP dust."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"break fraction must lie in (0, 1), got {lam}")
    return int(np.floor(lam * t + 1e-9))


@dataclass(frozen=True)
class BasisSet:
    """A ``T x K`` matrix of basis vectors, column ``j`` sampled at ``t/T``;
    a test reference that the traced dense functions take and return."""

    t: int
    k: int
    lam: float
    family: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        break_index(self.lam, self.t)  # refuses a lambda outside (0, 1)
        if self.matrix.shape != (self.t, self.k):
            raise ValueError("basis matrix shape does not match (T, K)")
        _check_dimensions(self.t, self.k)
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("basis entries must be finite")


@dataclass(frozen=True)
class KernelMatrix:
    """Discrete covariance kernel of the break geometry, a ``T x T`` matrix,
    as the traced test reference :func:`kernel_matrix` returns it."""

    t: int
    lam: float
    matrix: np.ndarray


def fourier_matrix(t: int, k: int, lam: float) -> BasisSet:
    """Interleaved Fourier basis vectors evaluated at ``r = 1/T, ..., T/T``.

    Column order is ``sqrt(2) cos(2 pi r), sqrt(2) sin(2 pi r),
    sqrt(2) cos(4 pi r), sqrt(2) sin(4 pi r), ...``; an odd ``k`` simply
    truncates the interleaved sequence. A test reference kept because the
    benchmark tracer resolves it.
    """
    _check_dimensions(t, k)
    r = np.arange(1, t + 1) / t
    cols = np.empty((t, k))
    for j in range(k):
        freq = j // 2 + 1
        angle = 2.0 * np.pi * freq * r
        cols[:, j] = np.sqrt(2.0) * (np.cos(angle) if j % 2 == 0 else np.sin(angle))
    return BasisSet(t=t, k=k, lam=lam, family=FOURIER_RAW, matrix=cols)


def _check_dimensions(t: int, k: int, family: str = FOURIER_RAW) -> None:
    if t < 4:
        raise ValueError(f"need T >= 4, got {t}")
    if not (1 <= k <= t - 2):
        raise ValueError(f"need 1 <= K <= T - 2, got K={k}, T={t}")
    if family not in (FOURIER_RAW, FOURIER_TRANSFORMED):
        raise ValueError(f"unknown basis family {family!r}")


def kernel_matrix(t: int, lam: float) -> KernelMatrix:
    """Kernel matrix with blocks ``[T 1{i=j} - 1/w] / w^2`` per regime.

    ``w`` is the regime weight (``lambda`` in the first block, ``1 - lambda``
    in the second); entries pairing the two regimes are zero. A test
    reference kept because the benchmark tracer resolves it.
    """
    k_star = _checked_break_row(lam, t)
    c = np.zeros((t, t))
    for start, stop, weight in ((0, k_star, lam), (k_star, t, 1.0 - lam)):
        block = slice(start, stop)
        c[block, block] = -1.0 / weight**3
        idx = np.arange(start, stop)
        c[idx, idx] += t / weight**2
    return KernelMatrix(t=t, lam=lam, matrix=c)


def _checked_break_row(lam: float, t: int) -> int:
    k_star = break_index(lam, t)
    if k_star < 2 or t - k_star < 2:
        raise BreakTooExtreme(
            f"each regime needs at least 2 points, break at {k_star} of {t}"
        )
    return k_star


def _leading_mean(terms: np.ndarray, k: int | np.ndarray) -> float | np.ndarray:
    """Mean of the first K norm terms, ``terms[:k].mean()``; an array of K
    gives one mean per entry, each distinct K reduced once."""
    if np.ndim(k) == 0:
        return float(terms[:k].mean())
    ks, where = np.unique(k, return_inverse=True)
    factors = np.array([terms[:j].mean() for j in ks.tolist()])
    return factors[where].reshape(np.shape(k))


def gram_matrix(basis: BasisSet, kern: KernelMatrix) -> np.ndarray:
    """Kernel Gram matrix ``Phi' C_T Phi / T^2`` of the basis columns; a test
    reference kept for the traced :func:`gram_transform` and :func:`feasible_k`."""
    if basis.t != kern.t:
        raise ValueError("basis and kernel dimensions differ")
    g = basis.matrix.T @ kern.matrix @ basis.matrix / kern.t**2
    return (g + g.T) / 2.0


class _RegimeSums(NamedTuple):
    """Regime-one sums of the Fourier columns at ``(T, lambda)``.

    ``cos[h]`` and ``sin[h]`` are the real and imaginary parts of ``E(h)``;
    ``a`` holds the first K columns' regime-one sums. ``c_kernel`` and
    ``c_demeaned`` weigh ``a a'`` in the kernel Gram and in the Gram of the
    demeaned columns.
    """

    t: int
    lam: float
    cos: np.ndarray
    sin: np.ndarray
    a: np.ndarray
    c_kernel: float
    c_demeaned: float


def _interleave(cos: np.ndarray, sin: np.ndarray, k: int) -> np.ndarray:
    """The first K of the rows ``cos[0], sin[0], cos[1], sin[1], ...``."""
    out = np.empty((2 * len(cos),) + cos.shape[1:])
    out[0::2] = cos
    out[1::2] = sin
    return out[:k]


def _regime_sums(t: int, k: int, lam: float) -> _RegimeSums:
    """``E(h)`` for ``h = 0..2F`` (``F = ceil(K/2)``, the top frequency) by
    one FFT of the regime-one indicator, and the pieces built from it."""
    k_star = _checked_break_row(lam, t)
    top = (k + 1) // 2
    indicator = np.zeros(t)
    indicator[1 : k_star + 1] = 1.0  # row t sits at FFT index t mod T
    z = np.fft.fft(indicator)[: 2 * top + 1]  # the conjugate of E(h)
    cos, sin = z.real.copy(), -z.imag
    a = np.sqrt(2.0) * _interleave(cos[1 : top + 1], sin[1 : top + 1], k)
    w1, w2 = lam, 1.0 - lam
    return _RegimeSums(
        t=t, lam=lam, cos=cos, sin=sin, a=a,
        c_kernel=(1.0 / w1**3 + 1.0 / w2**3) / t**2,
        c_demeaned=(1.0 / (w1**2 * k_star) + 1.0 / (w2**2 * (t - k_star))) / t,
    )


def _raw_norms(sums: _RegimeSums) -> np.ndarray:
    """Norm-factor terms of the raw Fourier columns: the diagonal of the
    demeaned Gram ``B - c_demeaned a a'``."""
    w1, w2 = sums.lam, 1.0 - sums.lam
    top = (len(sums.a) + 1) // 2
    c0, c2f = sums.cos[0], sums.cos[2 : 2 * top + 1 : 2]
    p1 = _interleave(c0 + c2f, c0 - c2f, len(sums.a))
    diag_b = 1.0 / w2**2 + (1.0 / w1**2 - 1.0 / w2**2) * p1 / sums.t
    return diag_b - sums.c_demeaned * sums.a**2


def _kernel_gram(sums: _RegimeSums, c: float) -> np.ndarray:
    """``B - c a a'`` for the first K Fourier columns from the regime sums,
    exactly symmetric: the kernel Gram ``Phi_K' C_T Phi_K / T^2`` at
    ``sums.c_kernel``, the demeaned Gram at ``sums.c_demeaned``."""
    k, t = len(sums.a), sums.t
    w1, w2 = sums.lam, 1.0 - sums.lam
    top = (k + 1) // 2
    cos, sin = sums.cos, sums.sin
    # (F x F) views: C(a - b), S(a - b), C(a + b), S(a + b) for a, b = 1..F;
    # C is even and S odd in h
    lags = np.arange(1 - top, top)
    lag_cos = sliding_window_view(cos[np.abs(lags)], top)[:, ::-1]
    lag_sin = sliding_window_view(np.sign(lags) * sin[np.abs(lags)], top)[:, ::-1]
    sum_cos = sliding_window_view(cos[2 : 2 * top + 1], top)
    sum_sin = sliding_window_view(sin[2 : 2 * top + 1], top)
    p1 = np.empty((2 * top, 2 * top))
    np.add(lag_cos, sum_cos, out=p1[0::2, 0::2])
    np.subtract(lag_cos, sum_cos, out=p1[1::2, 1::2])
    np.subtract(sum_sin, lag_sin, out=p1[0::2, 1::2])
    p1[1::2, 0::2] = p1[0::2, 1::2].T
    g = p1[:k, :k]
    g *= (1.0 / w1**2 - 1.0 / w2**2) / t
    g[np.arange(k), np.arange(k)] += 1.0 / w2**2
    x = np.sqrt(c) * sums.a
    for start in range(0, k, 256):  # the rank-one term, a few rows at a time
        g[start : start + 256] -= np.outer(x[start : start + 256], x)
    return g


def _kernel_factor(gram: np.ndarray, rhs: np.ndarray | None = None):
    """Upper Cholesky factor ``U`` of a kernel Gram's kept leading block,
    K cut to the count of accepted pivots: the leading block of the one
    factorization. With ``rhs`` (K rows) it returns ``(U, U^{-T} rhs)``
    over the kept rows, solved inside the factor loop.

    Raises
    ------
    NotPositiveDefinite
        If no pivot passes.
    """
    *factor, rank = _pivot_factor(gram, _TRANSFORM_PIVOT_RTOL, rhs)
    if rank == 0:
        raise NotPositiveDefinite(
            "Gram matrix is too close to singular for a reliable transform"
        )
    u = factor[0][:rank, :rank]
    return u if rhs is None else (u, factor[1][:rank])


def _kernel_solve(sums: _RegimeSums, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``U^{-T}`` times the kept leading ``rows`` (the raw columns as rows,
    or their sums against a series), with ``U`` the trimmed factor of the
    regime-sum kernel Gram, and the kept columns' norm-factor terms:
    one plus the gap between the demeaned and the kernel Gram along their
    regime-one sums ``y = U^{-T} a``. Both come out of the factor's rows;
    no separate triangular solve runs."""
    rhs = np.column_stack([rows, sums.a])
    _, solved = _kernel_factor(_kernel_gram(sums, sums.c_kernel), rhs)
    y = solved[:, -1]
    return solved[:, :-1], 1.0 + (sums.c_kernel - sums.c_demeaned) * y**2


def gram_transform(raw: BasisSet, kern: KernelMatrix) -> BasisSet:
    """Gram-Schmidt step: orthonormalize columns under the kernel inner product.

    Factors the Gram matrix as ``U' U`` (upper-triangular Cholesky, positive
    diagonal) and returns ``Phi U^{-1}``, whose Gram matrix is the identity.
    Column ``j`` of the result is a combination of raw columns ``1..j`` only.
    A test reference kept because the benchmark tracer resolves it.

    Raises
    ------
    NotPositiveDefinite
        If the Gram matrix is rank deficient, e.g. a raw column is constant
        within both regimes or ``K`` exceeds the kernel rank available.
    """
    u = _kernel_factor(gram_matrix(raw, kern))
    if len(u) < raw.k:
        raise NotPositiveDefinite(f"only {len(u)} of {raw.k} columns pass the pivots")
    star = solve_triangular(u.T, raw.matrix.T, lower=True).T
    return BasisSet(
        t=raw.t, k=raw.k, lam=kern.lam, family=FOURIER_TRANSFORMED, matrix=star
    )


def _fourier_sums(series: np.ndarray, k: int) -> np.ndarray:
    """Sums ``Phi_K' S`` of the first K Fourier columns against a ``T x d``
    series, from one ``rfft`` along time; equal to
    ``fourier_matrix(T, K, lam).matrix.T @ S`` up to rounding."""
    top = (k + 1) // 2
    z = np.fft.rfft(np.roll(series, 1, axis=0), axis=0)[1 : top + 1]
    return np.sqrt(2.0) * _interleave(z.real, -z.imag, k)


def series_sums(
    series: np.ndarray, k: int, lam: float, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """Score sums ``Phi' S / sqrt(T)`` of a family's first K vectors against
    a ``T x d`` series, and the vectors' norm-factor terms, without
    forming a ``T x T``, ``T x K`` or dense-kernel array.

    The transformed family factors the kernel Gram built from the regime sums,
    ``G = U' U``, cut by the same trim rule; its sums are ``U^{-T}`` times
    the raw ones. Costs ``O(T log T)`` plus ``O(K^3)`` for the factor.

    Raises
    ------
    NotPositiveDefinite
        If no column survives the kernel inner product.
    """
    s = np.asarray(series, dtype=float)
    t = s.shape[0]
    _check_dimensions(t, k, family)
    g = _fourier_sums(s, k) / np.sqrt(t)
    sums = _regime_sums(t, k, lam)
    if family == FOURIER_RAW:
        return g, _raw_norms(sums)
    return _kernel_solve(sums, g)


def series_root(t: int, k: int, lam: float, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Lower root ``R`` of the demeaned Gram ``G = tilde' tilde / T`` of a
    family's kept vectors, and their norm-factor terms, the diagonal
    of ``G``. With ``V'V`` the raw columns' ``G``, ``R`` is ``V'``, or
    ``U^{-T} V'`` for the transformed vectors ``Phi U^{-1}`` (``U'U`` the
    kernel Gram). ``V`` and ``U`` are cut by one trim rule; ``len(R)`` is
    the count both keep. Raises ``NotPositiveDefinite`` if none passes."""
    _check_dimensions(t, k, family)
    sums = _regime_sums(t, k, lam)
    root = _kernel_factor(_kernel_gram(sums, sums.c_demeaned)).T
    if family == FOURIER_TRANSFORMED:
        u = _kernel_factor(_kernel_gram(sums, sums.c_kernel))
        kept = min(len(u), len(root))
        root = solve_triangular(u[:kept, :kept].T, root[:kept, :kept], lower=True)
    return root, np.einsum("ij,ij->i", root, root)


def feasible_k(raw: BasisSet, kern: KernelMatrix) -> int:
    """Largest leading column count whose kernel Gram matrix is numerically PD.

    The nominal cap ``K <= T - 2`` only bounds the kernel rank; for some
    ``(T, lambda)`` pairs a combination of the last Fourier columns falls in
    the kernel null space, so the usable count can be smaller. This runs the
    Cholesky pivots of the full Gram matrix and reports how many succeed;
    :func:`series_sums` keeps the same count. A test reference kept because
    the benchmark tracer resolves it.
    """
    rank = leading_spd_rank(gram_matrix(raw, kern), rtol=_TRANSFORM_PIVOT_RTOL)
    if rank == 0:
        raise NotPositiveDefinite("no basis column survives the kernel inner product")
    return rank
