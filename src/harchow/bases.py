"""Basis construction for the series long-run variance estimator.

Provides interleaved cosine/sine (Fourier) basis vectors, the break-geometry
covariance kernel matrix, the within-regime demeaned ("tilde") transform of
basis columns, and the Gram-Schmidt step that orthonormalizes a basis with
respect to the kernel inner product ``a' C_T b / T^2``.
:func:`series_basis` is the one place that builds a family's first K vectors
and decides the kernel-feasible K; every consumer asks it for its basis.

The break splits ``{1, ..., T}`` at ``k* = floor(lambda * T)``: regime one is
``t <= k*`` and regime two is ``t > k*``. Every function here uses that same
index so the kernel matrix, the demeaning, and the regression design can
never disagree about regime membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """A ``T x K`` matrix of basis vectors, column ``j`` sampled at ``t/T``."""

    t: int
    k: int
    lam: float
    family: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"break fraction must lie in (0, 1), got {self.lam}")
        if self.matrix.shape != (self.t, self.k):
            raise ValueError("basis matrix shape does not match (T, K)")
        if not (1 <= self.k <= self.t - 2):
            raise ValueError(f"need 1 <= K <= T - 2, got K={self.k}, T={self.t}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("basis entries must be finite")


@dataclass(frozen=True)
class KernelMatrix:
    """Discrete covariance kernel of the break geometry, a ``T x T`` matrix."""

    t: int
    lam: float
    matrix: np.ndarray


def fourier_matrix(t: int, k: int, lam: float) -> BasisSet:
    """Interleaved Fourier basis vectors evaluated at ``r = 1/T, ..., T/T``.

    Column order is ``sqrt(2) cos(2 pi r), sqrt(2) sin(2 pi r),
    sqrt(2) cos(4 pi r), sqrt(2) sin(4 pi r), ...``; an odd ``k`` simply
    truncates the interleaved sequence.
    """
    if t < 4:
        raise ValueError(f"need T >= 4, got {t}")
    if not (1 <= k <= t - 2):
        raise ValueError(f"need 1 <= K <= T - 2, got K={k}, T={t}")
    r = np.arange(1, t + 1) / t
    cols = np.empty((t, k))
    for j in range(k):
        freq = j // 2 + 1
        angle = 2.0 * np.pi * freq * r
        cols[:, j] = np.sqrt(2.0) * (np.cos(angle) if j % 2 == 0 else np.sin(angle))
    return BasisSet(t=t, k=k, lam=lam, family=FOURIER_RAW, matrix=cols)


def kernel_matrix(t: int, lam: float) -> KernelMatrix:
    """Kernel matrix with blocks ``[T 1{i=j} - 1/w] / w^2`` per regime.

    ``w`` is the regime weight (``lambda`` in the first block, ``1 - lambda``
    in the second); entries pairing the two regimes are zero.
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


def phi_tilde_matrix(matrix: np.ndarray, lam: float, t: int) -> np.ndarray:
    """Within-regime demeaned and regime-weighted basis columns.

    Takes one column (length T) or a ``T x K`` matrix. For ``t <= k*`` an
    entry is ``(phi - mean over regime one) / lambda``; after the break it is
    ``-(phi - mean over regime two) / (1 - lambda)``. Both regime portions of
    each output column sum to zero exactly.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape[:1] != (t,):
        raise ValueError(f"column length {m.shape} does not match T={t}")
    k_star = _checked_break_row(lam, t)
    out = np.empty_like(m)
    out[:k_star] = (m[:k_star] - m[:k_star].mean(axis=0)) / lam
    out[k_star:] = -(m[k_star:] - m[k_star:].mean(axis=0)) / (1.0 - lam)
    return out


def norm_factor(
    basis: BasisSet, k: int | np.ndarray | None = None
) -> float | np.ndarray:
    """Average squared demeaned basis value ``(1/(KT)) sum_{j<=K} sum_i
    tilde(phi)_j(i/T)^2`` of the first K columns, all by default; an array
    of K values gives one factor per entry."""
    tilde = phi_tilde_matrix(basis.matrix, basis.lam, basis.t)
    cols = (tilde**2).mean(axis=0)
    if k is None or np.ndim(k) == 0:
        return float(cols[: basis.k if k is None else k].mean())
    ks, where = np.unique(k, return_inverse=True)
    factors = np.array([cols[:j].mean() for j in ks.tolist()])
    return factors[where].reshape(np.shape(k))


def gram_matrix(basis: BasisSet, kern: KernelMatrix) -> np.ndarray:
    """Kernel Gram matrix ``Phi' C_T Phi / T^2`` of the basis columns."""
    if basis.t != kern.t:
        raise ValueError("basis and kernel dimensions differ")
    g = basis.matrix.T @ kern.matrix @ basis.matrix / kern.t**2
    return (g + g.T) / 2.0


def gram_transform(raw: BasisSet, kern: KernelMatrix) -> BasisSet:
    """Gram-Schmidt step: orthonormalize columns under the kernel inner product.

    Factors the Gram matrix as ``U' U`` (upper-triangular Cholesky, positive
    diagonal) and returns ``Phi U^{-1}``, whose Gram matrix is the identity.
    Column ``j`` of the result is a combination of raw columns ``1..j`` only.

    Raises
    ------
    NotPositiveDefinite
        If the Gram matrix is rank deficient, e.g. a raw column is constant
        within both regimes or ``K`` exceeds the kernel rank available.
    """
    return _orthonormalize(raw, kern, trim=False)


def _orthonormalize(raw: BasisSet, kern: KernelMatrix, trim: bool) -> BasisSet:
    """:func:`gram_transform`; with ``trim``, first cut the raw columns to
    the accepted-pivot count of their Gram factor and refactor the kept
    columns from their own Gram matrix."""
    u, rank = _pivot_factor(gram_matrix(raw, kern), _TRANSFORM_PIVOT_RTOL)
    if trim and 0 < rank < raw.k:
        del u  # free the untrimmed factor before building the smaller one
        raw = BasisSet(
            t=raw.t, k=rank, lam=raw.lam, family=FOURIER_RAW,
            matrix=raw.matrix[:, :rank],
        )
        u, rank = _pivot_factor(gram_matrix(raw, kern), _TRANSFORM_PIVOT_RTOL)
    if rank < raw.k:
        raise NotPositiveDefinite(
            "Gram matrix is too close to singular for a reliable transform"
        )
    star = solve_triangular(u.T, raw.matrix.T, lower=True).T
    return BasisSet(
        t=raw.t, k=raw.k, lam=kern.lam, family=FOURIER_TRANSFORMED, matrix=star
    )


def series_basis(t: int, k: int, lam: float, family: str) -> BasisSet:
    """The first ``K`` vectors of a basis family: the one basis provider.

    ``fourier-raw`` gives :func:`fourier_matrix`. ``fourier-transformed``
    gives the kernel-orthonormal transform of those columns, with ``K`` cut
    to the kernel-feasible count when the nominal cap ``K <= T - 2``
    overstates the kernel rank: for some ``(T, lambda)`` a combination of
    the last Fourier columns falls in the kernel null space. The returned
    ``.k`` is the count kept.

    Raises
    ------
    NotPositiveDefinite
        If no column survives the kernel inner product.
    """
    raw = fourier_matrix(t, k, lam)
    if family == FOURIER_RAW:
        return raw
    if family != FOURIER_TRANSFORMED:
        raise ValueError(f"unknown basis family {family!r}")
    return _orthonormalize(raw, kernel_matrix(t, lam), trim=True)


def feasible_k(raw: BasisSet, kern: KernelMatrix) -> int:
    """Largest leading column count whose kernel Gram matrix is numerically PD.

    The nominal cap ``K <= T - 2`` only bounds the kernel rank; for some
    ``(T, lambda)`` pairs a combination of the last Fourier columns falls in
    the kernel null space, so the usable count can be smaller. This runs the
    Cholesky pivots of the full Gram matrix and reports how many succeed;
    :func:`series_basis` keeps the same count.
    """
    rank = leading_spd_rank(gram_matrix(raw, kern), rtol=_TRANSFORM_PIVOT_RTOL)
    if rank == 0:
        raise NotPositiveDefinite("no basis column survives the kernel inner product")
    return rank
