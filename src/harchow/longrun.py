"""Series long-run variance estimator and the sandwich variance of contrasts.

The estimator averages K outer products of basis-weighted partial sums of the
score series (regressor rows times residuals). Scores are accumulated in one
pass as ``G = Phi' S / sqrt(T)`` with ``S`` the T x 2m score matrix, giving
``Omega = G' G / K`` without any T x T intermediate.
"""

from __future__ import annotations

import numpy as np

from .bases import BasisSet
from .numkit import spd_solve


def score_sums(basis: BasisSet, series: np.ndarray) -> np.ndarray:
    """Basis-weighted partial sums ``G = Phi' S / sqrt(T)`` of a T x d series."""
    s = np.asarray(series, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.shape[0] != basis.t:
        raise ValueError("series rows must match the basis sample size")
    return basis.matrix.T @ s / np.sqrt(basis.t)


def sums_outer(g: np.ndarray) -> np.ndarray:
    """Average outer product ``G' G / K`` of the K rows of score sums."""
    omega = g.T @ g / len(g)
    return (omega + omega.T) / 2.0


def series_outer(basis: BasisSet, series: np.ndarray) -> np.ndarray:
    """``(1/K) sum_j g_j g_j'`` for the partial sums ``g_j = T^{-1/2} sum_t
    phi_{j,t} series_t`` of a T x d ``series``; a d x d matrix."""
    return sums_outer(score_sums(basis, series))


def series_lrv(basis: BasisSet, xz: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """Long-run variance estimate of the scores ``xz_t' u_t``."""
    xz = np.asarray(xz, dtype=float)
    u = np.asarray(u_hat, dtype=float)
    if xz.shape[0] != u.shape[0]:
        raise ValueError("xz and u_hat must have the same number of rows")
    return series_outer(basis, xz * u[:, None])


def sandwich_variance(
    r: np.ndarray, q_hat: np.ndarray, omega_hat: np.ndarray
) -> np.ndarray:
    """Estimated variance ``R Q^{-1} Omega Q^{-1} R'`` of the contrast."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    w = spd_solve(q_hat, r.T)
    v = w.T @ omega_hat @ w
    return (v + v.T) / 2.0
