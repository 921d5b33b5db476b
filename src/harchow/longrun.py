"""Series long-run variance estimator and the sandwich variance of contrasts.

The estimator averages K outer products ``G' G / K`` of the basis-weighted
sums ``G = Phi' S / sqrt(T)`` of a T x d series (:func:`sums_outer`, on a
stack of sums too). It is linear in the series, so on a contrast's score
proxy ``R Q^{-1} xz_t' u_t`` it is :func:`sandwich_variance` of its value
``Omega`` on the T x 2m scores. That form and :func:`series_lrv` are test
references no command runs, kept because the benchmark tracer resolves them.
"""

from __future__ import annotations

import numpy as np

from .bases import BasisSet
from .numkit import spd_solve
from .numkit.linalg import _t


def sums_outer(g: np.ndarray, k: int | np.ndarray | None = None) -> np.ndarray:
    """Average outer product ``G' G / K`` of the first K rows of score sums,
    all rows by default; on a stack ``(..., rows, d)``, ``k`` may give one K
    per member."""
    if k is None:
        k = g.shape[-2]
    if np.ndim(k) == 0:
        g = g[..., :k, :]
    else:
        used = np.arange(g.shape[-2]) < np.asarray(k)[..., None]
        g = np.where(used[..., None], g, 0.0)
    omega = _t(g) @ g / np.asarray(k)[..., None, None]
    return (omega + _t(omega)) / 2.0


def series_lrv(basis: BasisSet, xz: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """Long-run variance ``G' G / K`` of the scores ``xz_t' u_t``, ``G`` their
    basis sums; a test reference kept because the benchmark tracer resolves it."""
    scores = np.asarray(xz, dtype=float) * np.asarray(u_hat, dtype=float)[..., None]
    return sums_outer(basis.matrix.T @ scores / np.sqrt(basis.t))


def sandwich_variance(
    r: np.ndarray, q_hat: np.ndarray, omega_hat: np.ndarray
) -> np.ndarray:
    """Estimated variance ``R Q^{-1} Omega Q^{-1} R'`` of the contrast; a
    test reference kept because the benchmark tracer resolves it."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    w = spd_solve(q_hat, r.T)
    v = _t(w) @ omega_hat @ w
    return (v + _t(v)) / 2.0
