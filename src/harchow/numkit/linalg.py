"""Symmetric-positive-definite linear algebra and a discrete Lyapunov solver.

All routines operate on plain ``numpy.ndarray`` values. Factorizations are
written out explicitly so tolerances stay auditable: a pivot is accepted only
if it exceeds ``1e-12`` times the largest diagonal entry of the input, and
symmetric inputs are replaced by ``(S + S') / 2`` before factoring to absorb
roundoff asymmetry.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotPositiveDefinite, Unstable

_PIVOT_RTOL = 1e-12
_SYM_RTOL = 1e-10


def _as_square(s: np.ndarray) -> np.ndarray:
    a = np.asarray(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _symmetrize(s: np.ndarray) -> np.ndarray:
    a = _as_square(s)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > _SYM_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return (a + a.T) / 2.0


def _pivot_factor(s: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Cholesky pivots of ``S`` in column order, up to the first failing one.

    A pivot is accepted only above ``rtol`` times the largest diagonal entry.
    Returns the upper-triangular factor (rows from the first failing pivot
    on are zero) and the number of accepted pivots.
    """
    a = _symmetrize(s)
    n = a.shape[0]
    tol = rtol * max(float(np.max(np.diagonal(a))), 0.0) if n else 0.0
    u = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - u[:j, j] @ u[:j, j]
        if pivot <= tol:
            return u, j
        ujj = np.sqrt(pivot)
        u[j, j] = ujj
        if j + 1 < n:
            u[j, j + 1 :] = (a[j, j + 1 :] - u[:j, j] @ u[:j, j + 1 :]) / ujj
    return u, n


def cholesky(s: np.ndarray) -> np.ndarray:
    """Upper-triangular factor ``U`` with ``S = U' U`` and positive diagonal.

    Raises
    ------
    NotPositiveDefinite
        If any pivot falls at or below ``1e-12`` times the largest diagonal
        entry of ``S``, signalling (numerical) rank deficiency.
    """
    u, rank = _pivot_factor(s, _PIVOT_RTOL)
    if rank < u.shape[0]:
        raise NotPositiveDefinite(
            f"pivot at column {rank} is at or below {_PIVOT_RTOL:g} times the "
            "largest diagonal entry"
        )
    return u


def leading_spd_rank(s: np.ndarray, rtol: float = _PIVOT_RTOL) -> int:
    """Number of leading columns of ``S`` with an acceptable Cholesky pivot,
    ``rtol`` times the largest diagonal being the threshold."""
    return _pivot_factor(s, rtol)[1]


def solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve ``T x = b`` for triangular ``T`` by substitution."""
    a = _as_square(t)
    n = a.shape[0]
    rhs = np.asarray(b, dtype=float)
    vector = rhs.ndim == 1
    x = rhs.reshape(n, -1).copy()
    rows = range(n) if lower else range(n - 1, -1, -1)
    for i in rows:
        if lower:
            if i:
                x[i] -= a[i, :i] @ x[:i]
        else:
            if i + 1 < n:
                x[i] -= a[i, i + 1 :] @ x[i + 1 :]
        x[i] /= a[i, i]
    return x[:, 0] if vector else x


def spd_solve(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``S X = B`` for symmetric positive definite ``S``.

    Uses :func:`cholesky` followed by forward and backward substitution;
    :class:`NotPositiveDefinite` propagates from the factorization.
    """
    u = cholesky(s)
    y = solve_triangular(u.T, b, lower=True)
    return solve_triangular(u, y, lower=False)


def solve_general(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A X = B`` for general square ``A`` by LU with partial pivoting."""
    lu = _as_square(a).copy()
    n = lu.shape[0]
    rhs = np.asarray(b, dtype=float)
    vector = rhs.ndim == 1
    x = rhs.reshape(n, -1).copy()
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0.0:
            raise NotPositiveDefinite(f"singular matrix (zero pivot at column {k})")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            x[[k, p]] = x[[p, k]]
        factors = lu[k + 1 :, k] / lu[k, k]
        lu[k + 1 :, k:] -= np.outer(factors, lu[k, k:])
        x[k + 1 :] -= np.outer(factors, x[k])
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lu[i, i + 1 :] @ x[i + 1 :]
        x[i] /= lu[i, i]
    return x[:, 0] if vector else x


def spectral_radius(a: np.ndarray) -> float:
    """Spectral radius of ``a``: closed forms up to 2x2, power iteration above.

    The power-iteration estimate is the geometric mean of the per-step growth
    over the second half of the iteration, which also handles complex dominant
    pairs where the iterate itself does not settle.
    """
    m = _as_square(a)
    n = m.shape[0]
    if n == 1:
        return abs(float(m[0, 0]))
    if n == 2:
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = tr * tr - 4.0 * det
        if disc < 0.0:
            return float(np.sqrt(det))
        root = np.sqrt(disc)
        return float(max(abs(tr + root), abs(tr - root)) / 2.0)
    x = 1.0 + 0.0123 * np.arange(1, n + 1)
    x /= np.sqrt(x @ x)
    steps = 600
    log_growth = []
    for _ in range(steps):
        y = m @ x
        norm = float(np.sqrt(y @ y))
        if norm < 1e-300:
            return 0.0
        log_growth.append(np.log(norm))
        x = y / norm
    return float(np.exp(np.mean(log_growth[steps // 2 :])))


def lyapunov_solve(a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Solve ``G = A G A' + Sigma`` for a stable ``A``.

    Uses a doubling iteration on the series ``sum_h A^h Sigma (A')^h``; each
    step squares the accumulated power of ``A`` so convergence is quadratic.

    Raises
    ------
    Unstable
        If the power-iteration bound on the spectral radius of ``A`` is at
        least ``1 - 1e-6``, or the residual fails its tolerance.
    """
    m = _as_square(a)
    sig = _symmetrize(sigma)
    if m.shape != sig.shape:
        raise ValueError("A and Sigma must share dimensions")
    if spectral_radius(m) >= 1.0 - 1e-6:
        raise Unstable("spectral radius of A is not below one")
    g = sig.copy()
    p = m.copy()
    scale = max(float(np.max(np.abs(sig))), 1e-300)
    for _ in range(100):
        increment = p @ g @ p.T
        g = g + increment
        p = p @ p
        if np.max(np.abs(increment)) <= 1e-16 * scale:
            break
    g = (g + g.T) / 2.0
    residual = np.max(np.abs(g - m @ g @ m.T - sig))
    if residual > 1e-10 * scale:
        raise Unstable(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return g
