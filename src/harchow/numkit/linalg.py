"""Symmetric-positive-definite linear algebra and a discrete Lyapunov solver.

All routines operate on plain ``numpy.ndarray`` values: one matrix, or a
stack of matrices with leading axes, each member treated on its own.
Factorizations are written out explicitly so tolerances stay auditable: a
pivot is accepted only if it exceeds ``1e-12`` times the largest diagonal
entry of its matrix, and symmetric inputs are replaced by ``(S + S') / 2``
before factoring to absorb roundoff asymmetry.

The inner products of the pivot and substitution loops are BLAS
matrix-vector products for one matrix, so a large factorization runs at
BLAS speed, and elementwise products summed across the whole stack for a
stack, so many small matrices cost one array operation per step.

A right-hand side is one vector (1-D), or a matrix ``(..., n, r)`` whose
leading axes broadcast against those of the stack. Every SPD solve carries
it through the one pivot loop, whose rows then hold its columns too: the
forward solve ``U'Y = B`` comes out of the loop that makes the factor, and
back substitution is the only second pass.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotPositiveDefinite, Unstable

_PIVOT_RTOL = 1e-12
_SYM_RTOL = 1e-10
_PIVOT_BLOCK = 64


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack."""
    return a.swapaxes(-1, -2)


def _as_square(s: np.ndarray) -> np.ndarray:
    a = np.asarray(s, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _symmetrize(s: np.ndarray) -> np.ndarray:
    a = _as_square(s)
    if np.array_equal(a, _t(a)):
        return a
    scale = np.abs(a).max(axis=(-2, -1))
    asymmetry = np.abs(a - _t(a)).max(axis=(-2, -1))
    if np.count_nonzero((scale > 0) & (asymmetry > _SYM_RTOL * scale)):
        raise ValueError("matrix is not symmetric within tolerance")
    return (a + _t(a)) / 2.0


def _any(mask: np.ndarray) -> bool:
    """Whether some entry of a boolean mask is set; a one-matrix (0-d) mask
    is tested directly, which is much cheaper than a reduction."""
    return bool(mask) if mask.ndim == 0 else np.count_nonzero(mask) > 0


def _axes_first(a: np.ndarray) -> np.ndarray:
    """View of a matrix or stack ``(..., n, m)`` with the matrix axes first,
    ``(n, m, ...)``, so that one matrix and a stack index alike."""
    if a.ndim == 2:
        return a
    return a.transpose((a.ndim - 2, a.ndim - 1) + tuple(range(a.ndim - 2)))


def _first_axis_last(a: np.ndarray) -> np.ndarray:
    """View of ``a`` with its first axis moved to the end."""
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x' y`` over the first axis: ``x`` is ``(j, ...)`` and ``y`` is
    ``(j, ...)`` or ``(j, m, ...)``. One matrix's vector (1-D ``x``) takes
    the BLAS product; a stack sums its elementwise products, laid out with
    the ``j`` terms of each sum contiguous."""
    if x.ndim == 1:
        return x @ y
    return (_first_axis_last(y) * _first_axis_last(x)).sum(axis=-1)


def _broadcast_rhs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a, x)`` with ``x`` a writable ``(..., n, r)`` copy of the right-hand
    side (a vector becomes one column) and both sharing their leading axes."""
    n = a.shape[-1]
    rhs = np.asarray(b, dtype=float)
    x = rhs.reshape(n, -1) if rhs.ndim == 1 else rhs
    if a.shape[:-2] == x.shape[:-2]:
        return a, np.array(x, order="C")
    lead = np.broadcast_shapes(a.shape[:-2], x.shape[:-2])
    if a.shape[:-2] != lead:
        a = np.broadcast_to(a, lead + (n, n))
    return a, np.array(np.broadcast_to(x, lead + x.shape[-2:]), order="C")


def _pivot_factor(s: np.ndarray, rtol: float, rhs: np.ndarray | None = None):
    """Cholesky pivots of ``S`` in column order, up to the first failing one.

    A pivot is accepted only above ``rtol`` times the largest diagonal entry
    of its matrix. Returns the upper-triangular factor (rows from the first
    failing pivot on are zero) and the number of accepted pivots: an int for
    one matrix, one count per member for a stack.

    With a right-hand side ``B`` of shape ``(..., n, r)`` the rows carry
    its columns too, so the loop that makes row ``j`` of ``U`` also makes row
    ``j`` of ``Y = U^{-T} B``, the forward solve ``U'Y = B``; it returns
    ``(U, Y, rank)``, and ``Y`` is zero where ``U`` is.

    The rows are factored 64 at a time: one matrix product subtracts every
    earlier row's part from a block's rows, and the loop runs over the
    block's own rows, so a large matrix factors at matrix-product speed. Up
    to 64 rows the operation order is the plain row loop's, and the plain
    forward substitution's for ``Y``.
    """
    a = _symmetrize(s)
    n = a.shape[-1]
    tol = rtol * np.diagonal(a, axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
    if rhs is not None:
        a, b = _broadcast_rhs(a, rhs)
    # row j of U, then row j of Y; a block of rows holds the rows of [S B]
    # until the loop turns them into rows of [U Y]
    width = n if rhs is None else n + b.shape[-1]
    rows = np.zeros_like(a, shape=a.shape[:-1] + (width,))
    u = rows[..., :n]
    rows_ = _axes_first(rows)
    rank = np.full(a.shape[:-2], n)
    dead = np.zeros(a.shape[:-2], dtype=bool)
    any_dead = False
    for j in range(n):
        if j % _PIVOT_BLOCK == 0:
            # this block's rows of [S B] less the earlier rows' part,
            # U_lo' [U_lo Y_lo]
            lo = j
            block = rows[..., lo : lo + _PIVOT_BLOCK, lo:]
            block[..., : n - lo] = a[..., lo : lo + _PIVOT_BLOCK, lo:]
            if rhs is not None:
                block[..., n - lo :] = b[..., lo : lo + _PIVOT_BLOCK, :]
            if lo:
                block -= _t(u[..., :lo, lo : lo + _PIVOT_BLOCK]) @ rows[..., :lo, lo:]
        col = rows_[lo:j, j]
        pivot = rows_[j, j] - _dot(col, col)
        failing = pivot <= tol
        if any_dead:
            failing = failing & ~dead
        if _any(failing):
            rank = np.where(failing, j, rank)
            dead = dead | failing
            if dead.all():
                rows_[j:] = 0.0
                break
            any_dead = True
        if any_dead:
            pivot = np.where(dead, 1.0, pivot)
        diag = np.sqrt(pivot)
        rows_[j, lo:j] = 0.0  # the block's copy of S below the diagonal
        rows_[j, j] = diag
        if j + 1 < width:
            rest = rows_[j, j + 1 :]
            rows_[j, j + 1 :] = (rest - _dot(col, rows_[lo:j, j + 1 :])) / diag
        if any_dead:
            rows_[j, j:][..., dead] = 0.0
    rank = int(rank) if rank.ndim == 0 else rank
    if rhs is None:
        return u, rank
    return u, rows[..., n:], rank


def _spd_factor(s: np.ndarray, rhs: np.ndarray | None = None):
    """:func:`cholesky`'s ``U``, or with a right-hand side ``B`` the pair
    ``(U, Y)`` with ``U'Y = B`` from the same loop, under its pivot rule."""
    *out, rank = _pivot_factor(s, _PIVOT_RTOL, rhs)
    if np.count_nonzero(rank < out[0].shape[-1]):
        raise NotPositiveDefinite(f"pivot at column {np.min(rank)} is at or below "
                                  f"{_PIVOT_RTOL:g} times the largest diagonal entry")
    return out[0] if rhs is None else out


def cholesky(s: np.ndarray) -> np.ndarray:
    """Upper-triangular factor ``U`` with ``S = U' U`` and positive diagonal,
    of one matrix or of every member of a stack; :class:`NotPositiveDefinite`
    if any pivot falls at or below ``1e-12`` times the largest diagonal entry
    of its matrix, signalling (numerical) rank deficiency."""
    return _spd_factor(s)


def leading_spd_rank(s: np.ndarray, rtol: float = _PIVOT_RTOL) -> int:
    """Number of leading columns of ``S`` with an acceptable Cholesky pivot,
    ``rtol`` times the largest diagonal being the threshold; a test
    reference kept because the benchmark tracer resolves it."""
    return _pivot_factor(s, rtol)[1]


def solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve ``T x = b`` for triangular ``T`` (or a stack) by substitution."""
    a, x = _broadcast_rhs(_as_square(t), b)
    n = a.shape[-1]
    a_, x_ = _axes_first(a), _axes_first(x)
    rows = range(n) if lower else range(n - 1, -1, -1)
    for i in rows:
        known = slice(0, i) if lower else slice(i + 1, n)
        x_[i] -= _dot(a_[i, known], x_[known])
        x_[i] /= a_[i, i]
    return x[..., 0] if np.ndim(b) == 1 else x


def spd_solve(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``S X = B`` for symmetric positive definite ``S`` (or a stack).

    One pivot loop makes the factor ``S = U'U`` and the forward solve
    ``U'Y = B``, and back substitution ``U X = Y`` is the only second pass;
    :class:`NotPositiveDefinite` where :func:`cholesky` raises it.
    """
    u, y = _spd_factor(s, b)
    x = solve_triangular(u, y, lower=False)
    return x[..., 0] if np.ndim(b) == 1 else x


def solve_general(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A X = B`` for general square ``A`` (or a stack) by LU with
    partial pivoting."""
    lu, x = _broadcast_rhs(_as_square(a), b)
    lu = lu.copy()
    n = lu.shape[-1]
    for k in range(n):
        p = k + np.argmax(np.abs(lu[..., k:, k]), axis=-1)[..., None, None]
        for m in (lu, x):
            row_k = m[..., k : k + 1, :].copy()
            m[..., k : k + 1, :] = np.take_along_axis(m, p, axis=-2)
            np.put_along_axis(m, p, row_k, axis=-2)
        if np.count_nonzero(lu[..., k, k] == 0.0):
            raise NotPositiveDefinite(f"singular matrix (zero pivot at column {k})")
        factors = lu[..., k + 1 :, k] / lu[..., k, k, None]
        lu[..., k + 1 :, k:] -= factors[..., :, None] * lu[..., k, None, k:]
        x[..., k + 1 :, :] -= factors[..., :, None] * x[..., k, None, :]
    x = solve_triangular(lu, x, lower=False)
    return x[..., 0] if np.ndim(b) == 1 else x


def _power_radius(m: np.ndarray) -> float:
    """Power-iteration estimate of one matrix's spectral radius."""
    x = 1.0 + 0.0123 * np.arange(1, m.shape[0] + 1)
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


def spectral_radius(a: np.ndarray) -> float | np.ndarray:
    """Spectral radius of ``a`` (one per member of a stack): closed forms up
    to 2x2, power iteration member by member above.

    The power-iteration estimate is the geometric mean of the per-step growth
    over the second half of the iteration, which also handles complex dominant
    pairs where the iterate itself does not settle.
    """
    m = _as_square(a)
    n = m.shape[-1]
    if n == 1:
        radius = np.abs(m[..., 0, 0])
    elif n == 2:
        tr = m[..., 0, 0] + m[..., 1, 1]
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        disc = tr * tr - 4.0 * det
        pair = disc < 0.0  # complex conjugate pair of modulus sqrt(det)
        root = np.sqrt(np.where(pair, 0.0, disc))
        radius = np.where(
            pair,
            np.sqrt(np.where(pair, det, 0.0)),
            np.maximum(np.abs(tr + root), np.abs(tr - root)) / 2.0,
        )
    else:
        members = [_power_radius(member) for member in m.reshape(-1, n, n)]
        radius = np.reshape(members, m.shape[:-2])
    return float(radius) if radius.ndim == 0 else radius


def lyapunov_solve(a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Solve ``G = A G A' + Sigma`` for a stable ``A`` (or a stack).

    Uses a doubling iteration on the series ``sum_h A^h Sigma (A')^h``; each
    step squares the accumulated power of ``A`` so convergence is quadratic.
    A member stops accumulating once its own increment is negligible.

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
    if np.count_nonzero(spectral_radius(m) >= 1.0 - 1e-6):
        raise Unstable("spectral radius of A is not below one")
    g = sig.copy()
    p = m.copy()
    scale = np.maximum(np.abs(sig).max(axis=(-2, -1)), 1e-300)
    done = np.zeros(m.shape[:-2], dtype=bool)
    for _ in range(100):
        increment = p @ g @ _t(p)
        g = np.where(done[..., None, None], g, g + increment)
        p = p @ p
        done = done | (np.abs(increment).max(axis=(-2, -1)) <= 1e-16 * scale)
        if not _any(~done):
            break
    g = (g + _t(g)) / 2.0
    residual = np.abs(g - m @ g @ _t(m) - sig).max(axis=(-2, -1))
    if np.count_nonzero(residual > 1e-10 * scale):
        raise Unstable(f"Lyapunov residual {np.max(residual):.3e} exceeds tolerance")
    return g
