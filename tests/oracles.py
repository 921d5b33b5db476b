"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the package's own special-function and
linear-algebra code paths: densities are written from their closed forms with
``math.lgamma``, CDFs come from Simpson quadrature under a square-root
substitution (smooth at the origin even for one degree of freedom), and
quantiles invert the quadrature CDF by bisection. The matrix oracles write
a quantity out in its textbook form, however wasteful.
``kernel_factor_refactored`` is the trimmed kernel factor as it was before
it became a slice of the one factorization: the kept block refactored from
its own Gram. ``spd_solve_two_pass``
is the SPD solve as it was before the forward solve moved into the pivot
loop: the factor, then a forward and a back substitution. ``dense_report``
replays the dense path ``run_test`` took before it worked from FFT sums: the
``T x T`` kernel, the dense Gram and the ``T x K`` basis ``Phi U^{-1}``.
``grid_weights`` replays the grid the limit simulator drew from before it
worked from the regime sums. ``read_csv_columns`` is the CLI's CSV reader
as it was before its body went through ``numpy.loadtxt``: one ``float()``
per cell of a ``csv`` module row.
"""

import csv
import math

import numpy as np

from harchow import autok, bases, chowtest, longrun
from harchow.errors import NotPositiveDefinite
from harchow.numkit import cholesky, solve_triangular
from harchow.numkit.linalg import _pivot_factor
from harchow.regression import ols_fit


def simpson(f, a, b, n=4000):
    h = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += f(a + i * h) * (4 if i % 2 else 2)
    return s * h / 3


def cdf_positive(pdf, x, n=4000):
    """Integral of ``pdf`` over (0, x] via u = sqrt(t)."""
    if x <= 0:
        return 0.0

    def g(u):
        u = max(u, 1e-12)
        return 2.0 * u * pdf(u * u)

    return simpson(g, 0.0, math.sqrt(x), n)


def chi2_pdf(k):
    c = (k / 2) * math.log(2) + math.lgamma(k / 2)

    def pdf(x):
        if x <= 0:
            return 0.0
        return math.exp((k / 2 - 1) * math.log(x) - x / 2 - c)

    return pdf


def f_pdf(d1, d2):
    c = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)

    def pdf(x):
        if x <= 0:
            return 0.0
        return math.exp(
            (d1 / 2) * math.log(d1 / d2)
            + (d1 / 2 - 1) * math.log(x)
            - ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
            - c
        )

    return pdf


def quantile_positive(pdf, q):
    """Bisection inverse of the quadrature CDF for a positive-support density."""
    hi = 1.0
    while cdf_positive(pdf, hi) < q:
        hi *= 2
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if cdf_positive(pdf, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * (1 + hi):
            break
    return (lo + hi) / 2


def kernel_inner(a, b, kern):
    """Inner product ``a' C_T b / T^2`` induced by a break kernel matrix."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape == (kern.t,)
    return float(a @ kern.matrix @ b) / kern.t**2


def pivot_factor_unblocked(s, rtol):
    """Cholesky pivots of one symmetric matrix in column order, up to the
    first failing one, by the plain row loop: pivot ``j`` is accepted above
    ``rtol`` times the largest diagonal entry. Returns the factor (rows from
    the failing pivot on are zero) and the accepted count."""
    a = np.asarray(s, dtype=float)
    n = a.shape[0]
    tol = rtol * np.diag(a).max()
    u = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - u[:j, j] @ u[:j, j]
        if pivot <= tol:
            return u, j
        u[j, j] = math.sqrt(pivot)
        u[j, j + 1 :] = (a[j, j + 1 :] - u[:j, j] @ u[:j, j + 1 :]) / u[j, j]
    return u, n


def kernel_factor_refactored(gram, rhs=None):
    """``bases._kernel_factor`` as it was before it sliced its one
    factorization: factor, cut K to the accepted pivots, then refactor the
    kept leading block of the Gram (and of ``rhs``) from scratch."""
    *factor, rank = _pivot_factor(gram, bases._TRANSFORM_PIVOT_RTOL, rhs)
    if 0 < rank < len(gram):
        gram = gram[:rank, :rank]
        kept = None if rhs is None else rhs[:rank]
        *factor, rank = _pivot_factor(gram, bases._TRANSFORM_PIVOT_RTOL, kept)
    if rank < len(gram):
        raise NotPositiveDefinite("Gram matrix too close to singular")
    return factor[0] if rhs is None else tuple(factor)


def spd_solve_two_pass(s, b):
    """``S X = B`` by ``cholesky``, then the forward solve ``U'Y = B`` and
    the back solve ``U X = Y`` as two ``solve_triangular`` calls."""
    u = cholesky(s)
    rhs = np.asarray(b, dtype=float)
    rhs = rhs[:, None] if rhs.ndim == 1 else rhs
    y = solve_triangular(np.swapaxes(u, -1, -2), rhs, lower=True)
    x = solve_triangular(u, y, lower=False)
    return x[..., 0] if np.ndim(b) == 1 else x


def read_csv_columns(path, names):
    """The named columns of a CSV file with a header row, as float arrays,
    read row by row with the ``csv`` module; ``ValueError`` with the CLI's
    message for a file it refuses."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: missing header row")
    header, rows = rows[0], rows[1:]
    unusable = [n for n in names if header.count(n) != 1]
    if unusable:
        raise ValueError(f"{path}: columns {unusable} missing or named more than once")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ragged = [i for i, row in enumerate(rows, start=1) if len(row) != len(header)]
    if ragged:
        raise ValueError(
            f"{path}: data rows {ragged[:5]} do not have {len(header)} fields"
        )
    columns = list(zip(*rows))
    try:
        values = np.array([columns[header.index(n)] for n in names], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric value in columns {names}: {exc}")
    return dict(zip(names, values))


def grid_weights(spec):
    """The limit simulator's grid for a ``LimitSpec``: the regime contrast
    ``phi0`` (n,), the demeaned basis ``tilde`` (n x K) and the weights
    ``W = [phi0, tilde] / sqrt(n)``, whose ``W'W`` is the row covariance of
    ``eta``. The basis is ``series_basis``'s, every one of its K vectors
    kept."""
    n, lam = spec.grid_n, spec.lam
    basis = bases.series_basis(n, spec.k, lam, spec.family)
    assert basis.k == spec.k
    tilde = bases.phi_tilde_matrix(basis.matrix, lam, n)
    k_star = bases.break_index(lam, n)
    phi0 = np.where(np.arange(n) < k_star, 1.0 / lam, -1.0 / (1.0 - lam))
    return phi0, tilde, np.column_stack([phi0, tilde]) / math.sqrt(n)


def commutation_matrix(p):
    """The ``p^2 x p^2`` matrix sending ``vec(A)`` to ``vec(A')``."""
    k = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            k[i * p + j, j * p + i] = 1.0
    return k


def mse_variance_trace(omega):
    """``tr((I + K_pp)(Omega x Omega))``, the variance term of the plug-in
    MSE rule, through the explicit Kronecker product."""
    omega = np.asarray(omega, dtype=float)
    p = omega.shape[0]
    weight = np.eye(p * p) + commutation_matrix(p)
    return float(np.trace(weight @ np.kron(omega, omega)))


def dense_report(data, hyp, variant, k, alpha=0.05, **reference_settings):
    """``run_test``'s report fields (a dict) on the dense path: the basis
    from ``fourier_matrix``, for the transformed family cut to
    ``feasible_k`` and orthonormalized by ``gram_transform`` under
    ``kernel_matrix``; sums of the ``T x 2m`` scores as a matrix product,
    their long-run variance ``Omega`` and the sandwich
    ``R Q^{-1} Omega Q^{-1} R'`` as the contrast variance; the norm factor
    as the demeaned columns' mean square."""
    spec = chowtest.VARIANTS[variant]
    fit = ols_fit(data, hyp)
    r, p, t, lam = hyp.contrast, hyp.p, data.t, data.lam
    if k == "auto":
        series = autok.score_series(r, fit.q_hat, fit.xz, fit.residuals)
        k = autok.mse_optimal_k(autok.build_plugin_model(series), t, p)
    basis = bases.fourier_matrix(t, k, lam)
    if spec.basis_family == bases.FOURIER_TRANSFORMED:
        kern = bases.kernel_matrix(t, lam)
        kept = bases.feasible_k(basis, kern)
        basis = bases.gram_transform(bases.fourier_matrix(t, kept, lam), kern)
    g = basis.matrix.T @ (fit.xz * fit.residuals[:, None]) / math.sqrt(t)
    v = longrun.sandwich_variance(r, fit.q_hat, g.T @ g / basis.k)
    stat_fn = chowtest.wald_stat if spec.statistic == "F" else chowtest.t_stat
    stat = stat_fn(fit.beta_hat, r, v, t)
    tilde = bases.phi_tilde_matrix(basis.matrix, lam, t)
    nf = float((tilde**2).mean(axis=0).mean())
    forms = chowtest.statistic_forms(stat, spec.statistic, nf, p, basis.k, lam)
    form = chowtest.decision_form(spec)
    ref = chowtest.reference(spec, p, basis.k, lam, alpha, **reference_settings)
    p_value, reject = ref.decide(forms[form])
    return {
        "statistic_raw": stat, "statistic_modified": forms["modified"],
        "statistic_scaled": forms["df-scaled"], "decision_statistic": forms[form],
        "reference": ref.name, "k": basis.k, "k_requested": k,
        "p_value": p_value, "critical_value": ref.critical_value,
        "reject": bool(reject), "norm_factor": nf,
    }
