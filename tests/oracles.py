"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the package's own special-function and
linear-algebra code paths: densities are written from their closed forms with
``math.lgamma``, CDFs come from Simpson quadrature under a square-root
substitution (smooth at the origin even for one degree of freedom), and
quantiles invert the quadrature CDF by bisection. The matrix oracles write
a quantity out in its textbook form, however wasteful.
"""

import math

import numpy as np


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
