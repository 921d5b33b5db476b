"""Break-dummy regression: design construction, partialling out, and OLS.

The model splits the coefficient vector at a known break fraction: regressors
are zeroed outside their regime, stacking pre-break and post-break copies
side by side. Covariates with stable coefficients are removed from both sides
of the regression by projection before estimating, which leaves the test
statistic machinery downstream unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import break_index
from .errors import RegimeTooSmall
from .numkit import cholesky, spd_solve
from .numkit.linalg import _t


def check_regimes(lam: float, t: int, m: int) -> None:
    """Raise ``RegimeTooSmall`` unless each regime of ``T`` points broken at
    ``lam`` keeps ``m + 2`` of them, the fewest an m-regressor fit takes."""
    k_star = break_index(lam, t)
    if k_star < m + 2 or t - k_star < m + 2:
        raise RegimeTooSmall(
            f"break at {k_star} of {t} leaves a regime below m + 2 = {m + 2}"
        )


@dataclass(frozen=True)
class RegressionData:
    """Observed series plus the break specification.

    ``y`` is the response (length T), ``x`` the break-affected regressors
    (T x m), ``z`` optional stable-coefficient covariates (T x l), and
    ``lam`` the break fraction. Each regime must keep at least ``m + 2``
    observations. A stack of datasets with leading axes, ``y`` of shape
    ``(..., T)`` and ``x`` of shape ``(..., T, m)``, shares ``z`` and ``lam``.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray | None
    lam: float

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim < 2:
            raise ValueError("x must be a T x m matrix or a stack of them")
        if y.shape != x.shape[:-1]:
            raise ValueError("y length must match the rows of x")
        z = None if self.z is None else np.asarray(self.z, dtype=float)
        if z is not None and (z.ndim != 2 or z.shape[0] != x.shape[-2]):
            raise ValueError("z must be a T x l matrix aligned with x")
        arrays = [y, x] + ([z] if z is not None else [])
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("data must be finite with no missing values")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        t, m = x.shape[-2:]
        n_z = 0 if z is None else z.shape[1]
        if t <= 2 * m + n_z + 2:
            raise ValueError(f"need T > 2m + l + 2, got T={t}, m={m}, l={n_z}")
        check_regimes(self.lam, t, m)

    @property
    def t(self) -> int:
        return self.x.shape[-2]

    @property
    def m(self) -> int:
        return self.x.shape[-1]


@dataclass(frozen=True)
class BreakHypothesis:
    """Restrictions ``R beta_1 = R beta_2`` for a ``p x m`` matrix ``R``.

    The implied contrast on the stacked coefficient vector is ``[R, -R]``.
    """

    r_small: np.ndarray

    def __post_init__(self) -> None:
        r = np.atleast_2d(np.asarray(self.r_small, dtype=float))
        object.__setattr__(self, "r_small", r)
        if r.shape[0] > r.shape[1]:
            raise ValueError("need p <= m restrictions")
        cholesky(r @ r.T)  # full row rank check

    @property
    def p(self) -> int:
        return self.r_small.shape[0]

    @property
    def m(self) -> int:
        return self.r_small.shape[1]

    @property
    def contrast(self) -> np.ndarray:
        """The ``p x 2m`` matrix ``[R, -R]`` applied to stacked coefficients."""
        return np.hstack([self.r_small, -self.r_small])


def full_break_hypothesis(m: int) -> BreakHypothesis:
    """Equality of all coefficients across regimes (``R`` the identity)."""
    return BreakHypothesis(np.eye(m))


@dataclass(frozen=True)
class FitResult:
    """OLS output on the (possibly partialled) break design; on a stack of
    datasets every array carries the stack's leading axes."""

    beta_hat: np.ndarray
    residuals: np.ndarray
    q_hat: np.ndarray
    xz: np.ndarray


def build_break_design(x: np.ndarray, lam: float) -> np.ndarray:
    """Stack regime copies: row ``t`` is ``(X_t, 0)`` before the break and
    ``(0, X_t)`` after."""
    x = np.asarray(x, dtype=float)
    t, m = x.shape[-2:]
    k_star = break_index(lam, t)
    if k_star < 1 or t - k_star < 1:
        raise RegimeTooSmall(f"break at {k_star} of {t} leaves an empty regime")
    design = np.zeros(x.shape[:-1] + (2 * m,))
    design[..., :k_star, :m] = x[..., :k_star, :]
    design[..., k_star:, m:] = x[..., k_star:, :]
    return design


def partial_out(a: np.ndarray, z: np.ndarray | None) -> np.ndarray:
    """Residualize the columns of ``a`` (T rows, or a stack of such) on
    ``z`` (annihilator projection)."""
    a = np.asarray(a, dtype=float)
    if z is None or z.size == 0:
        return a.copy()
    z = np.asarray(z, dtype=float)
    coef = spd_solve(z.T @ z, z.T @ a)
    return a - z @ coef


def ols_fit(data: RegressionData, hyp: BreakHypothesis) -> FitResult:
    """OLS on the break design, after projecting off ``z`` when present; on
    a stack of datasets, one fit per member."""
    if hyp.m != data.m:
        raise ValueError(f"hypothesis is {hyp.m}-variate but data has m={data.m}")
    design = build_break_design(data.x, data.lam)
    xz = partial_out(design, data.z)
    yz = partial_out(data.y[..., None], data.z)[..., 0]
    gram = _t(xz) @ xz
    beta = spd_solve(gram, _t(xz) @ yz[..., None])[..., 0]
    residuals = yz - (xz @ beta[..., None])[..., 0]
    q_hat = gram / data.t
    return FitResult(
        beta_hat=beta,
        residuals=residuals,
        q_hat=(q_hat + _t(q_hat)) / 2.0,
        xz=xz,
    )
