"""Data-driven choice of the basis count K.

Builds the p-dimensional score proxy series for the contrast under test, fits
a VAR(1) to it, and plugs the implied long-run variance and spectral
curvature into an MSE-minimizing rule for K.

The rule trades the squared smoothing bias of the series estimator, which
grows like ``K^4 (vec B)'(vec B) / T^4`` with ``B = sum_h h^2 Gamma(h)``,
against its variance ``(1/K) tr((I + K_pp)(Omega x Omega))`` (``K_pp`` the
commutation matrix), giving a ``T^{4/5}`` rate:

    K* = [tr((I + K_pp)(Omega x Omega)) / (2 pi^4 vec(B)'vec(B))]^{1/5} T^{4/5}

rounded half-up and clamped to ``[max(p, 2), T - 2]``. The leading constant
is calibrated on the break-design Monte Carlo in the test suite: persistent
designs select single-digit counts at T = 100 while white-noise designs grow
toward the cap, and the selected counts scale like ``T^{4/5}`` at fixed
persistence. The trace is evaluated in its closed form
``tr(Omega)^2 + tr(Omega^2)`` (Magnus and Neudecker 1979, *Ann. Statist.*
7(2)), so no ``p^2 x p^2`` matrix is formed.

Every step also takes a stack of score series with leading axes (one per
Monte Carlo replication, say) and returns one result per member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .numkit import cholesky, lyapunov_solve, solve_general, spd_solve, spectral_radius
from .numkit.linalg import _t

RADIUS_LIMIT = 1.0 - 1e-6
RADIUS_CLAMP = 0.97


@dataclass(frozen=True)
class PluginModel:
    """VAR(1) fit on the score proxy plus the derived plug-in ingredients."""

    a_hat: np.ndarray
    sigma_hat: np.ndarray
    gamma0: np.ndarray
    omega_v: np.ndarray
    b_hat: np.ndarray
    clamped: bool

    @property
    def p(self) -> int:
        return self.a_hat.shape[-1]

    def to_dict(self) -> dict:
        return {
            "a_hat": self.a_hat.tolist(),
            "sigma_hat": self.sigma_hat.tolist(),
            "gamma0": self.gamma0.tolist(),
            "omega_v": self.omega_v.tolist(),
            "b_hat": self.b_hat.tolist(),
            "clamped": self.clamped,
        }


def score_series(
    r: np.ndarray, q_hat: np.ndarray, xz: np.ndarray, u_hat: np.ndarray
) -> np.ndarray:
    """Score proxy rows ``R Q^{-1} xz_t' u_t``, a T x p matrix, computed as
    the T x 2m scores times ``Q^{-1} R'``: one ``2m x p`` solve per member
    of a stack."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    scores = np.asarray(xz, dtype=float) * np.asarray(u_hat, dtype=float)[..., None]
    return scores @ spd_solve(q_hat, r.T)


def fit_var1(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Least-squares VAR(1) fit without intercept; returns (A, Sigma, clamped).

    The score proxy is mean zero within regimes by construction, so no
    intercept is estimated. The innovation covariance uses divisor
    ``T - 1 - p``. A fit with spectral radius at or above ``1 - 1e-6`` is
    rescaled to radius 0.97 and flagged instead of failing, since an
    explosive plug-in fit should degrade gracefully to a persistent one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    t, p = v.shape[-2:]
    if t < p + 10:
        raise ValueError(f"need T >= p + 10 observations, got T={t}, p={p}")
    lagged, lead = v[..., :-1, :], v[..., 1:, :]
    try:
        a_hat = _t(spd_solve(_t(lagged) @ lagged, _t(lagged) @ lead))
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(f"degenerate score proxy series: {exc}") from exc
    resid = lead - lagged @ _t(a_hat)
    sigma = _t(resid) @ resid / (t - 1 - p)
    sigma = (sigma + _t(sigma)) / 2.0
    cholesky(sigma)  # reject degenerate (e.g. constant) series
    radius = spectral_radius(a_hat)
    clamped = radius >= RADIUS_LIMIT
    shrink = np.where(clamped, RADIUS_CLAMP / np.maximum(radius, RADIUS_LIMIT), 1.0)
    a_hat = a_hat * shrink[..., None, None]
    return a_hat, sigma, bool(clamped) if np.ndim(clamped) == 0 else clamped


def build_plugin_model(v: np.ndarray) -> PluginModel:
    """Fit the VAR(1) to the score proxy and derive the plug-in quantities."""
    return plugin_from_fit(*fit_var1(v))


def plugin_from_fit(
    a_hat: np.ndarray, sigma: np.ndarray, clamped: bool = False
) -> PluginModel:
    """Plug-in ingredients implied by a VAR(1) coefficient and covariance.

    ``Gamma(0)`` solves the discrete Lyapunov equation of the fit,
    ``Omega_v = (I - A)^{-1} Sigma (I - A')^{-1}`` is the implied long-run
    variance, and the curvature ``B = sum_h h^2 Gamma(h)`` uses the closed
    form ``sum_{h>=1} h^2 A^h = A (I + A)(I - A)^{-3}``.
    """
    a_hat = np.atleast_2d(np.asarray(a_hat, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    p = a_hat.shape[-1]
    gamma0 = lyapunov_solve(a_hat, sigma)
    eye = np.eye(p)
    inv_i_minus_a = solve_general(eye - a_hat, eye)
    omega_v = inv_i_minus_a @ sigma @ _t(inv_i_minus_a)
    series_sum = a_hat @ (eye + a_hat) @ inv_i_minus_a @ inv_i_minus_a @ inv_i_minus_a
    s = series_sum @ gamma0
    b_hat = s + _t(s)
    return PluginModel(
        a_hat=a_hat,
        sigma_hat=sigma,
        gamma0=gamma0,
        omega_v=(omega_v + _t(omega_v)) / 2.0,
        b_hat=b_hat,
        clamped=clamped,
    )


def mse_optimal_k(model: PluginModel, t: int, p: int) -> int:
    """MSE-minimizing basis count from the plug-in model, clamped to range;
    one count per member of a stacked model."""
    if model.p != p:
        raise ValueError(f"model dimension {model.p} does not match p={p}")
    k_min, k_max = max(p, 2), t - 2
    b = model.b_hat.reshape(model.b_hat.shape[:-2] + (1, p * p))
    flat = (b @ _t(b))[..., 0, 0]
    omega = model.omega_v
    trace = np.trace(omega, axis1=-2, axis2=-1)
    numerator = trace**2 + (omega * _t(omega)).sum(axis=(-2, -1))
    curved = flat != 0.0
    flat = np.where(curved, flat, 1.0)
    k_star = (numerator / (2.0 * np.pi**4 * flat)) ** 0.2 * t**0.8
    k = np.where(curved, np.clip(np.floor(k_star + 0.5), k_min, k_max), k_max)
    return int(k) if k.ndim == 0 else k.astype(np.int64)
