"""Output checks and the independent references they compare against.

Every check raises :class:`CheckFailed` on a wrong result. None of them pins
draw digests or exact statistics of the program, so work that changes the
random draws or the arithmetic order still passes; what is checked is what a
correct program must satisfy. The references use plain ``numpy.linalg`` and
``math`` only, never the package's own numeric kernel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# acceptance tolerance of the dense oracle comparison (criterion 3)
ORACLE_RTOL = 1e-9
# grid error of an n = 1000 simulation grid, on top of the sampling error
GRID_RTOL = 0.01
# standard errors of the empirical quantile allowed before failing
QUANTILE_Z = 5.0


class CheckFailed(AssertionError):
    """A benchmark output check found a wrong result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- test-series ---------------------------------------------------------

F_VARIANTS = ("f-transformed", "chisq-fourier", "chisq-transformed")
T_VARIANTS = ("normal-fourier", "normal-transformed", "t-transformed")
TRANSFORMED = ("f-transformed", "chisq-transformed", "normal-transformed", "t-transformed")


def expected_reference(variant: str, p: int, k: int) -> str:
    if variant == "f-transformed":
        return f"F({p}, {k - p + 1})"
    if variant == "t-transformed":
        return f"t({k})"
    if variant.startswith("chisq-"):
        return f"chi-square({p})"
    return "normal"


def check_report(report: dict, variant: str, p: int) -> None:
    """Invariants of one ``harchow test`` JSON report."""
    res = report["result"]
    for key in (
        "statistic_raw", "statistic_modified", "statistic_scaled",
        "decision_statistic", "critical_value", "p_value",
    ):
        require(math.isfinite(res[key]), f"{variant}: {key} is not finite")
    require(0.0 < res["p_value"] <= 1.0, f"{variant}: p_value {res['p_value']} outside (0, 1]")
    require(
        res["reject"] == (res["p_value"] < res["alpha"]),
        f"{variant}: reject={res['reject']} disagrees with p_value={res['p_value']}",
    )
    require(res["p"] == p, f"{variant}: p={res['p']}, expected {p}")
    require(
        1 <= res["k"] <= res["k_requested"],
        f"{variant}: K={res['k']} exceeds requested {res['k_requested']}",
    )
    want = expected_reference(variant, p, res["k"])
    require(res["reference"] == want, f"{variant}: reference {res['reference']!r}, expected {want!r}")


def fourier_columns(t: int, k: int) -> np.ndarray:
    r = np.arange(1, t + 1) / t
    freq = np.arange(k) // 2 + 1
    angle = 2.0 * np.pi * r[:, None] * freq[None, :]
    return np.sqrt(2.0) * np.where(np.arange(k) % 2 == 0, np.cos(angle), np.sin(angle))


def dense_statistic(y: np.ndarray, x: np.ndarray, lam: float, k: int, variant: str) -> float:
    """Raw Wald (or t) statistic recomputed with dense ``numpy.linalg``.

    The transformed basis is ``Phi L^{-T}`` with ``L L' = Phi' C_T Phi / T^2``
    and ``C_T`` the dense break kernel; OLS is a least-squares solve.
    """
    t, m = x.shape
    k_star = int(math.floor(lam * t + 1e-9))
    phi = fourier_columns(t, k)
    if variant in TRANSFORMED:
        c = np.zeros((t, t))
        for lo, hi, w in ((0, k_star, lam), (k_star, t, 1.0 - lam)):
            c[lo:hi, lo:hi] = -1.0 / w**3
            c[np.arange(lo, hi), np.arange(lo, hi)] += t / w**2
        gram = phi.T @ c @ phi / t**2
        chol = np.linalg.cholesky((gram + gram.T) / 2.0)
        phi = np.linalg.solve(chol, phi.T).T
    design = np.zeros((t, 2 * m))
    design[:k_star, :m] = x[:k_star]
    design[k_star:, m:] = x[k_star:]
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    scores = design * (y - design @ beta)[:, None]
    g = phi.T @ scores / math.sqrt(t)
    omega = g.T @ g / k
    contrast = np.hstack([np.eye(m), -np.eye(m)])
    w = np.linalg.solve(design.T @ design / t, contrast.T)
    v = w.T @ omega @ w
    rb = contrast @ beta
    if m == 1:
        return math.sqrt(t) * float(rb[0]) / math.sqrt(float(v[0, 0]))
    return float(t * rb @ np.linalg.solve(v, rb))


def check_oracle(report: dict, y, x, lam: float, variant: str) -> None:
    res = report["result"]
    want = dense_statistic(y, x, lam, res["k"], variant)
    got = res["statistic_raw"]
    gap = abs(got - want) / max(abs(want), 1e-300)
    require(gap <= ORACLE_RTOL, f"{variant}: raw statistic {got!r} vs dense {want!r} (rel {gap:.2e})")


# -- simulate-cv ---------------------------------------------------------

def check_draws(draws: np.ndarray, reps: int, label: str) -> None:
    require(len(draws) == reps, f"{label}: {len(draws)} draws, expected {reps}")
    require(bool(np.all(np.isfinite(draws))), f"{label}: non-finite draws")
    require(bool(np.all(np.diff(draws) >= 0.0)), f"{label}: draws are not sorted")


def check_reload(reloaded: np.ndarray, fresh: np.ndarray, label: str) -> None:
    require(
        reloaded.dtype == fresh.dtype and reloaded.tobytes() == fresh.tobytes(),
        f"{label}: reloaded draws differ from the fresh simulation",
    )


def _f_pdf(x, d1: int, d2: int):
    """``F(d1, d2)`` density, vectorized over positive ``x``."""
    x = np.asarray(x, dtype=float)
    log_c = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return np.exp(
        (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * np.log(x)
        - ((d1 + d2) / 2) * np.log1p(d1 * x / d2) - log_c
    )


def _f_cdf(x: float, d1: int, d2: int, n: int = 4000) -> float:
    """Simpson quadrature of the F density under ``x = u^2`` (smooth at 0)."""
    if x <= 0.0:
        return 0.0
    u = np.linspace(0.0, math.sqrt(x), n + 1)
    u[0] = 1e-12
    g = 2.0 * u * _f_pdf(u * u, d1, d2)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((u[-1] / n) / 3.0 * (weights @ g))


@functools.lru_cache(maxsize=None)
def f_quantile(q: float, d1: int, d2: int) -> float:
    """Analytic ``F(d1, d2)`` quantile by bisection on the quadrature CDF."""
    hi = 1.0
    while _f_cdf(hi, d1, d2) < q:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-10 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if _f_cdf(mid, d1, d2) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_f_quantiles(draws: np.ndarray, p: int, k: int, label: str) -> None:
    """Empirical quantiles of scaled ``F_inf`` draws against ``F(p, K-p+1)``.

    The tolerance is ``QUANTILE_Z`` standard errors of an empirical quantile
    at this replication count, ``sqrt(q (1 - q) / R) / f(x_q)``, plus the
    grid error allowance.
    """
    reps = len(draws)
    d2 = k - p + 1
    for q in (0.90, 0.95, 0.99):
        x_q = f_quantile(q, p, d2)
        se = math.sqrt(q * (1.0 - q) / reps) / float(_f_pdf(x_q, p, d2))
        got = float(draws[int(math.ceil(reps * q)) - 1])
        tol = QUANTILE_Z * se + GRID_RTOL * x_q
        require(
            abs(got - x_q) <= tol,
            f"{label}: {q:.2f} quantile {got:.5f} vs analytic F({p}, {d2}) "
            f"{x_q:.5f} (tolerance {tol:.5f})",
        )


# -- Monte Carlo ---------------------------------------------------------

def check_size_results(results, reps: int, label: str) -> None:
    for r in results:
        require(0.0 <= r.rejection <= 1.0, f"{label}: rejection {r.rejection} outside [0, 1]")
        require(0 <= r.failures <= reps, f"{label}: {r.failures} failures of {reps}")
        require(math.isfinite(r.ave_k) and r.ave_k >= 2.0, f"{label}: average K {r.ave_k}")


def check_power(power: dict, alpha: float, label: str) -> None:
    for family, curve in power["power"].items():
        for delta, value in zip(power["deltas"], curve):
            require(0.0 <= value <= 1.0, f"{label}: {family} power {value} at delta {delta}")
        # the size-adjusted critical value is an order statistic of the null
        # draws, so the null rejection rate can never exceed alpha
        require(curve[0] <= alpha + 1e-12, f"{label}: {family} null rejection {curve[0]} > alpha")


def check_same_csv(serial: str, parallel: str, label: str) -> None:
    require(serial == parallel, f"{label}: CSV differs between worker counts")
    rows = serial.strip().splitlines()
    require(len(rows) >= 2, f"{label}: CSV has no data rows")
