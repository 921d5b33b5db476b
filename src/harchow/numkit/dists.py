"""Reference distributions: normal, chi-square, Student t, and Fisher F.

CDFs and upper tails are assembled from the incomplete gamma/beta functions
in :mod:`harchow.numkit.special`; an upper tail is computed directly, not as
``1 - cdf``, so it keeps its relative accuracy far out where the CDF rounds
to 1. ``dist_sf`` also takes an array of points and a law whose degrees of
freedom are arrays, broadcast elementwise, each entry bitwise the scalar
tail. Quantiles invert the CDF with a bracketed
Newton iteration that falls back to bisection whenever a step leaves the
bracket, so they inherit the CDF's accuracy (about 1e-14, comfortably within
the 1e-8 quantile contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import (
    _pick, _scalar, erfc, log_gamma, regularized_beta, regularized_gamma_p,
    regularized_gamma_q,
)

_FAMILIES = ("normal", "chi-square", "student-t", "fisher-f")


@dataclass(frozen=True)
class DistFamily:
    """A reference distribution: family name plus degrees of freedom, each a
    positive finite number or an array of them (one law per entry, for
    :func:`dist_sf`; such a law neither hashes nor compares with ``==``)."""

    family: str
    df1: float | None = None
    df2: float | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        needed = {"normal": 0, "chi-square": 1, "student-t": 1, "fisher-f": 2}[
            self.family
        ]
        given = [d for d in (self.df1, self.df2) if d is not None]
        if len(given) != needed:
            raise ValueError(
                f"{self.family} takes {needed} degrees-of-freedom parameters"
            )
        for d in given:
            if _scalar(d):
                ok = 0 < d < math.inf
            else:
                ok = np.all((np.asarray(d) > 0) & (np.asarray(d) < math.inf))
            if not ok:
                raise ValueError(
                    f"degrees of freedom must be positive and finite, got {d}"
                )


def normal() -> DistFamily:
    return DistFamily("normal")


def chi_square(df: float) -> DistFamily:
    return DistFamily("chi-square", df)


def student_t(df: float) -> DistFamily:
    return DistFamily("student-t", df)


def fisher_f(df1: float, df2: float) -> DistFamily:
    return DistFamily("fisher-f", df1, df2)


def dist_cdf(d: DistFamily, x: float) -> float:
    """Cumulative distribution function of ``d`` at ``x``."""
    x = float(x)
    if d.family == "normal":
        return 0.5 * erfc(-x / math.sqrt(2.0))
    if d.family == "chi-square":
        if x <= 0.0:
            return 0.0
        return regularized_gamma_p(d.df1 / 2.0, x / 2.0)
    if d.family == "student-t":
        return 1.0 - dist_sf(d, x) if x > 0.0 else dist_sf(d, -x)
    # fisher-f
    if x <= 0.0:
        return 0.0
    d1, d2 = d.df1, d.df2
    z = d1 * x / (d1 * x + d2)
    if z < 1.0:
        return regularized_beta(d1 / 2.0, d2 / 2.0, z)
    # z rounds to 1, or is NaN once d1 x overflows: the upper tail keeps the
    # digits that I_z(d1/2, d2/2) = 1 would lose when d2 is small
    return 1.0 - dist_sf(d, x)


@np.errstate(over="ignore")  # x * x overflows to inf, as in float arithmetic
def dist_sf(d: DistFamily, x: float | np.ndarray) -> float | np.ndarray:
    """Upper tail ``P(X > x)`` of ``d``, evaluated directly; elementwise
    over an array ``x`` and array degrees of freedom."""
    x = float(x) if _scalar(x, d.df1, d.df2) else np.asarray(x, dtype=float)
    if d.family == "normal":
        return 0.5 * erfc(x / math.sqrt(2.0))
    if d.family == "student-t":
        nu = d.df1
        tail = 0.5 * regularized_beta(nu / 2.0, 0.5, nu / (nu + x * x))
        return _pick(x == 0.0, 0.5, _pick(x > 0.0, tail, 1.0 - tail))
    # points at or below 0 take a harmless stand-in and tail 1
    nonpositive = x <= 0.0
    x = _pick(nonpositive, 1.0, x)
    if d.family == "chi-square":
        tail = regularized_gamma_q(d.df1 / 2.0, x / 2.0)
    else:
        d1, d2 = d.df1, d.df2
        tail = regularized_beta(d2 / 2.0, d1 / 2.0, d2 / (d1 * x + d2))
    return _pick(nonpositive, 1.0, tail)


def dist_pdf(d: DistFamily, x: float) -> float:
    """Density of ``d`` at ``x`` (used by the quantile Newton steps)."""
    x = float(x)
    if d.family == "normal":
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if d.family == "chi-square":
        if x <= 0.0:
            return 0.0
        k = d.df1
        return math.exp(
            (k / 2.0 - 1.0) * math.log(x) - x / 2.0 - (k / 2.0) * math.log(2.0)
            - log_gamma(k / 2.0)
        )
    if d.family == "student-t":
        nu = d.df1
        return math.exp(
            log_gamma((nu + 1.0) / 2.0)
            - log_gamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - ((nu + 1.0) / 2.0) * math.log1p(x * x / nu)
        )
    if x <= 0.0:
        return 0.0
    d1, d2 = d.df1, d.df2
    half1, half2 = d1 / 2.0, d2 / 2.0
    return math.exp(
        half1 * math.log(d1 / d2)
        + (half1 - 1.0) * math.log(x)
        - (half1 + half2) * math.log1p(d1 * x / d2)
        - (log_gamma(half1) + log_gamma(half2) - log_gamma(half1 + half2))
    )


def _bracket(d: DistFamily, q: float) -> tuple[float, float]:
    symmetric = d.family in ("normal", "student-t")
    cap = 1e12 if symmetric else 1e15
    reach = 1.0
    while (symmetric and dist_cdf(d, -reach) > q) or dist_cdf(d, reach) < q:
        if reach > cap:
            raise ValueError(
                f"the {q} quantile of {d} lies beyond {reach:.3g}: no bracket closes"
            )
        reach *= 2.0
    return (-reach if symmetric else 0.0), reach


def dist_quantile(d: DistFamily, q: float) -> float:
    """Quantile (inverse CDF) of ``d`` at probability ``q`` in (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {q}")
    lo, hi = _bracket(d, q)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        err = dist_cdf(d, x) - q
        if err > 0.0:
            hi = x
        else:
            lo = x
        if abs(err) < 1e-14:
            break
        slope = dist_pdf(d, x)
        step_ok = slope > 0.0 and math.isfinite(slope)
        x_new = x - err / slope if step_ok else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < 1e-13 * (1.0 + abs(x_new)):
            x = x_new
            break
        x = x_new
    return x
