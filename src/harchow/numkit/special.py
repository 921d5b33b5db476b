"""Special functions backing the distribution CDFs.

Scalar double-precision implementations of the classical expansions: a
Lanczos approximation for the log-gamma function, the power series and
Lentz-style continued fraction for the regularized incomplete gamma
functions, and the continued fraction for the regularized incomplete beta
function. Accuracy is a few ulps away from machine precision over the
parameter ranges used here (degrees of freedom up to a few hundred), well
inside the 1e-9 budget of the distribution layer.

``regularized_gamma_q``, ``regularized_beta`` and ``erfc`` also take
arrays, broadcast over every argument. The array path runs the scalar loops'
operations in the same order on all elements at once; an element leaves at
the iteration where its scalar loop breaks, and ``exp``/``log``/``log1p``
come from :mod:`math` per element (numpy's differ in the last ulp), so each
entry is bitwise the scalar result. Python and numpy scalars keep the
scalar loops, which are much faster for one value. NaN maps to NaN, and an
infinite argument to the limit of the function.
"""

from __future__ import annotations

import math

import numpy as np

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_EPS = 2.220446049250313e-16
_TINY = 1e-300
_MAX_ITER = 500
_SCALAR_TYPES = (float, int, type(None))


def _scalar(*values) -> bool:
    """Whether every value is a Python or numpy scalar, or None (an absent
    parameter)."""
    for v in values:
        if not isinstance(v, _SCALAR_TYPES) and np.ndim(v):
            return False
    return True


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for ``x > 0`` (Lanczos, g=7)."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the series argument away from zero
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)


def _each(f, values: np.ndarray) -> np.ndarray:
    """``f`` (a :mod:`math` function) applied to every element."""
    return np.array([f(v) for v in values.tolist()], dtype=float)


def _log_gamma_each(values: np.ndarray) -> np.ndarray:
    """:func:`log_gamma` of every element, evaluated once per distinct value."""
    distinct, where = np.unique(values, return_inverse=True)
    return _each(log_gamma, distinct)[where]


def _floor_tiny(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _until_converged(step, iters, result: int, *state: np.ndarray) -> np.ndarray:
    """Run a scalar loop on arrays of independent elements.

    ``step(i, *state)`` returns the next state and a mask of the elements
    whose scalar loop breaks at ``i``. Those leave with ``state[result]``
    as their value; elements still running when ``iters`` ends keep their
    last value, as the scalar loop does.
    """
    out = np.empty(len(state[0]))
    idx = np.arange(len(out))
    for i in iters:
        if not len(idx):
            return out
        *state, done = step(i, *state)
        if done.any():
            out[idx[done]] = state[result][done]
            keep = ~done
            idx = idx[keep]
            state = [s[keep] for s in state]
    out[idx] = state[result]
    return out


def _gamma_front_each(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # exp(-x) x^a / Gamma(a), the factor both gamma expansions end with
    return _each(math.exp, -x + a * _each(math.log, x) - _log_gamma_each(a))


def _gamma_p_series(a: float, x: float) -> float:
    # power series for P(a, x), efficient when x < a + 1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - log_gamma(a))


def _series_step(_, x, denom, term, total):
    denom = denom + 1.0
    term = term * (x / denom)
    total = total + term
    return x, denom, term, total, np.abs(term) < np.abs(total) * _EPS


def _gamma_p_series_each(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    total = _until_converged(_series_step, range(_MAX_ITER), 3, x, a, 1.0 / a, 1.0 / a)
    return total * _gamma_front_each(a, x)


def _gamma_q_contfrac(a: float, x: float) -> float:
    # modified Lentz continued fraction for Q(a, x), efficient when x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - log_gamma(a))


def _gamma_contfrac_step(i, a, b, c, d, h):
    an = -i * (i - a)
    b = b + 2.0
    d = _floor_tiny(an * d + b)
    c = _floor_tiny(b + an / c)
    d = 1.0 / d
    delta = d * c
    h = h * delta
    return a, b, c, d, h, np.abs(delta - 1.0) < _EPS


def _gamma_q_contfrac_each(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    b = x + 1.0 - a
    d = 1.0 / b
    h = _until_converged(
        _gamma_contfrac_step, range(1, _MAX_ITER), 4,
        a, b, np.full_like(b, 1.0 / _TINY), d, d,
    )
    return h * _gamma_front_each(a, x)


def _any(mask) -> bool:
    """Whether a comparison holds for a scalar, or anywhere in an array."""
    return mask if isinstance(mask, bool) else bool(mask.any())


def _gamma_args(a, x) -> None:
    if _any(a <= 0.0):
        raise ValueError(f"shape parameter must be positive, got {a}")
    if _any(x < 0.0):
        raise ValueError(f"argument must be nonnegative, got {x}")


def _gamma_q_each(a, x) -> np.ndarray:
    """Q(a, x) of broadcast arrays."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    _gamma_args(a, x)
    # x = 0, x = inf and NaN take their limits; the rest split as the scalar does
    out = np.where(x == 0.0, 1.0, np.where(x == math.inf, 0.0, x))
    series = (x > 0.0) & (x < a + 1.0)
    contfrac = (x >= a + 1.0) & (x < math.inf)
    out[series] = 1.0 - _gamma_p_series_each(a[series], x[series])
    out[contfrac] = _gamma_q_contfrac_each(a[contfrac], x[contfrac])
    return out


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    _gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if math.isnan(x):
        return x
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    if not _scalar(a, x):
        return _gamma_q_each(a, x)
    _gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if math.isnan(x):
        return x
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _beta_contfrac_step(m, a, b, x, qab, qap, qam, c, d, h):
    m2 = 2 * m
    aa = m * (b - m) * x / ((qam + m2) * (a + m2))
    d = _floor_tiny(1.0 + aa * d)
    c = _floor_tiny(1.0 + aa / c)
    d = 1.0 / d
    h = h * (d * c)
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
    d = _floor_tiny(1.0 + aa * d)
    c = _floor_tiny(1.0 + aa / c)
    d = 1.0 / d
    delta = d * c
    h = h * delta
    return a, b, x, qab, qap, qam, c, d, h, np.abs(delta - 1.0) < _EPS


def _beta_contfrac_each(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    qab = a + b
    qap = a + 1.0
    d = 1.0 / _floor_tiny(1.0 - qab * x / qap)
    return _until_converged(
        _beta_contfrac_step, range(1, _MAX_ITER), 8,
        a, b, x, qab, qap, a - 1.0, np.ones_like(d), d, d,
    )


def _beta_each(a, b, x) -> np.ndarray:
    """I_x(a, b) of broadcast arrays."""
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, x)))
    _beta_args(a, b, x)
    out = x + 0.0  # x = 0, x = 1 and NaN are their own values; -0.0 becomes 0.0
    inner = (x > 0.0) & (x < 1.0)
    a, b, x = a[inner], b[inner], x[inner]
    front = _each(
        math.exp,
        _log_gamma_each(a + b) - _log_gamma_each(a) - _log_gamma_each(b)
        + a * _each(math.log, x) + b * _each(math.log1p, -x),
    )
    # each element takes the side of its mode the scalar function takes
    low = x < (a + 1.0) / (a + b + 2.0)
    frac = _beta_contfrac_each(
        np.where(low, a, b), np.where(low, b, a), np.where(low, x, 1.0 - x)
    )
    out[inner] = np.where(low, front * frac / a, 1.0 - front * frac / b)
    return out


def _beta_args(a, b, x) -> None:
    if _any(a <= 0.0) or _any(b <= 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if _any(x < 0.0) or _any(x > 1.0):
        raise ValueError(f"argument must lie in [0, 1], got {x}")


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not _scalar(a, b, x):
        return _beta_each(a, b, x)
    _beta_args(a, b, x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if math.isnan(x):
        return x
    front = math.exp(
        log_gamma(a + b)
        - log_gamma(a)
        - log_gamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    # the continued fraction converges fast only below the distribution mode
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def erfc(x: float) -> float:
    """Complementary error function via the incomplete gamma route; 0 once
    ``x * x`` overflows."""
    if not _scalar(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            q = regularized_gamma_q(0.5, x * x)
        return np.where(x < 0.0, 2.0 - q, q)
    if x >= 0.0:
        return regularized_gamma_q(0.5, x * x) if x > 0.0 else 1.0
    if x < 0.0:
        return 2.0 - erfc(-x)
    return x  # NaN
