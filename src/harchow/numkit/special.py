"""Special functions backing the distribution CDFs.

Double-precision implementations of the classical expansions: a Lanczos
approximation for the log-gamma function, the power series and Lentz-style
continued fraction for the regularized incomplete gamma functions, and the
continued fraction for the regularized incomplete beta function. Accuracy is
a few ulps away from machine precision over the parameter ranges used here
(degrees of freedom up to a few hundred), well inside the 1e-9 budget of the
distribution layer.

Each expansion is written once, as a step function that advances one
iteration. ``_until_converged`` drives it: a plain loop on Python floats,
and on arrays a masked loop in which an element leaves at the iteration
where its own float loop breaks. Both run the same operations in the same
order, and ``exp``/``log``/``log1p`` come from :mod:`math` per element
(numpy's differ in the last ulp), so every array entry is bitwise the float
result. ``regularized_gamma_q``, ``regularized_beta`` and ``erfc`` take
arrays, broadcast over every argument; Python and numpy scalars are turned
into floats and stay on the float loop, which is much faster for one value.
NaN maps to NaN, and an infinite argument to the limit of the function.
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


def _pick(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: a plain conditional on a
    bool, ``np.where`` on an array."""
    if cond is True:
        return a
    if cond is False:
        return b
    return np.where(cond, a, b)


def _each(f, v):
    """``f`` (a :mod:`math` function) of a float, or of every element of an
    array."""
    if isinstance(v, np.ndarray):
        return np.array([f(e) for e in v.tolist()], dtype=float)
    return f(v)


def _log_gamma_each(v):
    """:func:`log_gamma` of a float, or of every element of an array,
    evaluated once per distinct value."""
    if not isinstance(v, np.ndarray):
        return log_gamma(v)
    distinct, where = np.unique(v, return_inverse=True)
    return _each(log_gamma, distinct)[where]


def _floor_tiny(v):
    return _pick(abs(v) < _TINY, _TINY, v)


def _until_converged(step, iters, result: int, *state):
    """Run an expansion until it converges and return ``state[result]``.

    ``step(i, *state)`` returns the next state and whether the loop breaks
    at ``i``. Floats run a plain loop. Arrays hold independent elements:
    those whose loop breaks at ``i`` leave with their value, and elements
    still running when ``iters`` ends keep their last value, as the float
    loop does.
    """
    if not isinstance(state[0], np.ndarray):
        for i in iters:
            *state, done = step(i, *state)
            if done:
                break
        return state[result]
    state = np.broadcast_arrays(*state)
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


def _gamma_front(a, x):
    # exp(-x) x^a / Gamma(a), the factor both gamma expansions end with
    return _each(math.exp, -x + a * _each(math.log, x) - _log_gamma_each(a))


def _series_step(_, x, denom, term, total):
    denom = denom + 1.0
    term = term * (x / denom)
    total = total + term
    return x, denom, term, total, abs(term) < abs(total) * _EPS


def _gamma_series(a, x):
    # power series for P(a, x), efficient when x < a + 1
    total = _until_converged(_series_step, range(_MAX_ITER), 3, x, a, 1.0 / a, 1.0 / a)
    return total * _gamma_front(a, x)


def _gamma_contfrac_step(i, a, b, c, d, h):
    an = -i * (i - a)
    b = b + 2.0
    d = _floor_tiny(an * d + b)
    c = _floor_tiny(b + an / c)
    d = 1.0 / d
    delta = d * c
    h = h * delta
    return a, b, c, d, h, abs(delta - 1.0) < _EPS


def _gamma_contfrac(a, x):
    # modified Lentz continued fraction for Q(a, x), efficient when x >= a + 1
    b = x + 1.0 - a
    d = 1.0 / b
    h = _until_converged(
        _gamma_contfrac_step, range(1, _MAX_ITER), 4, a, b, 1.0 / _TINY, d, d
    )
    return h * _gamma_front(a, x)


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
    out[series] = 1.0 - _gamma_series(a[series], x[series])
    out[contfrac] = _gamma_contfrac(a[contfrac], x[contfrac])
    return out


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    _gamma_args(a, x)
    a, x = float(a), float(x)
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if math.isnan(x):
        return x
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_contfrac(a, x)


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    if not _scalar(a, x):
        return _gamma_q_each(a, x)
    _gamma_args(a, x)
    a, x = float(a), float(x)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if math.isnan(x):
        return x
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_contfrac(a, x)


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
    return a, b, x, qab, qap, qam, c, d, h, abs(delta - 1.0) < _EPS


def _beta_inner(a, b, x):
    """I_x(a, b) for 0 < x < 1."""
    front = _each(
        math.exp,
        _log_gamma_each(a + b) - _log_gamma_each(a) - _log_gamma_each(b)
        + a * _each(math.log, x) + b * _each(math.log1p, -x),
    )
    # the continued fraction converges fast only below the distribution
    # mode; above it, expand I_{1-x}(b, a) and take the complement
    low = x < (a + 1.0) / (a + b + 2.0)
    a_, b_, x_ = _pick(low, a, b), _pick(low, b, a), _pick(low, x, 1.0 - x)
    qab = a_ + b_
    qap = a_ + 1.0
    d = 1.0 / _floor_tiny(1.0 - qab * x_ / qap)
    frac = _until_converged(
        _beta_contfrac_step, range(1, _MAX_ITER), 8,
        a_, b_, x_, qab, qap, a_ - 1.0, 1.0, d, d,
    )
    return _pick(low, front * frac / a, 1.0 - front * frac / b)


def _beta_each(a, b, x) -> np.ndarray:
    """I_x(a, b) of broadcast arrays."""
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, x)))
    _beta_args(a, b, x)
    out = x + 0.0  # x = 0, x = 1 and NaN are their own values; -0.0 becomes 0.0
    inner = (x > 0.0) & (x < 1.0)
    out[inner] = _beta_inner(a[inner], b[inner], x[inner])
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
    a, b, x = float(a), float(b), float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if math.isnan(x):
        return x
    return _beta_inner(a, b, x)


@np.errstate(over="ignore")  # x * x overflows to inf, as in float arithmetic
def erfc(x: float) -> float:
    """Complementary error function via the incomplete gamma route; 0 once
    ``x * x`` overflows."""
    x = float(x) if _scalar(x) else np.asarray(x, dtype=float)
    q = regularized_gamma_q(0.5, x * x)
    return _pick(x < 0.0, 2.0 - q, q)
