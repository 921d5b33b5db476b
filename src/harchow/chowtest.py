"""Break-test statistics, reference distributions, and the full test pipeline.

One statistic core serves :func:`run_test` and the Monte Carlo engine:

* :func:`series_statistics`: per K, the Wald or t statistic, with
  contrast variance ``V = G'G / K``, the K used and its norm factor, from
  one :func:`series_sums` call on the ``T x p`` score proxy or a stack;
* :func:`statistic_forms`, on scalars or arrays: the "modified" form,
  rescaled by ``lam (1 - lam)`` and the average squared demeaned basis value
  (``norm_factor``) for a chi-square or normal reference; the "df-scaled"
  form ``(K - p + 1) / (K p) * lam (1 - lam)`` times the Wald statistic
  (``sqrt(lam (1 - lam))`` times t), asymptotically ``F(p, K - p + 1)``
  (``t(K)``) with a kernel-orthonormal basis; and the "break-weighted" form
  ``lam (1 - lam)`` times the Wald statistic against a plain chi-square,
  decision-identical to the df-scaled form against the rescaled quantile;
* :func:`decision_form`: which form a variant decides on;
* :func:`reference`: the law of a variant for ``(p, K)``, with its name,
  critical value and p-value; simulated laws come from
  :mod:`harchow.fixedlimit`; :meth:`Reference.decide` rejects iff
  ``p < alpha``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autok, fixedlimit, longrun
from .bases import FOURIER_RAW, FOURIER_TRANSFORMED, _leading_mean, series_sums
from .errors import KTooSmall
from .numkit import (
    DistFamily, chi_square, dist_quantile, dist_sf, fisher_f, normal, student_t,
)
from .numkit.linalg import _spd_factor
from .regression import (
    BreakHypothesis,
    FitResult,
    RegressionData,
    full_break_hypothesis,
    ols_fit,
)

Values = float | np.ndarray  # a statistic, or one per replication


@dataclass(frozen=True)
class TestVariant:
    """A named combination of statistic kind, basis family, and reference."""

    name: str
    statistic: str  # "F" or "t"
    basis_family: str
    reference: str  # "chi-square", "normal", "fisher-f", "student-t", "nonstandard"


VARIANTS: dict[str, TestVariant] = {
    v.name: v
    for v in (
        TestVariant("chisq-fourier", "F", FOURIER_RAW, "chi-square"),
        TestVariant("nonstandard-fourier", "F", FOURIER_RAW, "nonstandard"),
        TestVariant("chisq-transformed", "F", FOURIER_TRANSFORMED, "chi-square"),
        TestVariant("f-transformed", "F", FOURIER_TRANSFORMED, "fisher-f"),
        TestVariant("normal-fourier", "t", FOURIER_RAW, "normal"),
        TestVariant("nonstandard-t-fourier", "t", FOURIER_RAW, "nonstandard"),
        TestVariant("normal-transformed", "t", FOURIER_TRANSFORMED, "normal"),
        TestVariant("t-transformed", "t", FOURIER_TRANSFORMED, "student-t"),
    )
}

DEFAULT_VARIANT = "f-transformed"


@dataclass(frozen=True)
class TestReport:
    """Everything a run produces: statistics, reference, decision, diagnostics."""

    variant: str
    statistic_raw: float
    statistic_modified: float
    statistic_scaled: float
    decision_statistic: float
    decision_statistic_name: str
    reference: str
    p: int
    k: int
    k_requested: int
    lam: float
    alpha: float
    p_value: float
    critical_value: float
    reject: bool
    norm_factor: float
    plugin: autok.PluginModel | None = None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["lambda"] = out.pop("lam")
        plugin = out.pop("plugin")
        if plugin is not None:
            out["plugin"] = plugin.to_dict()
        return out


def wald_stat(beta_hat: np.ndarray, r: np.ndarray, v: np.ndarray, t: int) -> Values:
    """Wald statistic ``T (R b)' V^{-1} (R b)`` for the contrast variance
    ``V``; one per member of a stack of estimates and variances. The loop
    that factors ``V = U'U`` (numkit's pivot rule) solves ``U'y = R b``, and
    the statistic is ``T y'y``, the limit simulator's form for its draws."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    rb = (r @ np.asarray(beta_hat, dtype=float)[..., None])[..., 0]
    # R b's leading axes beyond V's become columns: each V is factored once
    outer = rb.shape[: max(rb.ndim + 1 - np.ndim(v), 0)]
    _, y = _spd_factor(v, np.moveaxis(rb.reshape((-1,) + rb.shape[len(outer):]), 0, -1))
    stat = t * np.moveaxis((y * y).sum(axis=-2), -1, 0)
    stat = stat.reshape(outer + stat.shape[1:])
    return float(stat) if stat.ndim == 0 else stat


def t_stat(beta_hat: np.ndarray, r: np.ndarray, v: np.ndarray, t: int) -> float:
    """t statistic ``sqrt(T) R b / sqrt(V)`` for a single restriction, the
    signed root of its Wald statistic: one form and one rule for ``V``."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if r.shape[0] != 1 or v.shape != (1, 1):
        raise ValueError("the t statistic requires exactly one restriction")
    rb = float((r @ np.asarray(beta_hat, dtype=float))[0])
    return math.copysign(math.sqrt(wald_stat(beta_hat, r, v, t)), rb)


def variant_spec(name: str, statistic: str | None = None) -> TestVariant:
    """The named variant; ``ValueError`` for an unknown name or, when
    ``statistic`` is given, a variant of the other statistic kind."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}")
    spec = VARIANTS[name]
    if statistic is not None and spec.statistic != statistic:
        raise ValueError(
            f"expected a variant with a {statistic} statistic, got {name!r}"
        )
    return spec


def _k_policy(k, t: int, grid: bool = False) -> str | list[int]:
    """``k`` as ``"auto"`` or a list of ints: ``"auto"``, one whole number
    (an integral float or numpy int counts) or, with ``grid``, a non-empty
    sequence of them. ``ValueError`` for anything else or for a K outside
    ``1..T-2``."""
    if isinstance(k, str) and k == "auto":
        return "auto"
    many = grid and np.ndim(k) > 0
    values = list(k) if many else [k]
    if not values:
        raise ValueError("no K values requested")
    for v in values:
        if not (isinstance(v, numbers.Integral)
                or isinstance(v, numbers.Real) and float(v).is_integer()):
            what = "K grid points must be integers" if many else "need an integer K"
            raise ValueError(f"{what} or 'auto', got {v!r}")
    ks = [int(v) for v in values]
    bad = [v for v in ks if not 1 <= v <= t - 2]
    if bad:
        raise ValueError(f"need 1 <= K <= T - 2 = {t - 2}, got K={bad}")
    return ks


def series_statistics(
    fit: FitResult, r: np.ndarray, v_series: np.ndarray, lam: float, family: str,
    statistic: str, ks: list,
) -> list[tuple[Values, int | np.ndarray, float | np.ndarray]]:
    """``(statistic, K used, norm factor)`` per K in ``ks``: the Wald
    (``"F"``) or t statistic from the sums ``G`` of the score proxy
    (:func:`autok.score_series`), ``G'G / K`` being the contrast variance.
    A stack ``(..., T, p)`` is folded into ``T x (B p)`` columns for one
    :func:`series_sums` call at the largest K; a K, or one per member, uses
    the leading ``min(K, kept)`` rows and the mean of their norm terms.
    :class:`KTooSmall` if a K used is below ``p``."""
    *lead, t, p = v_series.shape
    columns = np.moveaxis(v_series, -2, 0).reshape(t, -1)
    g, norms = series_sums(columns, max(int(np.max(k)) for k in ks), lam, family)
    sums = np.moveaxis(g.reshape(len(norms), *lead, p), 0, -2)
    used = [np.minimum(k, len(norms)) for k in ks]
    low = min(int(np.min(k)) for k in used)
    if low < p:
        raise KTooSmall(f"only {low} usable basis vectors for p={p}")
    stat = wald_stat if statistic == "F" else t_stat
    return [
        (stat(fit.beta_hat, r, longrun.sums_outer(sums, k), t), k,
         _leading_mean(norms, k))
        for k in used
    ]


def statistic_forms(
    raw: Values, statistic: str, nf: Values, p: int, k: int | np.ndarray, lam: float
) -> dict[str, Values]:
    """Every form of a raw statistic keyed by name; array-safe.

    The keys are ``raw``, ``modified``, ``df-scaled`` and ``break-weighted``;
    for a t statistic the last two coincide. A norm factor ``nf <= 0``
    raises ``ValueError``, and for a Wald statistic ``K < p`` raises
    :class:`KTooSmall`.
    """
    if statistic == "F" and np.any(np.asarray(k) < p):
        raise KTooSmall(f"need K >= p, got K={np.min(k)}, p={p}")
    if np.any(np.asarray(nf) <= 0.0):
        raise ValueError("norm factor must be positive")
    if statistic == "F":
        scaled = (k - p + 1) / (k * p) * lam * (1.0 - lam) * raw
        weighted = lam * (1.0 - lam) * raw
        modified = lam * (1.0 - lam) * nf * raw
    else:
        scaled = weighted = np.sqrt(lam * (1.0 - lam)) * raw
        modified = np.sqrt(lam * (1.0 - lam) * nf) * raw
    return {
        "raw": raw, "modified": modified, "df-scaled": scaled,
        "break-weighted": weighted,
    }


def decision_form(spec: TestVariant) -> str:
    """The form a variant decides on.

    Simulated references and the raw Fourier basis use the modified form.
    The kernel-orthonormal basis uses the df-scaled form against ``F`` or
    ``t(K)``, and the break-weighted form against chi-square or normal.
    """
    if spec.reference == "nonstandard" or spec.basis_family == FOURIER_RAW:
        return "modified"
    if spec.reference in ("fisher-f", "student-t"):
        return "df-scaled"
    return "break-weighted"


@dataclass(frozen=True)
class Reference:
    """The law a decision statistic is compared with at level ``alpha``.

    Two-sided references compare ``|x|``; a simulated two-sided law already
    holds absolute draws.
    """

    name: str
    law: DistFamily | fixedlimit.SimulatedDistribution
    alpha: float
    two_sided: bool = False

    @property
    def critical_value(self) -> float:
        if isinstance(self.law, fixedlimit.SimulatedDistribution):
            return fixedlimit.critical_value(self.law, self.alpha)
        level = self.alpha / 2.0 if self.two_sided else self.alpha
        return dist_quantile(self.law, 1.0 - level)

    def p_value(self, x: Values) -> Values:
        """Upper-tail probability of ``x``, computed directly rather than as
        one minus the CDF; elementwise on arrays, in one pass."""
        if self.two_sided:
            x = abs(x)
        if isinstance(self.law, fixedlimit.SimulatedDistribution):
            return fixedlimit.empirical_p(self.law, x)
        tail = dist_sf(self.law, x)
        return 2.0 * tail if self.two_sided else tail

    def decide(self, x: Values) -> tuple[Values, bool | np.ndarray]:
        """``(p_value, reject)``; every entry point rejects iff ``p < alpha``."""
        p_value = self.p_value(x)
        return p_value, p_value < self.alpha


def reference(
    spec: TestVariant, p: int, k: int | np.ndarray, lam: float, alpha: float,
    cv_seed: int = 0, cv_replications: int = 10_000, cv_grid: int = 1000,
    cache: fixedlimit.CriticalValueCache | None = None,
) -> Reference:
    """Reference law of a variant for ``p`` restrictions and ``K`` vectors;
    simulated laws come from ``cache`` (default: the process-wide cache).

    An analytic law also takes an array of K, one per decision statistic,
    and then decides each statistic against the law of its own K.
    """
    per_k = np.ndim(k) > 0
    if spec.reference == "chi-square":
        return Reference(f"chi-square({p})", chi_square(p), alpha)
    if spec.reference == "fisher-f":
        df2 = f"K - {p - 1}" if per_k else k - p + 1
        return Reference(f"F({p}, {df2})", fisher_f(p, k - p + 1), alpha)
    if spec.reference == "normal":
        return Reference("normal", normal(), alpha, two_sided=True)
    if spec.reference == "student-t":
        df = "K" if per_k else k
        return Reference(f"t({df})", student_t(k), alpha, two_sided=True)
    if per_k:
        raise ValueError("a simulated reference takes one K")
    cache = cache if cache is not None else fixedlimit.shared_cache
    limit = fixedlimit.LimitSpec(
        p=p, k=k, lam=lam, family=spec.basis_family, grid_n=cv_grid,
        replications=cv_replications, seed=cv_seed,
    )
    settings = f"n={cv_grid}, reps={cv_replications}, seed={cv_seed}"
    if spec.statistic == "F":
        dist = cache.get(limit, fixedlimit.F_STAR_INF)
        return Reference(f"simulated F_star_inf({settings})", dist, alpha)
    dist = cache.get(limit, fixedlimit.T_STAR_INF)
    dist = replace(dist, draws=np.sort(np.abs(dist.draws)))
    return Reference(f"simulated t_star_inf({settings}), two-sided", dist, alpha, True)


def run_test(
    data: RegressionData,
    hyp: BreakHypothesis | None = None,
    variant: str = DEFAULT_VARIANT,
    k: int | str = "auto",
    alpha: float = 0.05,
    cv_seed: int = 0,
    cv_replications: int = 10_000,
    cv_grid: int = 1000,
    cache: fixedlimit.CriticalValueCache | None = None,
) -> TestReport:
    """Run one named test variant end to end and report every statistic form.

    Parameters
    ----------
    data : RegressionData
        Response, break regressors, optional stable covariates, break fraction.
    hyp : BreakHypothesis, optional
        Restrictions on the coefficient change; defaults to equality of all
        coefficients. The t variants require a single restriction.
    variant : str
        One of ``VARIANTS``; pairs a basis family with a reference.
    k : int or "auto"
        Basis count, a whole number in ``1..T-2``, or "auto" for the
        plug-in MSE rule. For the kernel-orthonormal family the count is
        reduced to the numerically feasible maximum when necessary; the
        report carries both values.
    alpha : float
        Test level for the reported critical value and decision.
    cv_seed, cv_replications, cv_grid : int
        Simulation settings for the nonstandard references only.
    cache : CriticalValueCache, optional
        Cache for simulated references; a process-wide cache is the default.
    """
    spec = variant_spec(variant)
    k_policy = _k_policy(k, data.t)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {alpha}")
    if hyp is None:
        hyp = full_break_hypothesis(data.m)
    if spec.statistic == "t" and hyp.p != 1:
        raise ValueError("t variants require a single restriction")

    fit = ols_fit(data, hyp)
    r = hyp.contrast
    p = hyp.p
    t = data.t

    v_series = autok.score_series(r, fit.q_hat, fit.xz, fit.residuals)
    plugin = None
    if k_policy == "auto":
        plugin = autok.build_plugin_model(v_series)
        k_requested = autok.mse_optimal_k(plugin, t, p)
    else:
        [k_requested] = k_policy

    [(stat_raw, k_used, nf)] = series_statistics(
        fit, r, v_series, data.lam, spec.basis_family, spec.statistic, [k_requested]
    )
    k_used = int(k_used)
    forms = statistic_forms(stat_raw, spec.statistic, nf, p, k_used, data.lam)
    form = decision_form(spec)
    ref = reference(
        spec, p, k_used, data.lam, alpha, cv_seed, cv_replications, cv_grid, cache
    )
    p_value, reject = ref.decide(forms[form])

    return TestReport(
        variant=variant,
        statistic_raw=stat_raw,
        statistic_modified=forms["modified"],
        statistic_scaled=forms["df-scaled"],
        decision_statistic=forms[form],
        decision_statistic_name=form,
        reference=ref.name,
        p=p,
        k=k_used,
        k_requested=k_requested,
        lam=data.lam,
        alpha=alpha,
        p_value=p_value,
        critical_value=ref.critical_value,
        reject=bool(reject),
        norm_factor=nf,
        plugin=plugin,
    )
