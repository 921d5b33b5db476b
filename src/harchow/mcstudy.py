"""Monte Carlo engine: simulate the study DGPs and measure size and power.

The data-generating process has ``X_t = (1, q_t)`` with ``q_t`` an AR(1) and
the error an independent AR(1) or ARMA(1,1) sharing the same AR parameter.
Under the alternative the second-regime coefficients shift by ``delta`` on
every component. Each replication draws from its own random substream derived
from ``(master seed, cell id, replication index)``, and power experiments
reuse the null innovations across the whole break-size grid (common random
numbers).

Replications are drawn in blocks of ``_BLOCK = 64`` consecutive ones: a
block's streams are seeded and transformed together by
:func:`harchow.numkit.rng.stream_normals`, bitwise equal to one stream per
replication, and its innovations are filtered as one matrix. The
statistics run on a stack of consecutive draw blocks, as many as keep the
stack near ``_STACK_VALUES = 2**15`` series values, at least one: 320
replications at T = 100, 128 at T = 200 and 64 from T = 512 up. The fit,
plug-in rule and :func:`harchow.chowtest.series_statistics` of
:func:`harchow.chowtest.run_test` run with a leading replication axis, and
a stack returns each variant's decision statistic and K used; a break of
size ``delta`` only moves ``beta_2`` by ``delta``. A stack that raises is
evaluated again one draw block at a time, and a failing block one
replication at a time, so exactly the failing replications are flagged.
The stack size depends on T only and workers get whole stacks, so results
are byte-identical for any worker count.

Rejection counts are aggregated as integers in fixed stack order; CSV output
uses fixed-precision formatting so a table is reproducible byte for byte.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import autok, chowtest, fixedlimit
from .bases import break_index
from .errors import HarchowError
from .numkit import RngStream
from .numkit.rng import _require_integers, stream_normals
from .regression import RegressionData, check_regimes, full_break_hypothesis, ols_fit

logger = logging.getLogger(__name__)

F_VARIANTS = (
    "chisq-fourier",
    "nonstandard-fourier",
    "chisq-transformed",
    "f-transformed",
)

TABLE1_GRID = (
    (0.0, 0.0),
    (0.3, 0.0),
    (0.6, 0.0),
    (0.9, 0.0),
    (-0.6, 0.0),
    (-0.3, 0.0),
    (0.6, 0.6),
    (0.9, 0.9),
)

_M = 2  # regressors (1, q_t) of every study design, all tested: p = m
_STREAM_CELL_STRIDE = 2**32
_BLOCK = 64  # replications drawn and filtered together
_STACK_VALUES = 2**15  # series values a stack of draw blocks aims at


@dataclass(frozen=True)
class DgpSpec:
    """One simulation design: sample size, persistence, break size."""

    t: int
    rho: float
    psi: float = 0.0
    delta: float = 0.0
    lam: float = 0.4
    burn_in: int = 500

    def __post_init__(self) -> None:
        _require_integers(t=self.t, burn_in=self.burn_in)
        values = (self.rho, self.psi, self.delta)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"need finite rho, psi and delta, got {values}")
        if abs(self.rho) >= 1.0:
            raise ValueError(f"need |rho| < 1, got {self.rho}")
        if self.t < 50:
            raise ValueError(f"need T >= 50, got {self.t}")
        if self.burn_in < 0:
            raise ValueError("burn-in must be nonnegative")
        check_regimes(self.lam, self.t, _M)


@dataclass(frozen=True)
class ExperimentResult:
    """Rejection frequency of one variant in one design cell."""

    t: int
    rho: float
    psi: float
    delta: float
    variant: str
    k_policy: str
    reps: int
    rejection: float
    mc_se: float
    ave_k: float
    failures: int


def _ar1_filter(eps: np.ndarray, rho: float) -> np.ndarray:
    """Sequential AR(1) recursion along the first axis of a series or of an
    ``n x B`` matrix of series, evaluated block-wise for speed."""
    if rho == 0.0:
        return eps.copy()
    n = len(eps)
    width = 64
    powers = rho ** np.arange(width + 1)
    offsets = np.subtract.outer(np.arange(width), np.arange(width))
    toeplitz = np.tril(powers[np.clip(offsets, 0, width)])
    out = np.empty_like(eps)
    prev = np.zeros(eps.shape[1:])
    for start in range(0, n, width):
        block = eps[start : start + width]
        nb = len(block)
        vals = toeplitz[:nb, :nb] @ block + np.multiply.outer(powers[1 : nb + 1], prev)
        out[start : start + nb] = vals
        prev = vals[-1]
    return out


def _simulate_stack(spec: DgpSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Y, X)`` of every replication whose innovations are a row of ``z``
    (``B x 2n``), as ``B x T`` and ``B x T x 2`` arrays; burn-in discarded.

    Each row's regressor and error innovations are its two halves, so the
    two processes are independent.
    """
    n = spec.t + spec.burn_in
    eps_q, eps_u = z[:, :n].T, z[:, n:].T
    q = _ar1_filter(eps_q, spec.rho)
    shocks = eps_u.copy()
    if spec.psi != 0.0:
        shocks[1:] += spec.psi * eps_u[:-1]
    u = _ar1_filter(shocks, spec.rho)
    q = q[spec.burn_in :].T
    y = u[spec.burn_in :].T.copy()
    x = np.stack([np.ones_like(q), q], axis=-1)
    if spec.delta != 0.0:
        k_star = break_index(spec.lam, spec.t)
        y[:, k_star:] += spec.delta * x[:, k_star:].sum(axis=-1)
    return y, x


def simulate_dgp(spec: DgpSpec, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """One replication's ``(Y, X)`` from the design, burn-in discarded; a test
    reference kept because the benchmark tracer resolves it."""
    y, x = _simulate_stack(spec, rng.normals(2 * (spec.t + spec.burn_in))[None])
    return y[0], x[0]


class CellStats(NamedTuple):
    """Per-replication statistics of a cell or stack, keyed by variant: the
    value the variant decides on as (reps, n_deltas, n_k) arrays, and the K
    used as (reps, n_k) arrays, since a break size moves neither K nor the
    fit's success; and a (reps,) failure mask."""

    values: dict[str, np.ndarray]
    k_used: dict[str, np.ndarray]
    failed: np.ndarray


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rep_stream(master_seed: int, cell_id: int, rep: int) -> RngStream:
    """The stream of replication ``rep`` of a cell."""
    return RngStream(master_seed, stream=cell_id * _STREAM_CELL_STRIDE + rep)


def _block_normals(master_seed: int, cell_id: int, reps: range, n: int) -> np.ndarray:
    """``len(reps) x n`` innovations of replications ``reps`` of a cell,
    drawn together: row ``i`` is bitwise
    ``_rep_stream(master_seed, cell_id, reps[i]).normals(n)``."""
    first = cell_id * _STREAM_CELL_STRIDE
    streams = range(first + reps.start, first + reps.stop, reps.step)
    return stream_normals(master_seed, streams, n)


def _stack_statistics(
    lam: float, k_policy, deltas: tuple[float, ...], variants: tuple[str, ...],
    y: np.ndarray, x: np.ndarray,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Decision statistic per variant as ``(B, n_deltas, n_K)`` arrays, and
    K used as ``(B, n_K)`` arrays, of a stack of ``B`` null series: run_test's
    fit, plug-in rule and :func:`chowtest.series_statistics`, once per basis
    family the variants use. A break of size ``delta`` adds ``delta`` times
    the design's post-break columns to ``y``, so it moves ``beta_2`` by
    ``delta`` and leaves residuals, K and sums."""
    hyp = full_break_hypothesis(_M)
    r = hyp.contrast
    fit = ols_fit(RegressionData(y, x, None, lam), hyp)
    v_series = autok.score_series(r, fit.q_hat, fit.xz, fit.residuals)
    if isinstance(k_policy, str):
        model = autok.plugin_from_fit(*autok.fit_var1(v_series))
        k_policy = [autok.mse_optimal_k(model, y.shape[-1], hyp.p)]
    shift = np.multiply.outer(deltas, np.repeat([0.0, 1.0], hyp.m))[:, None]
    moved = replace(fit, beta_hat=fit.beta_hat + shift)
    specs = [chowtest.VARIANTS[name] for name in variants]
    values, k_used = {}, {}
    for family in dict.fromkeys(spec.basis_family for spec in specs):
        per_k = chowtest.series_statistics(
            moved, r, v_series, lam, family, "F", k_policy
        )
        # each K's (n_deltas, B) Wald values, K used and norm factor alike
        wald, used, nf = (
            np.stack(part, axis=-1).swapaxes(0, 1)
            for part in zip(*(np.broadcast_arrays(*out) for out in per_k))
        )
        forms = chowtest.statistic_forms(wald, "F", nf, hyp.p, used, lam)
        for spec in specs:
            if spec.basis_family == family:
                values[spec.name] = forms[chowtest.decision_form(spec)]
                k_used[spec.name] = used[:, 0]
    return values, k_used


def _stack_size(t: int) -> int:
    """Replications per stack at sample size ``t``: the whole draw blocks
    that hold at most ``_STACK_VALUES`` series values, at least one."""
    return _BLOCK * max(1, _STACK_VALUES // (_BLOCK * t))


def _draw_stack(
    spec: DgpSpec, master_seed: int, cell_id: int, rep_range: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Null ``(Y, X)`` of a contiguous range of replications, drawn and
    simulated one draw block of ``_BLOCK`` at a time into the range's
    arrays."""
    start, stop = rep_range
    n = spec.t + spec.burn_in
    null = replace(spec, delta=0.0)
    y = np.empty((stop - start, spec.t))
    x = np.empty((stop - start, spec.t, _M))
    for lo in range(0, stop - start, _BLOCK):
        hi = min(lo + _BLOCK, stop - start)
        z = _block_normals(master_seed, cell_id, range(start + lo, start + hi), 2 * n)
        y[lo:hi], x[lo:hi] = _simulate_stack(null, z)
    return y, x


def _evaluated(evaluate, y, x, lo: int, hi: int, sizes=(_BLOCK, 1)) -> list:
    """``(rows, statistics)`` of replications ``lo..hi`` evaluated as one
    stack. If that raises ``HarchowError``, the rows are evaluated again in
    pieces of the next smaller of ``sizes``, each alike; a replication that
    fails alone gives ``None``."""
    rows = slice(lo, hi)
    try:
        return [(rows, evaluate(y[rows], x[rows]))]
    except HarchowError:
        smaller = [size for size in sizes if size < hi - lo]
        if not smaller:
            return [(rows, None)]
        size, *rest = smaller
        return [
            part for s in range(lo, hi, size)
            for part in _evaluated(evaluate, y, x, s, min(s + size, hi), rest)
        ]


def _run_block(
    spec: DgpSpec,
    master_seed: int,
    cell_id: int,
    k_policy,
    deltas: tuple[float, ...],
    variants: tuple[str, ...],
    rep_range: tuple[int, int],
) -> CellStats:
    """Statistics for a contiguous range of replications, evaluated as one
    stack at every break size (:func:`_evaluated`); a failing replication
    is flagged once, for all break sizes."""
    y, x = _draw_stack(spec, master_seed, cell_id, rep_range)
    n_k = 1 if isinstance(k_policy, str) else len(k_policy)
    count = len(y)
    stats = CellStats(
        {v: np.full((count, len(deltas), n_k), np.nan) for v in variants},
        {v: np.zeros((count, n_k), dtype=np.int64) for v in variants},
        np.zeros(count, dtype=bool),
    )
    evaluate = partial(_stack_statistics, spec.lam, k_policy, deltas, variants)
    for rows, part in _evaluated(evaluate, y, x, 0, count):
        if part is None:
            stats.failed[rows] = True
            continue
        for field, values in zip(stats, part):
            for v in variants:
                field[v][rows] = values[v]
    return stats


def _run_cell(
    spec: DgpSpec,
    master_seed: int,
    cell_id: int,
    reps: int,
    k_policy,
    deltas: tuple[float, ...],
    variants: tuple[str, ...],
    workers: int = 1,
) -> CellStats:
    """All replication statistics for one cell, merged in stack order.

    Stacks of ``_stack_size(T)`` replications go to a pool of at most
    ``workers`` processes, and no more than there are stacks or usable CPUs.
    """
    if reps < 1:
        raise ValueError(f"need at least one replication, got {reps}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    size = _stack_size(spec.t)
    ranges = [(s, min(s + size, reps)) for s in range(0, reps, size)]
    run = partial(_run_block, spec, master_seed, cell_id, k_policy, deltas, variants)
    pool_size = min(workers, len(ranges), _usable_cpus())
    if pool_size == 1:
        parts = list(map(run, ranges))
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(run, ranges))
    *fields, faileds = zip(*parts)
    merged = [
        {v: np.concatenate([part[v] for part in field]) for v in variants}
        for field in fields
    ]
    return CellStats(*merged, np.concatenate(faileds))


def _rejections(
    variant: chowtest.TestVariant, stats: CellStats, lam: float, index: tuple,
    references,
) -> tuple[np.ndarray, np.ndarray]:
    """(reject, K used) of one variant at ``index``, deciding each
    replication against ``references(variant, p, K, lam)`` of its own K.

    An analytic law decides every replication in one call, given the array
    of K; a simulated law is looked up once per distinct K.
    """
    values = stats.values[variant.name][index]
    k_used = stats.k_used[variant.name][index[0], index[2]]
    if variant.reference != "nonstandard":
        return references(variant, _M, k_used, lam).decide(values)[1], k_used
    reject = np.zeros(len(values), dtype=bool)
    for k in np.unique(k_used).tolist():
        sel = k_used == k
        reject[sel] = references(variant, _M, k, lam).decide(values[sel])[1]
    return reject, k_used


def _study_policy(k_policy, t: int, variants, alpha: float, grid: bool = False):
    """The parsed K policy of a study, once its inputs are checked before
    any replication runs: F variants only, a level in (0, 1), and every
    fixed K within ``2..T-2`` for ``t``, the smallest cell's sample size;
    a study tests p = 2 restrictions, and K below p has no Wald form."""
    for v in variants:
        chowtest.variant_spec(v, "F")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {alpha}")
    policy = chowtest._k_policy(k_policy, t, grid)
    low = [] if policy == "auto" else [k for k in policy if k < _M]
    if low:
        raise ValueError(
            f"studies test p = {_M} restrictions: need K >= {_M}, got K={low}"
        )
    return policy


def _references(
    variants, policy, alpha, cv_cache, cv_seed, cv_replications, cv_grid, t
):
    """``chowtest.reference`` at level ``alpha`` with the simulation
    settings bound; those and every fixed K of ``policy`` are checked here,
    before any replication runs, when a variant's reference is simulated.
    Under auto K, which can reach ``T - 2``, a largest cell size ``t`` whose
    K may pass the simulated law's bound is warned about instead."""
    if any(chowtest.VARIANTS[v].reference == "nonstandard" for v in variants):
        fixedlimit.check_simulation(cv_grid, cv_replications, cv_seed)
        bound = min(cv_grid - 2, fixedlimit.MAX_K)
        if policy != "auto":
            fixedlimit.check_k(max(policy), cv_grid)
        elif t - 2 > bound:
            logger.warning(
                "auto K can reach T - 2 = %d at T = %d, above the simulated"
                " reference's bound K <= %d (cv_grid %d): a cell whose K"
                " passes it stops the study", t - 2, t, bound, cv_grid,
            )
    return partial(
        chowtest.reference, alpha=alpha, cv_seed=cv_seed,
        cv_replications=cv_replications, cv_grid=cv_grid, cache=cv_cache,
    )


def size_experiment(
    specs: list[DgpSpec],
    variants: tuple[str, ...] = F_VARIANTS,
    k_policy: int | str | tuple[int, ...] = "auto",
    reps: int = 2000,
    master_seed: int = 0,
    alpha: float = 0.05,
    workers: int = 1,
    cv_cache: fixedlimit.CriticalValueCache | None = None,
    cv_seed: int = 0,
    cv_replications: int = 10_000,
    cv_grid: int = 1000,
) -> list[ExperimentResult]:
    """Null rejection probability per (cell, K, variant), in that order, at
    ``"auto"``, one K or a K grid; each row is labelled by its K or ``auto``.
    Inputs are checked before the first replication runs; the cell engine
    refuses fewer than one replication, as in every study."""
    if not specs:
        raise ValueError("no cells requested")
    t_min = min(s.t for s in specs)
    policy = _study_policy(k_policy, t_min, variants, alpha, grid=True)
    references = _references(
        variants, policy, alpha, cv_cache, cv_seed, cv_replications, cv_grid,
        max(s.t for s in specs),
    )
    labels = ["auto"] if policy == "auto" else [str(k) for k in policy]
    results = []
    for cell_id, spec in enumerate(specs):
        stats = _run_cell(
            spec, master_seed, cell_id, reps, policy, (spec.delta,), variants, workers
        )
        ok = ~stats.failed
        n_ok = int(ok.sum())
        for k_idx, label in enumerate(labels):
            for variant in variants:
                reject, k_used = _rejections(
                    chowtest.VARIANTS[variant], stats, spec.lam, (ok, 0, k_idx),
                    references,
                )
                rate = float(reject.sum() / n_ok) if n_ok else float("nan")
                mc_se = float(np.sqrt(rate * (1.0 - rate) / n_ok)) if n_ok else 0.0
                ave_k = float(k_used.mean()) if n_ok else 0.0
                results.append(ExperimentResult(
                    t=spec.t, rho=spec.rho, psi=spec.psi, delta=spec.delta,
                    variant=variant, k_policy=label, reps=reps, rejection=rate,
                    mc_se=mc_se, ave_k=ave_k, failures=reps - n_ok,
                ))
    return results


def k_grid_experiment(
    spec: DgpSpec,
    k_values: tuple[int, ...],
    variants: tuple[str, ...] = ("chisq-fourier", "f-transformed"),
    reps: int = 2000,
    master_seed: int = 0,
    alpha: float = 0.05,
    workers: int = 1,
    cv_cache: fixedlimit.CriticalValueCache | None = None,
    cv_seed: int = 0,
    cv_replications: int = 10_000,
    cv_grid: int = 1000,
) -> list[ExperimentResult]:
    """Rejection frequency across a fixed grid of K values (figure layout):
    the size study of one cell at that grid."""
    return size_experiment(
        [spec], variants, k_values, reps=reps, master_seed=master_seed, alpha=alpha,
        workers=workers, cv_cache=cv_cache, cv_seed=cv_seed,
        cv_replications=cv_replications, cv_grid=cv_grid,
    )


def power_experiment(
    spec: DgpSpec,
    deltas: tuple[float, ...],
    k_policy: int | str = "auto",
    reps: int = 2000,
    master_seed: int = 0,
    alpha: float = 0.05,
    workers: int = 1,
) -> dict:
    """Size-adjusted power for both basis families over a break-size grid.

    A family's curve rejects the decision statistic of ``chisq-fourier`` or
    ``f-transformed`` above the empirical ``1 - alpha`` quantile of its null
    (``delta = 0``) value under the same replication streams. The pairs'
    other members share the curve, except that under auto K
    ``chisq-transformed`` (no per-K scaling) can differ from ``f-transformed``.
    With no successful replication every curve is ``nan``, as a size rate.
    """
    policy = _study_policy(k_policy, spec.t, (), alpha)
    grid = tuple(deltas)
    if not np.isfinite(grid).all():
        raise ValueError(f"break sizes must be finite, got {grid}")
    if 0.0 not in grid:
        grid = (0.0,) + grid
    pair = ("chisq-fourier", "f-transformed")
    stats = _run_cell(spec, master_seed, 0, reps, policy, grid, pair, workers)
    ok = ~stats.failed
    n_ok = int(ok.sum())
    curves: dict[str, list[float]] = {}
    for variant in pair:
        values = stats.values[variant][ok, :, 0]
        curve = [math.nan] * len(grid)
        if n_ok:
            cv = fixedlimit.upper_quantile(np.sort(values[:, 0]), alpha)
            curve = [float((values[:, d] > cv).mean()) for d in range(len(grid))]
        curves[chowtest.VARIANTS[variant].basis_family] = curve
    return {
        "deltas": grid,
        "reps": reps,
        "n_ok": n_ok,
        "power": curves,
        "alpha": alpha,
    }


def _csv(header: str, row_format: str, rows) -> str:
    """CSV text of ``rows``; ``row_format`` fixes each column's format, so
    a float column prints with 6 decimals whatever the value's type."""
    return "\n".join([header] + [row_format.format(*row) for row in rows]) + "\n"


def size_table_csv(results: list[ExperimentResult]) -> str:
    return _csv(
        "T,rho,psi,delta,variant,k_policy,reps,rejection,mc_se,ave_k,failures",
        "{},{:.6f},{:.6f},{:.6f},{},{},{},{:.6f},{:.6f},{:.6f},{}",
        map(astuple, results),
    )


def power_table_csv(power: dict, spec: DgpSpec) -> str:
    return _csv(
        "T,rho,psi,delta,family,power", "{},{:.6f},{:.6f},{:.6f},{},{:.6f}",
        (
            (spec.t, spec.rho, spec.psi, delta, family, value)
            for family, curve in power["power"].items()
            for delta, value in zip(power["deltas"], curve)
        ),
    )
