"""Monte Carlo engine: simulate the study DGPs and measure size and power.

The data-generating process has ``X_t = (1, q_t)`` with ``q_t`` an AR(1) and
the error an independent AR(1) or ARMA(1,1) sharing the same AR parameter.
Under the alternative the second-regime coefficients shift by ``delta`` on
every component. Each replication draws from its own random substream derived
from ``(master seed, cell id, replication index)``, and power experiments
reuse the null innovations across the whole break-size grid (common random
numbers).

Replications run in blocks of ``_BLOCK`` consecutive ones. A block is
evaluated as one stack: its innovations are filtered as one matrix, and the
fit, the plug-in rule and the Wald form of :func:`harchow.chowtest.run_test`
run once per break size on arrays with a leading replication axis. The block
size is fixed, and workers receive whole blocks, so results are byte-level
reproducible regardless of the worker count.

Rejection counts are aggregated as integers in fixed block order; CSV output
uses fixed-precision formatting so a table is reproducible byte for byte.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import autok, chowtest, fixedlimit, longrun
from .bases import (
    FOURIER_RAW,
    FOURIER_TRANSFORMED,
    BasisSet,
    break_index,
    norm_factor,
    series_basis,
)
from .errors import HarchowError
from .numkit import RngStream
from .regression import RegressionData, full_break_hypothesis, ols_fit

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

_STREAM_CELL_STRIDE = 2**32
_BLOCK = 64


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
        values = (self.rho, self.psi, self.delta)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"need finite rho, psi and delta, got {values}")
        if abs(self.rho) >= 1.0:
            raise ValueError(f"need |rho| < 1, got {self.rho}")
        if self.t < 50:
            raise ValueError(f"need T >= 50, got {self.t}")
        if self.burn_in < 0:
            raise ValueError("burn-in must be nonnegative")


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
    """Draw ``(Y, X)`` of one replication from the design, discarding the
    burn-in segment."""
    y, x = _simulate_stack(spec, rng.normals(2 * (spec.t + spec.burn_in))[None])
    return y[0], x[0]


def _cell_bases(t: int, lam: float) -> dict[str, BasisSet]:
    """Each family's basis at K = T - 2, shared by every replication of a
    cell; the transformed basis keeps its kernel-feasible columns only."""
    return {
        family: series_basis(t, t - 2, lam, family)
        for family in (FOURIER_RAW, FOURIER_TRANSFORMED)
    }


class CellStats(NamedTuple):
    """Per-replication statistics of a cell or block: the Wald statistic and
    the K used, keyed by basis family, as (reps, n_deltas, n_k) arrays, and a
    (reps, n_deltas) failure mask."""

    wald: dict[str, np.ndarray]
    k_used: dict[str, np.ndarray]
    failed: np.ndarray


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rep_stream(master_seed: int, cell_id: int, rep: int) -> RngStream:
    return RngStream(master_seed, stream=cell_id * _STREAM_CELL_STRIDE + rep)


def _stack_statistics(
    y: np.ndarray, x: np.ndarray, lam: float, bases: dict[str, BasisSet], k_policy
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Wald statistic and K used per basis family, as ``(B, n_K)`` arrays,
    of a stack of ``B`` series: run_test's fit, plug-in rule and Wald form
    on arrays with a leading replication axis. Each family uses
    ``min(K, basis.k)`` of its basis columns."""
    hyp = full_break_hypothesis(2)
    r = hyp.contrast
    fit = ols_fit(RegressionData(y, x, None, lam), hyp)
    if isinstance(k_policy, str):
        v_series = autok.score_series(r, fit.q_hat, fit.xz, fit.residuals)
        model = autok.plugin_from_fit(*autok.fit_var1(v_series))
        k_policy = [autok.mse_optimal_k(model, y.shape[-1], hyp.p)]
    scores = fit.xz * fit.residuals[..., None]
    wald, k_used = {}, {}
    for family, basis in bases.items():
        sums = longrun.score_sums(basis, scores)
        used = [np.minimum(k, basis.k) for k in k_policy]
        k_used[family] = np.stack([np.broadcast_to(k, len(y)) for k in used], axis=-1)
        wald[family] = np.stack(
            [chowtest.raw_statistic(sums, fit, r, "F", k) for k in used], axis=-1
        )
    return wald, k_used


def _run_block(
    spec: DgpSpec,
    bases: dict[str, BasisSet],
    master_seed: int,
    cell_id: int,
    k_policy,
    deltas: tuple[float, ...],
    rep_range: tuple[int, int],
) -> CellStats:
    """Statistics for a contiguous block of replications, evaluated as one
    stack per break size. A break size whose stacked evaluation raises
    ``HarchowError`` is evaluated again one replication at a time, through
    the same functions, so exactly the failing replications are flagged."""
    start, stop = rep_range
    n = spec.t + spec.burn_in
    z = np.stack([
        _rep_stream(master_seed, cell_id, rep).normals(2 * n)
        for rep in range(start, stop)
    ])
    y0, x = _simulate_stack(replace(spec, delta=0.0), z)
    k_star = break_index(spec.lam, spec.t)
    shift = np.zeros_like(y0)
    shift[:, k_star:] = x[:, k_star:].sum(axis=-1)
    n_k = 1 if isinstance(k_policy, str) else len(k_policy)
    shape = (stop - start, len(deltas), n_k)
    wald = {family: np.full(shape, np.nan) for family in bases}
    k_used = {family: np.zeros(shape, dtype=np.int64) for family in bases}
    failed = np.zeros(shape[:2], dtype=bool)
    evaluate = partial(_stack_statistics, lam=spec.lam, bases=bases, k_policy=k_policy)
    for d_idx, delta in enumerate(deltas):
        y = y0 + delta * shift
        try:
            parts = [(slice(None), evaluate(y, x))]
        except HarchowError:
            parts = []
            for i in range(len(y)):
                rows = slice(i, i + 1)
                try:
                    parts.append((rows, evaluate(y[rows], x[rows])))
                except HarchowError:
                    failed[i, d_idx] = True
        for rows, (part_wald, part_k) in parts:
            for family in bases:
                wald[family][rows, d_idx] = part_wald[family]
                k_used[family][rows, d_idx] = part_k[family]
    return CellStats(wald, k_used, failed)


def _run_cell(
    spec: DgpSpec,
    bases: dict[str, BasisSet],
    master_seed: int,
    cell_id: int,
    reps: int,
    k_policy,
    deltas: tuple[float, ...],
    workers: int = 1,
) -> CellStats:
    """All replication statistics for one cell, merged in block order.

    Blocks of ``_BLOCK`` replications go to a pool of at most ``workers``
    processes, and no more than there are blocks or usable CPUs.
    """
    if reps < 1:
        raise ValueError(f"need at least one replication, got {reps}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    ranges = [(s, min(s + _BLOCK, reps)) for s in range(0, reps, _BLOCK)]
    run = partial(_run_block, spec, bases, master_seed, cell_id, k_policy, deltas)
    pool_size = min(workers, len(ranges), _usable_cpus())
    if pool_size == 1:
        parts = list(map(run, ranges))
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(run, ranges))
    walds, k_useds, faileds = zip(*parts)
    return CellStats(
        {family: np.concatenate([w[family] for w in walds]) for family in bases},
        {family: np.concatenate([k[family] for k in k_useds]) for family in bases},
        np.concatenate(faileds),
    )


def _decision_values(
    variant: chowtest.TestVariant, stats: CellStats, bases: dict[str, BasisSet],
    lam: float, index: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """(decision statistic, K used) of one variant at ``index`` into a cell's
    (replication, delta, K) statistic arrays."""
    family = variant.basis_family
    wald, k_used = stats.wald[family][index], stats.k_used[family][index]
    nf = norm_factor(bases[family], k_used)
    forms = chowtest.statistic_forms(wald, "F", nf, 2, k_used, lam)
    return forms[chowtest.decision_form(variant)], k_used


def _rejections(
    variant: chowtest.TestVariant, stats: CellStats, bases: dict[str, BasisSet],
    lam: float, index: tuple, references,
) -> tuple[np.ndarray, np.ndarray]:
    """(reject, K used) of one variant at ``index``, deciding each
    replication against ``references(variant, p, K, lam)`` of its own K."""
    values, k_used = _decision_values(variant, stats, bases, lam, index)
    reject = np.zeros(len(values), dtype=bool)
    for k in np.unique(k_used).tolist():
        sel = k_used == k
        reject[sel] = references(variant, 2, k, lam).decide(values[sel])[1]
    return reject, k_used


def _size_rows(
    spec: DgpSpec, cell_id: int, k_policy, variants: tuple[str, ...], reps: int,
    master_seed: int, workers: int, references,
) -> list[ExperimentResult]:
    """Rejection frequency per (K grid point, variant) of one cell, each row
    labelled by its K or by ``auto``."""
    bases = _cell_bases(spec.t, spec.lam)
    stats = _run_cell(
        spec, bases, master_seed, cell_id, reps, k_policy, (spec.delta,), workers
    )
    ok = ~stats.failed[:, 0]
    n_ok = int(ok.sum())
    results = []
    labels = ["auto"] if k_policy == "auto" else map(str, k_policy)
    for k_idx, label in enumerate(labels):
        for variant in variants:
            reject, k_used = _rejections(
                chowtest.VARIANTS[variant], stats, bases, spec.lam,
                (ok, 0, k_idx), references,
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


def _study_policy(k_policy, t: int, variants, alpha: float, grid: bool = False):
    """The parsed K policy of a study, once its inputs are checked before
    any replication runs: F variants only, a level in (0, 1), and every
    fixed K within ``1..T-2`` for ``t``, the smallest cell's sample size."""
    for v in variants:
        chowtest.variant_spec(v, "F")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {alpha}")
    return chowtest._k_policy(k_policy, t, grid)


def _references(alpha, cv_cache, cv_seed, cv_replications, cv_grid):
    """``chowtest.reference`` at level ``alpha`` with the simulation
    settings bound."""
    return partial(
        chowtest.reference, alpha=alpha, cv_seed=cv_seed,
        cv_replications=cv_replications, cv_grid=cv_grid, cache=cv_cache,
    )


def size_experiment(
    specs: list[DgpSpec],
    variants: tuple[str, ...] = F_VARIANTS,
    k_policy: int | str = "auto",
    reps: int = 2000,
    master_seed: int = 0,
    alpha: float = 0.05,
    workers: int = 1,
    cv_cache: fixedlimit.CriticalValueCache | None = None,
    cv_seed: int = 0,
    cv_replications: int = 10_000,
    cv_grid: int = 1000,
) -> list[ExperimentResult]:
    """Null rejection probability per (cell, variant) at one K policy."""
    if reps < 500:
        raise ValueError("need at least 500 replications")
    if not specs:
        raise ValueError("no cells requested")
    policy = _study_policy(k_policy, min(s.t for s in specs), variants, alpha)
    references = _references(alpha, cv_cache, cv_seed, cv_replications, cv_grid)
    results = []
    for cell_id, spec in enumerate(specs):
        results += _size_rows(
            spec, cell_id, policy, variants, reps, master_seed, workers, references
        )
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
    """Rejection frequency across a fixed grid of K values (figure layout)."""
    policy = _study_policy(k_values, spec.t, variants, alpha, grid=True)
    references = _references(alpha, cv_cache, cv_seed, cv_replications, cv_grid)
    return _size_rows(spec, 0, policy, variants, reps, master_seed, workers, references)


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
    """
    policy = _study_policy(k_policy, spec.t, (), alpha)
    grid = tuple(deltas)
    if not np.isfinite(grid).all():
        raise ValueError(f"break sizes must be finite, got {grid}")
    if 0.0 not in grid:
        grid = (0.0,) + grid
    bases = _cell_bases(spec.t, spec.lam)
    stats = _run_cell(spec, bases, master_seed, 0, reps, policy, grid, workers)
    ok = ~stats.failed.any(axis=1)
    n_ok = int(ok.sum())
    curves: dict[str, list[float]] = {}
    for variant in ("chisq-fourier", "f-transformed"):
        variant_spec = chowtest.VARIANTS[variant]
        values, _ = _decision_values(
            variant_spec, stats, bases, spec.lam, (ok, slice(None), 0)
        )
        cv = fixedlimit.upper_quantile(np.sort(values[:, 0]), alpha)
        curves[variant_spec.basis_family] = [
            float((values[:, d] > cv).mean()) for d in range(len(grid))
        ]
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
