"""Simulation of the nonstandard fixed-smoothing limit distributions.

The limits are functionals of a p-dimensional standard Brownian motion on a
grid of ``n`` points. With ``phi0`` the two-level regime contrast and
``tphi_j`` the demeaned basis functions on the grid, the weight matrix

    W = [phi0, tphi_1, ..., tphi_K] / sqrt(n)        (n x (K+1))

maps ``n`` iid standard normal increments ``e`` (n x p) to ``eta = W' e``.
With ``eta_0`` the first row scaled by ``sqrt(lam (1 - lam))`` and
``eta_1..eta_K`` the others, a replication evaluates the quadratic form

    B = eta_0' (K^{-1} sum_j eta_j eta_j')^{-1} eta_0.

Draw kinds are rescalings of ``B`` (or its signed square root for the t
variant).

Exact draw. ``eta`` is matrix normal with row covariance ``M = W'W`` and
independent columns, so it is drawn as ``eta = R Z`` with ``R R' = M`` and
``Z`` a standard normal matrix: ``(K+1) p`` normals per replication instead
of ``n p``, with the same law as the grid sum. ``R`` is the Cholesky factor
of ``M``, built once per spec. When ``M`` is not positive definite (the raw
family at ``K = n - 2`` with even ``n``, where the Nyquist sine vanishes on
the grid) the root is ``W'`` itself and ``Z`` is ``n x p``: the grid sum.
Only the root differs; there is one sampling path. For the transformed
family at integer ``lam n``, ``M`` is ``diag(M_00, c I_K)`` up to rounding,
so the scaled draws follow ``F(p, K - p + 1)`` exactly on any grid.

Streams. Replications come in blocks of ``_CHUNK`` consecutive ones, and
block ``b`` draws the ``Z`` of all its replications from one call to
``RngStream(seed, b).normals``: the block's ``j``-th replication takes the
``j``-th run of ``m p`` normals as its ``m x p`` matrix (``m`` the root's
column count). A replication ``i`` whose weighting matrix is singular is
redrawn, in the same shape, from its own substream ``attempt * reps + i``
(``attempt = 1, 2, ...``) and counted; these ids never meet the block ids.
The draws therefore depend on ``_CHUNK``: changing it changes every
simulated law's draws and needs a ``FILE_VERSION`` bump.

Simulated distributions can be cached in memory and on disk. The disk format
is one JSON header line (version and spec fields) followed by the sorted
draws as little-endian float64. A file whose version, kind or spec differs
from the request is stale: it is re-simulated and overwritten.
"""

from __future__ import annotations

import json
import logging
import os
import weakref
from collections.abc import MutableMapping
from dataclasses import asdict, dataclass

import numpy as np

from .bases import (
    FOURIER_RAW,
    FOURIER_TRANSFORMED,
    break_index,
    phi_tilde_matrix,
    series_basis,
)
from .errors import DegenerateSimulation, KTooSmall, NotPositiveDefinite
from .numkit import RngStream, cholesky, solve_triangular
from .numkit.linalg import _PIVOT_RTOL, _pivot_factor

F_INF = "F_inf"
F_STAR_INF = "F_star_inf"
SCALED_F_INF = "scaled_F_inf"
T_STAR_INF = "t_star_inf"
KINDS = (F_INF, F_STAR_INF, SCALED_F_INF, T_STAR_INF)

FILE_VERSION = 3
_CHUNK = 2048

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LimitSpec:
    """What to simulate: restriction count, basis count and family, break
    fraction, grid size, replication count, and seed."""

    p: int
    k: int
    lam: float
    family: str = FOURIER_RAW
    grid_n: int = 1000
    replications: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.p < 1 or self.k < 1:
            raise ValueError("p and K must be positive")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"break fraction must lie in (0, 1), got {self.lam}")
        if self.family not in (FOURIER_RAW, FOURIER_TRANSFORMED):
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.grid_n < 100:
            raise ValueError("grid size must be at least 100")
        if self.k > self.grid_n - 2:
            raise ValueError(
                f"need K <= n - 2 = {self.grid_n - 2} on the simulation grid of"
                f" n = {self.grid_n} points, got K={self.k}"
            )
        if self.replications < 1000:
            raise ValueError("need at least 1000 replications")


@dataclass(frozen=True)
class SimulatedDistribution:
    """Sorted draws of one limit functional plus its provenance."""

    spec: LimitSpec
    kind: str
    draws: np.ndarray
    redraws: int = 0

    @property
    def replications(self) -> int:
        return len(self.draws)


def _grids(spec: LimitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Demeaned basis grid (n x K) and the regime-contrast grid (n,)."""
    n = spec.grid_n
    basis = series_basis(n, spec.k, spec.lam, spec.family)
    if basis.k < spec.k:
        raise NotPositiveDefinite(
            f"only {basis.k} of K={spec.k} basis vectors are kernel-feasible "
            f"on a grid of {n}"
        )
    tilde = phi_tilde_matrix(basis.matrix, spec.lam, n)
    k_star = break_index(spec.lam, n)
    phi0 = np.empty(n)
    phi0[:k_star] = 1.0 / spec.lam
    phi0[k_star:] = -1.0 / (1.0 - spec.lam)
    return tilde, phi0


def _quad_forms(eta0: np.ndarray, etas: np.ndarray, k: int):
    """Quadratic forms ``eta0' W^{-1} eta0`` per replication and a singular
    mask, with ``W = K^{-1} sum_j eta_j eta_j'``.

    numkit's pivot rule factors the stack of every replication's ``W`` as
    ``U'U``, and the forward solve ``U'y = eta0`` gives the form as ``y'y``.
    A replication is singular when a pivot is at or below ``1e-12`` times
    the largest diagonal entry of its ``W``.
    """
    p = eta0.shape[1]
    w = np.einsum("kcp,kcq->cpq", etas, etas) / k
    u, rank = _pivot_factor(w, _PIVOT_RTOL)
    bad = rank < p
    u[bad] = np.eye(p)  # any regular factor: singular forms are redrawn
    y = solve_triangular(np.swapaxes(u, 1, 2), eta0[:, :, None], lower=True)[:, :, 0]
    return (y * y).sum(axis=1), bad


def _weights(spec: LimitSpec) -> tuple[np.ndarray, float]:
    """Grid weights ``W = [phi0, tilde] / sqrt(n)`` (n x (K+1)) and the grid
    quadrature of the mean squared demeaned basis."""
    tilde, phi0 = _grids(spec)
    weights = np.column_stack([phi0, tilde]) / np.sqrt(spec.grid_n)
    return weights, float((tilde**2).mean())


def _root(weights: np.ndarray) -> np.ndarray:
    """A root ``R`` with ``R R' = W'W``: the Cholesky factor when ``W'W`` is
    positive definite, else ``W'`` itself."""
    try:
        return cholesky(weights.T @ weights).T
    except NotPositiveDefinite:
        return weights.T


def _base_draws(spec: LimitSpec) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Per-replication ``(B, eta0)`` pairs plus redraw count and the grid
    quadrature of the mean squared demeaned basis."""
    weights, mean_sq = _weights(spec)
    root = _root(weights)  # (K+1) x m
    m = root.shape[1]
    p, k, reps = spec.p, spec.k, spec.replications
    lam_scale = np.sqrt(spec.lam * (1.0 - spec.lam))
    quads = np.empty(reps)
    eta0_all = np.empty((reps, p))
    redraws = 0

    def forms(z: np.ndarray):
        # z holds one m x p matrix per replication; eta = R Z is
        # (K+1) x count x p, from one matrix product for the whole batch
        eta = (root @ z.transpose(1, 0, 2).reshape(m, -1)).reshape(k + 1, -1, p)
        eta0 = lam_scale * eta[0]
        return (eta0, *_quad_forms(eta0, eta[1:], k))

    for block, start in enumerate(range(0, reps, _CHUNK)):
        rep_ids = np.arange(start, min(start + _CHUNK, reps))
        z = RngStream(spec.seed, stream=block).normals(len(rep_ids) * m * p)
        eta0, quad, bad = forms(z.reshape(-1, m, p))
        attempt = 0
        while np.any(bad):
            attempt += 1
            redraws += int(bad.sum())
            if redraws > max(1, reps // 1000):
                raise DegenerateSimulation(
                    f"{redraws} singular replications out of {reps}"
                )
            z = np.stack([
                RngStream(spec.seed, stream=attempt * reps + int(rep))
                .normals(m * p).reshape(m, p)
                for rep in rep_ids[bad]
            ])
            eta0_r, quad_r, bad_r = forms(z)
            quad[bad] = quad_r
            eta0[bad] = eta0_r
            new_bad = np.zeros_like(bad)
            new_bad[bad] = bad_r
            bad = new_bad
        quads[rep_ids] = quad
        eta0_all[rep_ids] = eta0
    return quads, eta0_all, redraws, mean_sq


def simulate_limit(spec: LimitSpec, kind: str) -> SimulatedDistribution:
    """Simulate one limit distribution and return its sorted draws."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == T_STAR_INF and spec.p != 1:
        raise ValueError("the t limit requires p = 1")
    if kind != T_STAR_INF and spec.k < spec.p:
        raise KTooSmall(f"need K >= p for the F limits, got K={spec.k}, p={spec.p}")
    quads, eta0, redraws, mean_sq = _base_draws(spec)
    lam_weight = spec.lam * (1.0 - spec.lam)
    if kind == F_INF:
        draws = quads / lam_weight
    elif kind == F_STAR_INF:
        draws = quads * mean_sq
    elif kind == SCALED_F_INF:
        draws = quads * (spec.k - spec.p + 1) / (spec.k * spec.p)
    else:
        # signed: eta0 already carries sqrt(lam (1 - lam)); the modification
        # factor contributes sqrt(mean_sq) and the weighting its square root
        draws = np.sign(eta0[:, 0]) * np.sqrt(quads * mean_sq)
    return SimulatedDistribution(
        spec=spec, kind=kind, draws=np.sort(draws), redraws=redraws
    )


def upper_quantile(sorted_values: np.ndarray, alpha: float) -> float:
    """Empirical ``1 - alpha`` quantile of ascending values, lower order
    statistic convention: the ``ceil(n (1 - alpha))``-th smallest."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {alpha}")
    n = len(sorted_values)
    idx = int(np.ceil(n * (1.0 - alpha))) - 1
    return float(sorted_values[min(max(idx, 0), n - 1)])


def critical_value(dist: SimulatedDistribution, alpha: float) -> float:
    """Empirical ``1 - alpha`` quantile of the draws (:func:`upper_quantile`)."""
    return upper_quantile(dist.draws, alpha)


def empirical_p(dist: SimulatedDistribution, x: float) -> float:
    """Tail frequency ``(#{draws >= x} + 1) / (reps + 1)``; never exactly 0."""
    n = len(dist.draws)
    count = n - int(np.searchsorted(dist.draws, x, side="left"))
    return (count + 1) / (n + 1)


def _cache_filename(spec: LimitSpec, kind: str) -> str:
    return (
        f"{kind}_p{spec.p}_k{spec.k}_lam{spec.lam!r}_{spec.family}"
        f"_n{spec.grid_n}_r{spec.replications}_s{spec.seed}.cv"
    )


def save_distribution(dist: SimulatedDistribution, path: str) -> None:
    """Write ``dist`` to a temporary file beside ``path``, then rename it
    over ``path``, so a concurrent reader sees the old file or the new one,
    never a partial one."""
    header = {"version": FILE_VERSION, "kind": dist.kind, "redraws": dist.redraws}
    header.update(asdict(dist.spec))
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode())
            fh.write(b"\n")
            fh.write(dist.draws.astype("<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_distribution(path: str) -> SimulatedDistribution:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    if header.get("version") != FILE_VERSION:
        raise ValueError(f"unsupported cache version in {path}")
    try:
        kind = header.pop("kind")
        redraws = header.pop("redraws")
        header.pop("version")
        spec = LimitSpec(**header)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed header in cache file {path}: {exc!r}") from exc
    draws = np.frombuffer(payload, dtype="<f8")
    if len(draws) != spec.replications:
        raise ValueError(f"cache file {path} is truncated")
    return SimulatedDistribution(spec=spec, kind=kind, draws=draws, redraws=redraws)


def export_csv(dist: SimulatedDistribution, path: str) -> None:
    """One ``draw`` header line, then one ``%.18e`` value per line (the
    bytes ``np.savetxt`` writes, in one write)."""
    with open(path, "w") as fh:
        fh.write("draw\n" + "".join("%.18e\n" % x for x in dist.draws.tolist()))


class CriticalValueCache:
    """Read-mostly cache of simulated distributions, optionally persistent.

    Lookups hit memory first, then the cache directory (when configured),
    and only then simulate; fresh simulations are written back to disk. A
    truncated, malformed or wrong-version file, or one that holds another
    kind or spec, is logged, re-simulated and overwritten. Each lookup logs
    its source, redraw count and spec at DEBUG level.

    Memory holds no second copy of what the directory holds: with a
    directory, a distribution stays in memory while a caller holds it and is
    read back from its file, bitwise equal, after that. Without one, memory
    is the only store and keeps every distribution.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        self._memory: MutableMapping[tuple[LimitSpec, str], SimulatedDistribution] = (
            weakref.WeakValueDictionary() if directory else {}
        )

    def get(self, spec: LimitSpec, kind: str) -> SimulatedDistribution:
        dist = self._memory.get((spec, kind))
        source = "memory"
        if dist is None:
            dist, source = self._fetch(spec, kind)
            self._memory[(spec, kind)] = dist
        logger.debug(
            "%s from %s (redraws %d): %s", kind, source, dist.redraws, spec
        )
        return dist

    def _fetch(self, spec: LimitSpec, kind: str) -> tuple[SimulatedDistribution, str]:
        path = None
        if self.directory:
            path = os.path.join(self.directory, _cache_filename(spec, kind))
            if os.path.exists(path):
                try:
                    dist = load_distribution(path)
                    if (dist.spec, dist.kind) != (spec, kind):
                        raise ValueError(
                            f"file holds {dist.kind} for {dist.spec}"
                        )
                except ValueError as exc:
                    logger.warning("re-simulating %s: %s", path, exc)
                else:
                    return dist, "disk"
        dist = simulate_limit(spec, kind)
        if path is not None:
            os.makedirs(self.directory, exist_ok=True)
            save_distribution(dist, path)
        return dist, "simulated"


shared_cache = CriticalValueCache()
