"""Simulation of the nonstandard fixed-smoothing limit distributions.

The limits are functionals of a p-dimensional standard Brownian motion. Each
replication approximates the Brownian increments by ``e_i / sqrt(n)`` for
``n`` iid standard normal vectors on a grid, forms

    eta_0 = sqrt(lam (1 - lam)) * sum_i phi0(r_i) e_i / sqrt(n)
    eta_j = sum_i tphi_j(r_i) e_i / sqrt(n),   j = 1..K

with ``phi0`` the two-level regime contrast and ``tphi_j`` the demeaned basis
functions on the grid, and evaluates the quadratic form

    B = eta_0' (K^{-1} sum_j eta_j eta_j')^{-1} eta_0.

Draw kinds are rescalings of ``B`` (or its signed square root for the t
variant). Replication ``i`` always uses random substream ``i``, so results
are independent of chunking and worker count; a replication whose weighting
matrix is singular is redrawn from substream ``reps + i`` and counted.

Simulated distributions can be cached in memory and on disk. The disk format
is one JSON header line (version and spec fields) followed by the sorted
draws as little-endian float64.
"""

from __future__ import annotations

import json
import logging
import os
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

F_INF = "F_inf"
F_STAR_INF = "F_star_inf"
SCALED_F_INF = "scaled_F_inf"
T_STAR_INF = "t_star_inf"
KINDS = (F_INF, F_STAR_INF, SCALED_F_INF, T_STAR_INF)

FILE_VERSION = 1
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
    mask; closed forms for p <= 2, Cholesky solves otherwise."""
    reps, p = eta0.shape
    w = np.einsum("kcp,kcq->cpq", etas, etas) / k
    if p == 1:
        denom = w[:, 0, 0]
        bad = denom <= 1e-12 * np.maximum(denom, 1.0)
        safe = np.where(bad, 1.0, denom)
        return eta0[:, 0] ** 2 / safe, bad
    if p == 2:
        a, b, d = w[:, 0, 0], w[:, 0, 1], w[:, 1, 1]
        det = a * d - b * b
        scale = np.maximum(np.maximum(a, d), 1.0)
        bad = (det <= 1e-12 * scale**2) | (a <= 0) | (d <= 0)
        safe = np.where(bad, 1.0, det)
        e0, e1 = eta0[:, 0], eta0[:, 1]
        quad = (d * e0 * e0 - 2.0 * b * e0 * e1 + a * e1 * e1) / safe
        return quad, bad
    out = np.empty(reps)
    bad = np.zeros(reps, dtype=bool)
    for i in range(reps):
        try:
            u = cholesky(w[i])
        except NotPositiveDefinite:
            bad[i] = True
            continue
        y = solve_triangular(u.T, eta0[i], lower=True)
        out[i] = eta0[i] @ solve_triangular(u, y, lower=False)
    return out, bad


def _base_draws(spec: LimitSpec) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Per-replication ``(B, eta0)`` pairs plus redraw count and the grid
    quadrature of the mean squared demeaned basis."""
    tilde, phi0 = _grids(spec)
    n, p, k = spec.grid_n, spec.p, spec.k
    weights = np.column_stack([phi0, tilde]) / np.sqrt(n)  # n x (K+1)
    mean_sq = float((tilde**2).mean())
    reps = spec.replications
    quads = np.empty(reps)
    eta0_all = np.empty((reps, p))
    redraws = 0

    def draw_block(rep_ids: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        block = np.empty((n, len(rep_ids) * p))
        for pos, rep in enumerate(rep_ids):
            stream = RngStream(spec.seed, stream=attempt * reps + int(rep))
            block[:, pos * p : (pos + 1) * p] = stream.normals(n * p).reshape(n, p)
        eta = weights.T @ block  # (K+1) x (reps*p)
        eta = eta.reshape(k + 1, len(rep_ids), p)
        lam_scale = np.sqrt(spec.lam * (1.0 - spec.lam))
        return lam_scale * eta[0], eta[1:]

    for start in range(0, reps, _CHUNK):
        rep_ids = np.arange(start, min(start + _CHUNK, reps))
        eta0, etas = draw_block(rep_ids, attempt=0)
        quad, bad = _quad_forms(eta0, etas, k)
        attempt = 0
        while np.any(bad):
            attempt += 1
            redraws += int(bad.sum())
            if redraws > max(1, reps // 1000):
                raise DegenerateSimulation(
                    f"{redraws} singular replications out of {reps}"
                )
            retry_ids = rep_ids[bad]
            eta0_r, etas_r = draw_block(retry_ids, attempt=attempt)
            quad_r, bad_r = _quad_forms(eta0_r, etas_r, k)
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


def critical_value(dist: SimulatedDistribution, alpha: float) -> float:
    """Empirical ``1 - alpha`` quantile, lower order statistic convention."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {alpha}")
    n = len(dist.draws)
    idx = int(np.ceil(n * (1.0 - alpha))) - 1
    return float(dist.draws[min(max(idx, 0), n - 1)])


def empirical_p(dist: SimulatedDistribution, x: float) -> float:
    """Tail frequency ``(#{draws >= x} + 1) / (reps + 1)``; never exactly 0."""
    n = len(dist.draws)
    count = n - int(np.searchsorted(dist.draws, x, side="left"))
    return (count + 1) / (n + 1)


def _cache_key(spec: LimitSpec, kind: str) -> tuple:
    return (
        kind,
        spec.p,
        spec.k,
        round(spec.lam, 6),
        spec.family,
        spec.grid_n,
        spec.replications,
        spec.seed,
    )


def _cache_filename(spec: LimitSpec, kind: str) -> str:
    return (
        f"{kind}_p{spec.p}_k{spec.k}_lam{spec.lam:.6f}_{spec.family}"
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
    np.savetxt(path, dist.draws, delimiter=",", header="draw", comments="")


class CriticalValueCache:
    """Read-mostly cache of simulated distributions, optionally persistent.

    Lookups hit memory first, then the cache directory (when configured),
    and only then simulate; fresh simulations are written back to disk. A
    truncated, malformed or wrong-version file is logged, re-simulated and
    overwritten.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        self._memory: dict[tuple, SimulatedDistribution] = {}

    def get(self, spec: LimitSpec, kind: str) -> SimulatedDistribution:
        key = _cache_key(spec, kind)
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        path = None
        if self.directory:
            path = os.path.join(self.directory, _cache_filename(spec, kind))
            if os.path.exists(path):
                try:
                    dist = load_distribution(path)
                except ValueError as exc:
                    logger.warning("re-simulating %s: %s", path, exc)
                else:
                    self._memory[key] = dist
                    return dist
        dist = simulate_limit(spec, kind)
        self._memory[key] = dist
        if path is not None:
            os.makedirs(self.directory, exist_ok=True)
            save_distribution(dist, path)
        return dist


shared_cache = CriticalValueCache()
