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
independent columns, so a standard normal ``(K+1) x p`` matrix ``Z`` per
replication draws it: ``(K+1) p`` normals instead of ``n p``, with the same
law as the grid sum. ``phi0`` is constant and each ``tphi_j`` sums to zero
within a regime, so ``M = diag(M_00, G)`` with ``M_00 = (k*/lam^2 +
(n - k*)/(1 - lam)^2) / n`` and ``G`` the demeaned Gram: ``eta_0`` is
independent of ``eta_1..K``. The scaled ``eta_0`` is ``sqrt(lam (1 - lam)
M_00)`` times row 0 of ``Z``, and ``eta_1..K`` is ``R_G Z[1:]`` with
``R_G`` from :func:`harchow.bases.series_root`, one ``(count p) x K``
row-major product with ``R_G'`` per block: no grid is built. All K vectors
must pass that root's pivots, else the simulation raises
``NotPositiveDefinite`` (both families at ``K = n - 2`` with even ``n`` and
``k*``, where ``G`` is singular). For the transformed family at integer
``lam n``, ``G`` is ``I_K`` up to rounding, so the scaled draws are
``F(p, K - p + 1)``.

Streams. Replications come in blocks of ``max(1, 2**16 // (m p))``
consecutive ones (``m = K + 1``, the rows of ``Z``), so a block draws about
``_BLOCK_NORMALS = 2**16`` normals (0.5 MB) whatever K and p are. Block
``b`` draws the ``Z`` of all its replications from one call to
``RngStream(seed, b).normals``: its ``j``-th replication takes the ``j``-th
run of ``m p`` normals as its ``m x p`` matrix. A replication ``i`` whose
weighting matrix is singular is redrawn, in the same shape, and counted:
attempt ``a = 1, 2, ...`` takes a block's singular ones from one block draw
(``stream_normals``), row ``i`` being substream ``a * reps + i``, ids that
never meet the block ids. Changing ``_BLOCK_NORMALS`` changes every
simulated law's draws and needs a ``FILE_VERSION`` bump.

The draws' bits hold for one numpy and BLAS build. Under
``OPENBLAS_NUM_THREADS=1`` and ``2`` they were bitwise equal in every case
checked below K = 100 (README, "Cache file format"). From K = 100 OpenBLAS
still rounds some blocks' product differently by thread count, mostly a
last, partial block, and whole blocks from K = 220; at K = 300
``series_root``'s blocked factor differs too.

Simulated distributions can be cached in memory and on disk. The disk format
is one JSON header line (version, kind, redraw count, spec fields and a
CRC-32) followed by the sorted draws as little-endian float64. The CRC-32
covers the canonical JSON of the header's other fields, then the payload.
A file whose version, kind or spec differs from the request is stale, and
one that fails its checksum is damaged: either is re-simulated and
overwritten.
"""

from __future__ import annotations

import json
import logging
import numbers
import os
import weakref
import zlib
from collections.abc import MutableMapping
from dataclasses import asdict, dataclass

import numpy as np

from .bases import FOURIER_RAW, FOURIER_TRANSFORMED, break_index, series_root
from .errors import DegenerateSimulation, KTooSmall, NotPositiveDefinite
from .numkit.linalg import _PIVOT_RTOL, _pivot_factor
from .numkit.rng import RngStream, _require_integers, stream_normals

F_INF = "F_inf"
F_STAR_INF = "F_star_inf"
SCALED_F_INF = "scaled_F_inf"
T_STAR_INF = "t_star_inf"
KINDS = (F_INF, F_STAR_INF, SCALED_F_INF, T_STAR_INF)

FILE_VERSION = 8
_BLOCK_NORMALS = 2**16
# caps on a simulation: a grid point costs 24 bytes, a replication 8 (p + 3),
# and K a K x K kernel Gram, its factor and root, 8 K^2 bytes each
MAX_GRID = 10**6
MAX_REPLICATIONS = 10**7
MAX_K = 2000

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
        counts = ("p", "k", "grid_n", "replications", "seed")
        _require_integers(**{name: getattr(self, name) for name in counts})
        for name in counts:  # a numpy int becomes an int, for the cache header
            object.__setattr__(self, name, int(getattr(self, name)))
        if isinstance(self.lam, numbers.Real):  # and a numpy float a float
            object.__setattr__(self, "lam", float(self.lam))
        check_simulation(self.grid_n, self.replications, self.seed)
        if self.p < 1 or self.k < 1:
            raise ValueError("p and K must be positive")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"break fraction must lie in (0, 1), got {self.lam}")
        if self.family not in (FOURIER_RAW, FOURIER_TRANSFORMED):
            raise ValueError(f"unknown basis family {self.family!r}")
        check_k(self.k, self.grid_n)


def check_simulation(grid_n: int, replications: int, seed: int) -> None:
    """``ValueError`` unless a simulation may draw ``replications`` times on
    a grid of ``grid_n`` points from ``seed``: whole numbers, the grid within
    ``100..MAX_GRID``, the replications within ``1000..MAX_REPLICATIONS``
    and the seed nonnegative. :class:`LimitSpec` checks through it, and a
    study with a simulated reference before its first replication."""
    _require_integers(grid_n=grid_n, replications=replications, seed=seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not 100 <= grid_n <= MAX_GRID:
        raise ValueError(f"need 100..{MAX_GRID} grid points, got {grid_n}")
    if not 1000 <= replications <= MAX_REPLICATIONS:
        raise ValueError(
            f"need 1000..{MAX_REPLICATIONS} replications, got {replications}"
        )


def check_k(k: int, grid_n: int) -> None:
    """``ValueError`` unless a law of ``k`` basis functions may be simulated
    on a grid of ``grid_n`` points: ``k <= grid_n - 2`` and ``k <= MAX_K``.
    :class:`LimitSpec` checks through it, and a study with a simulated
    reference checks its largest fixed K before its first replication."""
    if k > grid_n - 2:
        raise ValueError(
            f"need K <= n - 2 = {grid_n - 2} on the simulation grid of"
            f" n = {grid_n} points, got K={k}"
        )
    if k > MAX_K:
        raise ValueError(f"need K <= {MAX_K} for a simulated law, got K={k}")


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


def _quad_forms(eta0: np.ndarray, etas: np.ndarray, k: int):
    """Quadratic forms ``eta0' W^{-1} eta0`` per replication and a singular
    mask, with ``W = K^{-1} sum_j eta_j eta_j'``.

    numkit's pivot rule factors the stack of every replication's ``W`` as
    ``U'U`` and, in the same loop, solves ``U'y = eta0``: the form is
    ``y'y``. A replication is singular when a pivot is at or below ``1e-12``
    times the largest diagonal entry of its ``W``; its form is redrawn.
    """
    w = np.einsum("kcp,kcq->cpq", etas, etas) / k
    _, y, rank = _pivot_factor(w, _PIVOT_RTOL, eta0[:, :, None])
    return (y * y).sum(axis=(-2, -1)), rank < eta0.shape[1]


def _base_draws(spec: LimitSpec) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Per-replication ``(B, eta0)`` pairs plus redraw count and the
    basis's norm factor, the mean of ``G``'s diagonal; raises
    ``NotPositiveDefinite`` unless all K vectors pass ``R_G``'s pivots."""
    n, lam, p, k, reps = spec.grid_n, spec.lam, spec.p, spec.k, spec.replications
    gram_root, norms = series_root(n, k, lam, spec.family)
    if len(norms) < k:
        raise NotPositiveDefinite(
            f"only {len(norms)} of K={k} basis vectors pass the Gram's "
            f"pivots on a grid of {n}"
        )
    k_star = break_index(lam, n)
    m_00 = (k_star / lam**2 + (n - k_star) / (1.0 - lam) ** 2) / n
    eta0_scale = np.sqrt(lam * (1.0 - lam) * m_00)
    m = k + 1
    quads = np.empty(reps)
    eta0_all = np.empty((reps, p))
    redraws = 0

    def forms(z: np.ndarray):
        # z holds one m x p matrix per replication: eta_0 scales its row 0,
        # and eta_1..K = R_G Z[1:] comes from one (count p) x K product
        eta0 = eta0_scale * z[:, 0]
        etas = z[:, 1:].transpose(0, 2, 1).reshape(-1, k) @ gram_root.T
        etas = etas.reshape(len(z), p, k).transpose(2, 0, 1)
        return (eta0, *_quad_forms(eta0, etas, k))

    per_block = max(1, _BLOCK_NORMALS // (m * p))
    for block, start in enumerate(range(0, reps, per_block)):
        rep_ids = np.arange(start, min(start + per_block, reps))
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
            z = stream_normals(spec.seed, attempt * reps + rep_ids[bad], m * p)
            # assigned left to right, so ``bad`` narrows last
            eta0[bad], quad[bad], bad[bad] = forms(z.reshape(-1, m, p))
        quads[rep_ids], eta0_all[rep_ids] = quad, eta0
    return quads, eta0_all, redraws, float(norms.mean())


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


def empirical_p(
    dist: SimulatedDistribution, x: float | np.ndarray
) -> float | np.ndarray:
    """Tail frequency ``(#{draws >= x} + 1) / (reps + 1)``; never exactly 0,
    and NaN at NaN. An array ``x`` takes one search over the sorted draws."""
    n = len(dist.draws)
    p = (n - np.searchsorted(dist.draws, x, side="left") + 1) / (n + 1)
    p = np.where(np.isnan(x), np.nan, p)
    return float(p) if np.ndim(p) == 0 else p


def _cache_filename(spec: LimitSpec, kind: str) -> str:
    return (
        f"{kind}_p{spec.p}_k{spec.k}_lam{spec.lam!r}_{spec.family}"
        f"_n{spec.grid_n}_r{spec.replications}_s{spec.seed}.cv"
    )


def _checksum(fields: dict, payload: bytes) -> int:
    """CRC-32 of a cache file's header fields, as canonical JSON, then of
    its payload: a header that parses to other values fails it too."""
    return zlib.crc32(payload, zlib.crc32(json.dumps(fields, sort_keys=True).encode()))


def save_distribution(dist: SimulatedDistribution, path: str) -> None:
    """Write ``dist`` to a temporary file beside ``path``, then rename it
    over ``path``, so a concurrent reader sees the old file or the new one,
    never a partial one."""
    payload = dist.draws.astype("<f8").tobytes()
    header = {"version": FILE_VERSION, "kind": dist.kind, "redraws": dist.redraws}
    header.update(asdict(dist.spec))
    header["crc32"] = _checksum(header, payload)
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode())
            fh.write(b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_distribution(path: str) -> SimulatedDistribution:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    if not isinstance(header, dict):
        raise ValueError(f"malformed header in cache file {path}: not an object")
    if header.get("version") != FILE_VERSION:
        raise ValueError(f"unsupported cache version in {path}")
    if header.pop("crc32", None) != _checksum(header, payload):
        raise ValueError(f"cache file {path} fails its checksum")
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
    if not (np.isfinite(draws).all() and (draws[1:] >= draws[:-1]).all()):
        raise ValueError(f"cache file {path} holds unsorted or nonfinite draws")
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
    truncated, malformed or wrong-version file, one whose payload fails its
    checksum or whose draws are not finite and sorted, or one that holds
    another kind or spec, is logged, re-simulated and overwritten. Each
    lookup logs its source, redraw count and spec at DEBUG level.

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
