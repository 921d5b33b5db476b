import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace as dataclass_replace

import numpy as np
import pytest

from harchow import fixedlimit
from harchow.bases import break_index, fourier_matrix, kernel_matrix, series_root
from harchow.errors import KTooSmall, NotPositiveDefinite
from harchow.fixedlimit import (
    _BLOCK_NORMALS,
    F_INF,
    F_STAR_INF,
    SCALED_F_INF,
    T_STAR_INF,
    CriticalValueCache,
    LimitSpec,
    SimulatedDistribution,
    _base_draws,
    _cache_filename,
    _quad_forms,
    critical_value,
    empirical_p,
    export_csv,
    load_distribution,
    save_distribution,
    simulate_limit,
)
from harchow.numkit import RngStream, chi_square, dist_quantile, fisher_f
from oracles import grid_weights, kernel_inner


def small_spec(**kwargs):
    defaults = dict(
        p=2, k=8, lam=0.4, family="fourier-transformed",
        grid_n=200, replications=2000, seed=0,
    )
    defaults.update(kwargs)
    return LimitSpec(**defaults)


class TestSimulateLimit:
    def test_bitwise_reproducible(self):
        d1 = simulate_limit(small_spec(), SCALED_F_INF)
        d2 = simulate_limit(small_spec(), SCALED_F_INF)
        assert np.array_equal(d1.draws, d2.draws)

    def test_seeds_differ(self):
        d1 = simulate_limit(small_spec(seed=0), SCALED_F_INF)
        d2 = simulate_limit(small_spec(seed=1), SCALED_F_INF)
        assert not np.array_equal(d1.draws, d2.draws)

    def test_kinds_are_rescalings(self):
        spec = small_spec()
        f_inf = simulate_limit(spec, F_INF).draws
        scaled = simulate_limit(spec, SCALED_F_INF).draws
        lam_w = spec.lam * (1 - spec.lam)
        factor = (spec.k - spec.p + 1) / (spec.k * spec.p) * lam_w
        assert np.allclose(scaled, f_inf * factor, rtol=1e-12)

    def test_f_draws_nonnegative(self):
        assert np.all(simulate_limit(small_spec(), F_STAR_INF).draws >= 0)

    def test_k_below_p_rejected(self):
        with pytest.raises(KTooSmall):
            simulate_limit(small_spec(k=1), F_INF)

    def test_t_requires_p1(self):
        with pytest.raises(ValueError):
            simulate_limit(small_spec(), T_STAR_INF)

    def test_t_squared_equals_f_star(self):
        spec = small_spec(p=1, k=6)
        t_draws = simulate_limit(spec, T_STAR_INF).draws
        f_draws = simulate_limit(spec, F_STAR_INF).draws
        assert np.allclose(np.sort(t_draws**2), f_draws, rtol=1e-10)

    def test_prop1_bridge_transformed(self):
        # with kernel-orthonormal bases and integer lam * grid, the scaled
        # draws follow F(p, K - p + 1) exactly; 1e5 replications put the
        # quantiles' sampling SD near 0.7%, well inside the tolerance
        spec = LimitSpec(
            p=2, k=8, lam=0.4, family="fourier-transformed",
            grid_n=1000, replications=100_000, seed=1,
        )
        dist = simulate_limit(spec, SCALED_F_INF)
        for q in (0.90, 0.95):
            simulated = critical_value(dist, 1 - q)
            analytic = dist_quantile(fisher_f(2, 7), q)
            assert abs(simulated - analytic) / analytic < 0.025

    def test_large_k_chi_square_approximation(self):
        # the chi-square reference is the large-K limit of the modified
        # statistic's law; at K=48 the 0.95 quantile sits about 6% above
        # chi-square(1) (the F(1,48)-vs-chi2 gap alone is 5.2%), shrinking
        # from about 29% at K=12
        chi_q = dist_quantile(chi_square(1), 0.95)
        errors = {}
        for k in (12, 48):
            spec = LimitSpec(
                p=1, k=k, lam=0.4, family="fourier-raw",
                grid_n=1000, replications=20_000, seed=3,
            )
            q = critical_value(simulate_limit(spec, F_STAR_INF), 0.05)
            errors[k] = abs(q - chi_q) / chi_q
        assert errors[48] < errors[12]
        assert errors[48] < 0.12

    def test_quantile_stable_across_seeds(self):
        spec1 = small_spec(replications=10_000, grid_n=500, seed=11)
        spec2 = small_spec(replications=10_000, grid_n=500, seed=12)
        d1 = simulate_limit(spec1, SCALED_F_INF)
        d2 = simulate_limit(spec2, SCALED_F_INF)
        q1, q2 = critical_value(d1, 0.05), critical_value(d2, 0.05)
        # quantile standard error via the empirical quantile slope
        slope = (critical_value(d1, 0.03) - critical_value(d1, 0.07)) / 0.04
        se = np.sqrt(0.95 * 0.05 / 10_000) * slope
        assert abs(q1 - q2) < 3 * np.sqrt(2) * se


def _grid_sum_draws(spec: LimitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reference law: replication i draws its n x p grid increments e from
    substream i and forms eta = W'e, the grid sum the exact draw replaces.
    Returns the quadratic forms and the scaled eta_0 rows."""
    _, _, weights = grid_weights(spec)
    n, p, reps = spec.grid_n, spec.p, spec.replications
    block = np.empty((n, reps * p))
    for rep in range(reps):
        stream = RngStream(spec.seed, stream=rep)
        block[:, rep * p : (rep + 1) * p] = stream.normals(n * p).reshape(n, p)
    eta = (weights.T @ block).reshape(spec.k + 1, reps, p)
    eta0 = np.sqrt(spec.lam * (1.0 - spec.lam)) * eta[0]
    quad, bad = _quad_forms(eta0, eta[1:], spec.k)
    assert not bad.any()
    return quad, eta0


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    fa = np.searchsorted(a, x, side="right") / len(a)
    fb = np.searchsorted(b, x, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


# SHA-256 of the draws (quadratic forms, then eta_0) of 10k replications at
# grid 100, lambda 0.4, seed 21: eta_0 a scaled row of each replication's
# normals, eta_1..K one row-major product with R_G'. The digests are those of
# this numpy and BLAS build, and they hold under OPENBLAS_NUM_THREADS=1 and 2
# (see fixedlimit's module docstring for where the thread count still moves
# the bits).
PINNED_DRAWS = [
    ("fourier-raw", 1, 4, "ceaa2010ada78893865e98a76971e0a6a9151d204f560dc0b1587842c3ffe638"),
    ("fourier-raw", 2, 8, "9e91a55e54216868afe28730e85648dd3d2feb8aad4b493658ed0f51e3252dce"),
    ("fourier-raw", 3, 12, "605bf9af976d0d50ab561f26366cd33cc0979f2585c0f45faf7f60da1bef2d0d"),
    ("fourier-raw", 1, 40, "2b050a9724996aefc240bf2f41e3dd9ce6ee0b9bec46f4265fafb94eed92e646"),
    ("fourier-transformed", 1, 4, "be526400ada88b45708b1f72f438c5c989cc975ec9d123eddeec4d9bf94179ab"),
    ("fourier-transformed", 2, 8, "5d35108e7f6b25d6ee6288fbea2355b3594de81c170885b2e9d3f2b5150ad3dc"),
    ("fourier-transformed", 3, 12, "309b6916bd3739918aca4b84996bb1c38d6f0b3318c65385ac5f07b4f55b7754"),
    ("fourier-transformed", 1, 40, "b1f82c6eead6e0fdd880d1a3215acdcbf4b3efc974e428ccd0493fce9af070ab"),
]


@pytest.mark.parametrize(
    "family, p, k, digest", PINNED_DRAWS,
    ids=[f"{family}-{p}-{k}" for family, p, k, _ in PINNED_DRAWS],
)
def test_draws_are_pinned(family, p, k, digest):
    spec = LimitSpec(p=p, k=k, lam=0.4, family=family, grid_n=100, seed=21)
    quads, eta0, redraws, _ = _base_draws(spec)
    assert redraws == 0
    assert hashlib.sha256(quads.tobytes() + eta0.tobytes()).hexdigest() == digest


_DRAW_DIGESTS = """
import hashlib, json
from harchow.fixedlimit import LimitSpec, _base_draws
digests = {}
for grid, lam in ((100, 0.4), (201, 0.37)):
    for family in ("fourier-raw", "fourier-transformed"):
        for p in (1, 2, 3):
            for k in (4, 8, 12, 16, 24, 32, 40):
                spec = LimitSpec(p=p, k=k, lam=lam, family=family, grid_n=grid,
                                 replications=1000, seed=21)
                quads, eta0, _, _ = _base_draws(spec)
                digest = hashlib.sha256(quads.tobytes() + eta0.tobytes())
                digests[f"{grid}-{lam}-{family}-{p}-{k}"] = digest.hexdigest()
print(json.dumps(digests))
"""


def test_draws_do_not_depend_on_the_blas_thread_count():
    # one subprocess per thread count, since OpenBLAS reads it at import; at
    # lambda n = 40 and 74.37, both families, p = 1-3 and K up to 40
    src = os.path.dirname(os.path.dirname(os.path.abspath(fixedlimit.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _DRAW_DIGESTS], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert len(runs[0]) == 84
    assert [case for case in runs[0] if runs[0][case] != runs[1][case]] == []


@pytest.mark.parametrize("family", ["fourier-raw", "fourier-transformed"])
def test_singular_corner_spec_raises(family):
    # K = n - 2 at even n and even k*: the Gram has no root
    spec = LimitSpec(p=2, k=98, lam=0.4, family=family, grid_n=100, seed=21)
    with pytest.raises(NotPositiveDefinite):
        _base_draws(spec)


class TestExactDraw:
    @pytest.mark.parametrize("n", [100, 500, 1000])
    @pytest.mark.parametrize("k", [1, 8, 32])
    def test_transformed_row_covariance_is_block_diagonal(self, n, k):
        # the paper's proposition on the grid: eta_0 is independent of the
        # eta_j, which are iid, so the scaled draws are F(p, K - p + 1)
        spec = LimitSpec(p=1, k=k, lam=0.4, family="fourier-transformed", grid_n=n)
        _, _, weights = grid_weights(spec)
        m = weights.T @ weights
        c = m[1, 1]
        assert np.max(np.abs(m[0, 1:])) / np.sqrt(m[0, 0] * c) < 1e-12
        assert np.max(np.abs(m[1:, 1:] / c - np.eye(k))) < 1e-12

    @pytest.mark.parametrize("family, n, k, lam", [
        pytest.param(family, n, k, lam, id=f"{family}-{n}-{k}")
        for n, k, lam in [(200, 8, 0.4), (1000, 32, 0.37), (1001, 100, 0.7), (100, 98, 0.41)]
        for family in ("fourier-raw", "fourier-transformed")
    ])
    def test_root_reproduces_the_row_covariance(self, family, n, k, lam):
        # the root comes from the regime sums; the grid's W'W is the oracle,
        # lambda n non-integer at the middle two points; the last is K = n - 2
        # at even n with odd k* = 41, one step off the singular corner. W'W is
        # diag(M_00, G): R_G is series_root's, and eta_0 is sqrt(lam (1 - lam)
        # M_00) times row 0 of each replication's normals
        spec = LimitSpec(p=1, k=k, lam=lam, family=family, grid_n=n, replications=1000)
        _, _, weights = grid_weights(spec)
        root, _ = series_root(n, k, lam, family)
        m = weights.T @ weights
        scale = np.max(np.diag(m))
        assert np.max(np.abs(root @ root.T - m[1:, 1:])) < 1e-12 * scale
        assert np.max(np.abs(m[0, 1:])) < 1e-12 * scale
        _, eta0, _, mean_sq = _base_draws(spec)
        block = min(_BLOCK_NORMALS // (k + 1), spec.replications) * (k + 1)
        z0 = RngStream(spec.seed, stream=0).normals(block)[0]
        m_00 = (eta0[0, 0] / z0) ** 2 / (lam * (1.0 - lam))
        assert m_00 == pytest.approx(m[0, 0], rel=1e-12)
        assert mean_sq == pytest.approx(np.diag(m)[1:].mean(), rel=1e-12)

    @pytest.mark.parametrize("family", ["fourier-raw", "fourier-transformed"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_same_law_as_the_grid_sum(self, family, p):
        # two independent samples of 4000 from one law; the bound is the
        # alpha = 0.001 two-sample KS critical value, fixed before running
        reps = 4000
        bound = np.sqrt(-np.log(0.001 / 2) / 2) * np.sqrt(2 / reps)
        spec = LimitSpec(
            p=p, k=8, lam=0.4, family=family,
            grid_n=200, replications=reps, seed=5,
        )
        quad, eta0 = _grid_sum_draws(dataclass_replace(spec, seed=6))
        mean_sq = (grid_weights(spec)[1] ** 2).mean()
        if p == 1:
            kind, reference = T_STAR_INF, np.sign(eta0[:, 0]) * np.sqrt(quad * mean_sq)
        else:
            kind, reference = F_STAR_INF, quad * mean_sq
        draws = simulate_limit(spec, kind).draws
        assert _ks_statistic(draws, reference) < bound

    def test_redraw_replaces_only_the_flagged_replication(self, monkeypatch):
        # two blocks of 2**16 // ((K + 1) p) replications, the flag in the first
        spec = small_spec(replications=5000)
        per_block = _BLOCK_NORMALS // ((spec.k + 1) * spec.p)
        plain_quads, plain_eta0, redraws, _ = _base_draws(spec)
        assert redraws == 0
        flagged = 5
        original = fixedlimit._quad_forms
        calls = []

        def flag_once(eta0, etas, k):
            quad, bad = original(eta0, etas, k)
            if not calls:
                bad = bad.copy()
                bad[flagged] = True
            calls.append(len(quad))
            return quad, bad

        monkeypatch.setattr(fixedlimit, "_quad_forms", flag_once)
        quads, eta0, redraws, _ = _base_draws(spec)
        assert redraws == 1
        assert calls == [per_block, 1, spec.replications - per_block]
        assert np.nonzero(quads != plain_quads)[0].tolist() == [flagged]
        keep = np.arange(spec.replications) != flagged
        assert np.array_equal(quads[keep], plain_quads[keep])
        assert np.array_equal(eta0[keep], plain_eta0[keep])
        # the redraw comes from the replication's own substream reps + i:
        # eta_0 scales its row 0 as replication 0's scales block 0's, and
        # eta_1..K is R_G times its other rows
        k, p = spec.k, spec.p
        root, _ = series_root(spec.grid_n, k, spec.lam, spec.family)
        stream = RngStream(spec.seed, stream=spec.replications + flagged)
        z = stream.normals((k + 1) * p).reshape(1, k + 1, p)
        first = RngStream(spec.seed, stream=0).normals(per_block * (k + 1) * p)[:p]
        scale = plain_eta0[0] / first
        assert eta0[flagged] == pytest.approx(z[0, 0] * scale, rel=1e-15)
        etas = z[:, 1:].transpose(0, 2, 1).reshape(-1, k) @ root.T
        etas = etas.reshape(1, p, k).transpose(2, 0, 1)
        expected, _ = original(eta0[flagged][None], etas, k)
        assert quads[flagged] == expected[0]

    def test_one_stream_per_block(self, monkeypatch):
        # the tier-1 twin of the benchmark's numkit.rng_streams counter
        counts = {"streams": 0, "normals": 0}

        class CountingStream(RngStream):
            def __init__(self, *args, **kwargs):
                counts["streams"] += 1
                super().__init__(*args, **kwargs)

            def normals(self, n):
                counts["normals"] += n
                return super().normals(n)

        monkeypatch.setattr(fixedlimit, "RngStream", CountingStream)
        spec = small_spec(replications=5000)
        dist = simulate_limit(spec, SCALED_F_INF)
        assert dist.redraws == 0
        per_block = _BLOCK_NORMALS // ((spec.k + 1) * spec.p)
        assert counts["streams"] == math.ceil(spec.replications / per_block) == 2
        assert counts["normals"] == spec.replications * (spec.k + 1) * spec.p

    def test_both_families_raise_on_the_singular_corner(self):
        # at K = n - 2 with even n and even k*, a combination of the K
        # vectors is constant within both regimes, so the demeaned Gram is
        # singular; one vector fewer always passes
        for n in (100, 101, 200):
            for lam in (0.4, 0.405, 0.37, 0.25):
                corner = n % 2 == 0 and break_index(lam, n) % 2 == 0
                for family in ("fourier-raw", "fourier-transformed"):
                    spec = LimitSpec(p=1, k=n - 2, lam=lam, family=family, grid_n=n)
                    if corner:
                        with pytest.raises(NotPositiveDefinite):
                            _base_draws(spec)
                    else:
                        assert len(series_root(n, n - 2, lam, family)[1]) == n - 2
                    assert len(series_root(n, n - 3, lam, family)[1]) == n - 3

    def test_large_grid_builds_no_grid_by_grid_array(self):
        # at a grid of 20000 the dense kernel alone would be 3.2 GB; at
        # 200000 an n x (K+1) grid of weights would be 14 MB
        import tracemalloc

        for grid_n in (20000, 200000):
            spec = LimitSpec(
                p=2, k=8, lam=0.4, family="fourier-transformed",
                grid_n=grid_n, replications=1000, seed=0,
            )
            tracemalloc.start()
            try:
                dist = simulate_limit(spec, F_STAR_INF)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dist.replications == 1000
            assert np.all(np.isfinite(dist.draws))
            assert peak < 16 * 2**20, grid_n


class TestGridProperties:
    def test_eta0_grid_exactly_orthogonal_to_demeaned_columns(self):
        spec = small_spec(grid_n=500)
        phi0, tilde, _ = grid_weights(spec)
        assert np.max(np.abs(phi0 @ tilde)) < 1e-9 * spec.grid_n

    def test_eta_covariances_match_kernel_inner(self):
        # empirical covariance of the weighted sums reproduces the kernel
        # inner product of the basis columns; compared on the unit-diagonal
        # (correlation) scale, where 0.02 is several MC standard errors
        n, k, lam, reps = 400, 4, 0.4, 50_000
        kern = kernel_matrix(n, lam)
        for family in ("fourier-raw", "fourier-transformed"):
            spec = LimitSpec(
                p=1, k=k, lam=lam, family=family,
                grid_n=n, replications=2000, seed=0,
            )
            phi0, tilde, _ = grid_weights(spec)
            rng = RngStream(77, 0)
            draws = rng.normals(reps * n).reshape(reps, n)
            etas = draws @ tilde / np.sqrt(n)  # reps x k
            eta0 = np.sqrt(lam * (1 - lam)) * draws @ phi0 / np.sqrt(n)
            basis = fourier_matrix(n, k, lam)
            if family == "fourier-transformed":
                from harchow.bases import gram_transform

                basis = gram_transform(basis, kern)
            target = np.empty((k, k))
            for j1 in range(k):
                for j2 in range(k):
                    target[j1, j2] = kernel_inner(
                        basis.matrix[:, j1], basis.matrix[:, j2], kern
                    )
            sample = etas.T @ etas / reps
            scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
            assert np.max(np.abs(sample - target) / scale) < 0.02
            for j in range(k):
                r = np.corrcoef(eta0, etas[:, j])[0, 1]
                assert abs(r) < 0.02

    @pytest.mark.parametrize("p, k", [(p, k) for p in (1, 2, 3, 4) for k in (p, 6)])
    def test_quad_forms_match_dense_solve(self, p, k):
        # K = p leaves W ill-conditioned, so the bound scales with cond(W)
        rng = np.random.default_rng(5)
        reps = 50
        etas = rng.standard_normal((k, reps, p))
        eta0 = rng.standard_normal((reps, p))
        fast, bad_fast = _quad_forms(eta0, etas, k)
        assert not bad_fast.any()
        for i in range(reps):
            w = np.zeros((p, p))
            for j in range(k):
                w += np.outer(etas[j, i], etas[j, i])
            w /= k
            direct = eta0[i] @ np.linalg.solve(w, eta0[i])
            rel = 1e-12 * max(1.0, np.linalg.cond(w))
            assert fast[i] == pytest.approx(direct, rel=rel)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_quad_forms_flags_singular(self, p):
        # replications 1 and 3 have W = 0; for p > 1 replication 2 has two
        # equal columns; the others are regular and keep their forms, the
        # tiny W of replication 4 too, since the pivot rule is relative
        rng = np.random.default_rng(6)
        etas = rng.standard_normal((3, 5, p))
        etas[:, [1, 3]] = 0.0
        etas[:, 4] *= 1e-8
        expected = np.array([False, True, False, True, False])
        if p > 1:
            etas[:, 2, 1] = etas[:, 2, 0]
            expected[2] = True
        eta0 = np.ones((5, p))
        quad, bad = _quad_forms(eta0, etas, 3)
        assert np.array_equal(bad, expected)
        for i in np.nonzero(~expected)[0]:
            w = etas[:, i].T @ etas[:, i] / 3
            assert quad[i] == pytest.approx(
                eta0[i] @ np.linalg.solve(w, eta0[i]), rel=1e-9
            )

    def test_infeasible_transformed_k_raises(self):
        # the grid of 100 points only carries 97 kernel-feasible columns
        with pytest.raises(NotPositiveDefinite):
            _base_draws(small_spec(p=1, k=98, grid_n=100))


class TestQuantilesAndPValues:
    def test_median(self):
        draws = np.sort(np.arange(1.0, 101.0))
        dist = SimulatedDistribution(small_spec(replications=1000), F_INF, draws)
        assert critical_value(dist, 0.5) == 50.0

    def test_tail_conventions(self):
        draws = np.sort(np.linspace(0.0, 1.0, 1000))
        dist = SimulatedDistribution(small_spec(), F_INF, draws)
        assert empirical_p(dist, -1.0) == 1.0
        assert empirical_p(dist, 2.0) == pytest.approx(1 / 1001)

    def test_array_p_values_are_the_scalar_ones(self):
        draws = np.sort(np.linspace(0.0, 1.0, 1000))
        dist = SimulatedDistribution(small_spec(), F_INF, draws)
        xs = np.array([[-1.0, 0.0, 0.25], [0.5, 0.9995, 2.0]])
        p = empirical_p(dist, xs)
        assert p.shape == xs.shape
        assert p.ravel().tolist() == [empirical_p(dist, float(x)) for x in xs.ravel()]
        assert type(empirical_p(dist, 0.5)) is float

    def test_nan_is_not_a_far_tail(self):
        # searchsorted puts NaN after every draw; its p-value is NaN, not
        # the smallest one, so a NaN statistic is never rejected
        dist = SimulatedDistribution(small_spec(), F_INF, np.sort(np.arange(1000.0)))
        assert math.isnan(empirical_p(dist, math.nan))
        assert np.isnan(empirical_p(dist, np.array([math.nan, 1.0]))).tolist() == [
            True, False,
        ]

    def test_alpha_domain(self):
        dist = SimulatedDistribution(small_spec(), F_INF, np.arange(10.0))
        with pytest.raises(ValueError):
            critical_value(dist, 0.0)


class TestCache:
    def test_file_roundtrip(self, tmp_path):
        dist = simulate_limit(small_spec(), SCALED_F_INF)
        path = str(tmp_path / "dist.cv")
        save_distribution(dist, path)
        loaded = load_distribution(path)
        assert np.array_equal(loaded.draws, dist.draws)
        assert loaded.spec == dist.spec
        assert loaded.kind == SCALED_F_INF

    def test_rerun_same_seed_identical_file(self, tmp_path):
        p1, p2 = str(tmp_path / "a.cv"), str(tmp_path / "b.cv")
        save_distribution(simulate_limit(small_spec(), F_STAR_INF), p1)
        save_distribution(simulate_limit(small_spec(), F_STAR_INF), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_cache_memory_and_disk(self, tmp_path):
        cache = CriticalValueCache(str(tmp_path))
        spec = small_spec()
        d1 = cache.get(spec, SCALED_F_INF)
        files = os.listdir(tmp_path)
        assert len(files) == 1
        # a fresh cache instance must read the persisted file, not resimulate
        cache2 = CriticalValueCache(str(tmp_path))
        d2 = cache2.get(spec, SCALED_F_INF)
        assert np.array_equal(d1.draws, d2.draws)

    @pytest.mark.parametrize("damage", [
        "payload", "header", "version", "field", "not-an-object", "sign-flip",
        "nan-draw", "low-bit-flip", "redraws-digit",
    ])
    def test_damaged_file_is_resimulated(self, tmp_path, caplog, damage):
        spec = small_spec()
        CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF)
        (name,) = os.listdir(tmp_path)
        path = str(tmp_path / name)
        with open(path, "rb") as fh:
            header, payload = fh.read().split(b"\n", 1)
        if damage == "payload":
            damaged = header + b"\n" + payload[: len(payload) // 2]
        elif damage == "header":
            damaged = header[: len(header) // 2]
        elif damage == "not-an-object":
            damaged = b"[1, 2]\n" + payload
        elif damage in ("sign-flip", "nan-draw"):
            # the draw at 95% of the sorted positive draws turns negative
            # (its sign bit flipped) or NaN; the header is intact
            draws = np.frombuffer(payload, "<f8").copy()
            at = len(draws) * 95 // 100
            draws[at] = -draws[at] if damage == "sign-flip" else np.nan
            damaged = header + b"\n" + draws.tobytes()
        elif damage == "low-bit-flip":
            # the low bit of draw 950's lowest mantissa byte: the draws stay
            # finite and sorted, and only the checksum sees the damage
            flipped = bytearray(payload)
            flipped[950 * 8] ^= 1
            damaged = header + b"\n" + bytes(flipped)
        elif damage == "redraws-digit":
            # the header still parses, with another redraw count; only the
            # checksum over the header's fields sees it
            assert b'"redraws": 0,' in header
            damaged = header.replace(b'"redraws": 0,', b'"redraws": 7,') + b"\n" + payload
        else:
            fields = json.loads(header)
            if damage == "version":
                fields["version"] = -1
            else:
                del fields["kind"]
            damaged = json.dumps(fields).encode() + b"\n" + payload
        with open(path, "wb") as fh:
            fh.write(damaged)
        with caplog.at_level(logging.WARNING, logger="harchow.fixedlimit"):
            dist = CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF)
        fresh = simulate_limit(spec, F_STAR_INF)
        assert np.array_equal(dist.draws, fresh.draws)
        assert dist.redraws == fresh.redraws
        assert name in caplog.text
        # the damaged file was overwritten and no temporary file is left
        assert os.listdir(tmp_path) == [name]
        assert np.array_equal(load_distribution(path).draws, dist.draws)

    @pytest.mark.parametrize("other", ["lambda", "kind"])
    def test_file_for_another_request_is_resimulated(self, tmp_path, caplog, other):
        # a file renamed to another request's name holds another lambda or
        # another kind
        spec = small_spec()
        CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF)
        (held,) = os.listdir(tmp_path)
        if other == "lambda":
            spec, kind = small_spec(lam=0.4000001), F_STAR_INF
        else:
            kind = F_INF
        name = _cache_filename(spec, kind)
        os.rename(tmp_path / held, tmp_path / name)
        with caplog.at_level(logging.WARNING, logger="harchow.fixedlimit"):
            dist = CriticalValueCache(str(tmp_path)).get(spec, kind)
        assert (dist.spec, dist.kind) == (spec, kind)
        assert np.array_equal(dist.draws, simulate_limit(spec, kind).draws)
        assert name in caplog.text
        assert os.listdir(tmp_path) == [name]
        loaded = load_distribution(str(tmp_path / name))
        assert (loaded.spec, loaded.kind) == (spec, kind)

    def test_near_lambdas_keep_their_own_files(self, tmp_path, caplog):
        specs = [small_spec(), small_spec(lam=0.4000001)]
        assert _cache_filename(specs[0], F_STAR_INF) != _cache_filename(specs[1], F_STAR_INF)
        for spec in specs:
            CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF)
        assert len(os.listdir(tmp_path)) == 2
        with caplog.at_level(logging.DEBUG, logger="harchow.fixedlimit"):
            for spec in specs:
                assert CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF).spec == spec
        assert caplog.text.count("from disk") == 2
        assert "re-simulating" not in caplog.text

    def test_a_numpy_lambda_shares_the_file_of_its_float(self, tmp_path, caplog):
        # the file name used to print np.float64(0.4) as written, so an
        # equal spec was simulated and stored a second time
        specs = [small_spec(lam=np.float64(0.4)), small_spec(lam=0.4)]
        assert specs[0] == specs[1] and type(specs[0].lam) is float
        assert _cache_filename(specs[0], F_STAR_INF) == _cache_filename(specs[1], F_STAR_INF)
        with caplog.at_level(logging.DEBUG, logger="harchow.fixedlimit"):
            for spec in specs:
                CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF)
        assert os.listdir(tmp_path) == [_cache_filename(specs[1], F_STAR_INF)]
        assert caplog.text.count("from disk") == 1

    def test_memory_cache_keys_on_the_exact_spec(self):
        cache = CriticalValueCache()
        base, near = small_spec(), small_spec(lam=0.4000001)
        first = cache.get(base, F_STAR_INF)
        assert cache.get(near, F_STAR_INF).spec == near
        assert cache.get(base, F_STAR_INF) is first

    def test_disk_backed_memory_keeps_what_callers_hold(self, tmp_path, caplog):
        spec = small_spec()
        cache, memory_only = CriticalValueCache(str(tmp_path)), CriticalValueCache()
        held = cache.get(spec, F_STAR_INF)
        assert cache.get(spec, F_STAR_INF) is held
        draws = held.draws.copy()
        memory_only.get(spec, F_STAR_INF)
        del held
        with caplog.at_level(logging.DEBUG, logger="harchow.fixedlimit"):
            again = cache.get(spec, F_STAR_INF)
            memory_only.get(spec, F_STAR_INF)
        # the released entry was read back from its file, bitwise equal;
        # without a directory memory is the only store and keeps it
        assert [r.getMessage().split(" ")[2] for r in caplog.records] == ["disk", "memory"]
        assert np.array_equal(again.draws, draws)

    def test_lookup_logs_its_source(self, tmp_path, caplog):
        spec = small_spec()
        with caplog.at_level(logging.DEBUG, logger="harchow.fixedlimit"):
            cache = CriticalValueCache(str(tmp_path))
            held = cache.get(spec, F_STAR_INF)
            assert cache.get(spec, F_STAR_INF) is held
            CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF)
        lines = [
            r.getMessage() for r in caplog.records
            if r.name == "harchow.fixedlimit" and r.levelno == logging.DEBUG
        ]
        assert len(lines) == 3
        for line, source in zip(lines, ("simulated", "memory", "disk")):
            assert f"from {source} (redraws 0)" in line
            assert str(spec) in line

    def test_export_csv_writes_the_savetxt_bytes(self, tmp_path):
        t_draws = simulate_limit(small_spec(p=1, k=6), T_STAR_INF).draws
        draws = np.sort(np.concatenate([t_draws[::40], [0.0, 1e-300, 1.2e8]]))
        assert draws[0] < 0
        dist = SimulatedDistribution(small_spec(p=1, k=6), T_STAR_INF, draws)
        path, reference = tmp_path / "draws.csv", tmp_path / "savetxt.csv"
        export_csv(dist, str(path))
        np.savetxt(str(reference), draws, delimiter=",", header="draw", comments="")
        assert path.read_bytes() == reference.read_bytes()

    def test_export_csv(self, tmp_path):
        dist = simulate_limit(small_spec(), SCALED_F_INF)
        path = str(tmp_path / "draws.csv")
        export_csv(dist, path)
        values = np.loadtxt(path, skiprows=1)
        assert np.allclose(values, dist.draws)


def test_spec_validation():
    with pytest.raises(ValueError):
        LimitSpec(p=0, k=4, lam=0.4)
    with pytest.raises(ValueError):
        LimitSpec(p=1, k=4, lam=0.4, grid_n=50)
    with pytest.raises(ValueError):
        LimitSpec(p=1, k=4, lam=0.4, replications=10)
    with pytest.raises(ValueError):
        LimitSpec(p=1, k=4, lam=1.5)
    # the caps are accepted, and one past either is refused
    top = dict(grid_n=fixedlimit.MAX_GRID, replications=fixedlimit.MAX_REPLICATIONS)
    LimitSpec(p=1, k=4, lam=0.4, **top)
    for field in top:
        with pytest.raises(ValueError, match=f"got {top[field] + 1}$"):
            LimitSpec(p=1, k=4, lam=0.4, **{**top, field: top[field] + 1})


@pytest.mark.parametrize("field, value", [
    (field, value)
    for field in ("p", "k", "grid_n", "replications", "seed")
    for value in (8.5, 8.0, True, "8", None)
] + [("seed", -1)], ids=repr)
def test_spec_refuses_a_count_or_seed_that_is_no_integer(field, value):
    # a fractional K used to fail deep in the draw with a TypeError, and a
    # fractional seed to simulate seed 1's draws under a cache file of its own
    base = dict(p=1, k=8, lam=0.4, grid_n=200, replications=1000, seed=3)
    with pytest.raises(ValueError, match=f"{field} must be"):
        LimitSpec(**{**base, field: value})


def test_spec_keeps_numpy_ints_as_ints(tmp_path):
    # numpy ints are accepted and stored as ints, so the cache header is JSON
    spec = LimitSpec(
        p=np.int64(1), k=np.int32(8), lam=0.4, grid_n=np.int64(200),
        replications=np.int64(1000), seed=np.uint8(3),
    )
    assert spec == LimitSpec(p=1, k=8, lam=0.4, grid_n=200, replications=1000, seed=3)
    assert all(type(getattr(spec, name)) is int
               for name in ("p", "k", "grid_n", "replications", "seed"))
    dist = CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF)
    assert CriticalValueCache(str(tmp_path)).get(spec, F_STAR_INF).draws.tobytes() == (
        dist.draws.tobytes()
    )


def test_spec_caps_k():
    # the K x K Gram a simulation factors is bounded whatever the grid
    n = 10**5
    assert LimitSpec(p=1, k=fixedlimit.MAX_K, lam=0.4, grid_n=n).k == fixedlimit.MAX_K
    for k in (fixedlimit.MAX_K + 1, 50_000):
        with pytest.raises(ValueError, match=f"simulated law, got K={k}$"):
            LimitSpec(p=1, k=k, lam=0.4, grid_n=n)


def test_spec_rejects_k_beyond_the_simulation_grid():
    # K = n - 2 is the largest basis the grid carries (the raw family's
    # degenerate Nyquist case included); beyond it the message names the
    # simulation grid, not a sample size
    assert LimitSpec(p=2, k=198, lam=0.4, grid_n=200).k == 198
    with pytest.raises(ValueError, match="simulation grid of n = 200 points"):
        LimitSpec(p=2, k=199, lam=0.4, grid_n=200)
    with pytest.raises(ValueError, match="got K=200"):
        LimitSpec(p=2, k=200, lam=0.4, grid_n=200)
