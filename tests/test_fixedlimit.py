import json
import logging
import math
import os
from dataclasses import replace as dataclass_replace

import numpy as np
import pytest

from harchow import fixedlimit
from harchow.bases import fourier_matrix, kernel_matrix
from harchow.errors import KTooSmall, NotPositiveDefinite
from harchow.fixedlimit import (
    _CHUNK,
    F_INF,
    F_STAR_INF,
    SCALED_F_INF,
    T_STAR_INF,
    CriticalValueCache,
    LimitSpec,
    SimulatedDistribution,
    _base_draws,
    _cache_filename,
    _grids,
    _quad_forms,
    _root,
    _weights,
    critical_value,
    empirical_p,
    export_csv,
    load_distribution,
    save_distribution,
    simulate_limit,
)
from harchow.numkit import RngStream, chi_square, cholesky, dist_quantile, fisher_f
from oracles import kernel_inner


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
    weights, _ = _weights(spec)
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


class TestExactDraw:
    @pytest.mark.parametrize("n", [100, 500, 1000])
    @pytest.mark.parametrize("k", [1, 8, 32])
    def test_transformed_row_covariance_is_block_diagonal(self, n, k):
        # the paper's proposition on the grid: eta_0 is independent of the
        # eta_j, which are iid, so the scaled draws are F(p, K - p + 1)
        spec = LimitSpec(p=1, k=k, lam=0.4, family="fourier-transformed", grid_n=n)
        weights, _ = _weights(spec)
        m = weights.T @ weights
        c = m[1, 1]
        assert np.max(np.abs(m[0, 1:])) / np.sqrt(m[0, 0] * c) < 1e-12
        assert np.max(np.abs(m[1:, 1:] / c - np.eye(k))) < 1e-12

    @pytest.mark.parametrize(
        "family, n, k",
        [("fourier-raw", 200, 8), ("fourier-transformed", 200, 8), ("fourier-raw", 100, 98)],
    )
    def test_root_reproduces_the_row_covariance(self, family, n, k):
        # the last case is singular and takes the W' root
        weights, _ = _weights(LimitSpec(p=1, k=k, lam=0.4, family=family, grid_n=n))
        root = _root(weights)
        m = weights.T @ weights
        assert np.max(np.abs(root @ root.T - m)) < 1e-12 * np.max(np.diag(m))

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
        _, mean_sq = _weights(spec)
        if p == 1:
            kind, reference = T_STAR_INF, np.sign(eta0[:, 0]) * np.sqrt(quad * mean_sq)
        else:
            kind, reference = F_STAR_INF, quad * mean_sq
        draws = simulate_limit(spec, kind).draws
        assert _ks_statistic(draws, reference) < bound

    def test_redraw_replaces_only_the_flagged_replication(self, monkeypatch):
        spec = small_spec(replications=3000)
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
        assert calls == [_CHUNK, 1, spec.replications - _CHUNK]
        assert np.nonzero(quads != plain_quads)[0].tolist() == [flagged]
        keep = np.arange(spec.replications) != flagged
        assert np.array_equal(quads[keep], plain_quads[keep])
        assert np.array_equal(eta0[keep], plain_eta0[keep])
        # the redraw comes from the replication's own substream reps + i
        root = _root(_weights(spec)[0])
        stream = RngStream(spec.seed, stream=spec.replications + flagged)
        z = stream.normals(root.shape[1] * spec.p).reshape(-1, spec.p)
        eta = (root @ z).reshape(spec.k + 1, 1, spec.p)
        expected, _ = original(np.sqrt(spec.lam * (1 - spec.lam)) * eta[0], eta[1:], spec.k)
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
        assert counts["streams"] == math.ceil(spec.replications / _CHUNK)
        assert counts["normals"] == spec.replications * (spec.k + 1) * spec.p

    def test_singular_row_covariance_falls_back_to_the_grid_root(self):
        # at even n the raw family's Nyquist sine (K = n - 2) vanishes on
        # the grid, so W'W is singular and the root is W' itself
        spec = LimitSpec(
            p=1, k=98, lam=0.4, family="fourier-raw",
            grid_n=100, replications=1000, seed=0,
        )
        weights, _ = _weights(spec)
        with pytest.raises(NotPositiveDefinite):
            cholesky(weights.T @ weights)
        assert np.array_equal(_root(weights), weights.T)
        dist = simulate_limit(spec, F_STAR_INF)
        assert dist.replications == 1000
        assert np.all(np.isfinite(dist.draws))


class TestGridProperties:
    def test_eta0_grid_exactly_orthogonal_to_demeaned_columns(self):
        spec = small_spec(grid_n=500)
        tilde, phi0 = _grids(spec)
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
            tilde, phi0 = _grids(spec)
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
            _grids(small_spec(p=1, k=98, grid_n=100))


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

    @pytest.mark.parametrize("damage", ["payload", "header", "version", "field"])
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
        assert np.array_equal(dist.draws, simulate_limit(spec, F_STAR_INF).draws)
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


def test_spec_rejects_k_beyond_the_simulation_grid():
    # K = n - 2 is the largest basis the grid carries (the raw family's
    # degenerate Nyquist case included); beyond it the message names the
    # simulation grid, not a sample size
    assert LimitSpec(p=2, k=198, lam=0.4, grid_n=200).k == 198
    with pytest.raises(ValueError, match="simulation grid of n = 200 points"):
        LimitSpec(p=2, k=199, lam=0.4, grid_n=200)
    with pytest.raises(ValueError, match="got K=200"):
        LimitSpec(p=2, k=200, lam=0.4, grid_n=200)
