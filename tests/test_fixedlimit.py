import json
import logging
import os

import numpy as np
import pytest

from harchow.bases import fourier_matrix, kernel_inner, kernel_matrix
from harchow.errors import KTooSmall, NotPositiveDefinite
from harchow.fixedlimit import (
    F_INF,
    F_STAR_INF,
    SCALED_F_INF,
    T_STAR_INF,
    CriticalValueCache,
    LimitSpec,
    SimulatedDistribution,
    _grids,
    _quad_forms,
    critical_value,
    empirical_p,
    export_csv,
    load_distribution,
    save_distribution,
    simulate_limit,
)
from harchow.numkit import RngStream, chi_square, dist_quantile, fisher_f


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
        # draws follow F(p, K - p + 1) exactly; fixed seed keeps this stable
        spec = LimitSpec(
            p=2, k=8, lam=0.4, family="fourier-transformed",
            grid_n=1000, replications=10_000, seed=1,
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

    @pytest.mark.parametrize("p", [2, 3])
    def test_quad_forms_generic_path_matches_closed_form(self, p):
        # p = 2 takes the closed form, p = 3 the per-replication factor
        rng = np.random.default_rng(5)
        k, reps = 6, 50
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
            assert fast[i] == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("p", [2, 3])
    def test_quad_forms_flags_singular(self, p):
        etas = np.zeros((3, 4, p))
        eta0 = np.ones((4, p))
        _, bad = _quad_forms(eta0, etas, 3)
        assert bad.all()

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
