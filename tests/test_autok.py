import numpy as np
import pytest

from harchow.autok import (
    build_plugin_model,
    fit_var1,
    mse_optimal_k,
    plugin_from_fit,
    score_series,
)
from harchow.bases import FOURIER_RAW, FOURIER_TRANSFORMED, series_basis, series_sums
from harchow.errors import NotPositiveDefinite
from harchow.longrun import sandwich_variance, score_sums, series_lrv, sums_outer
from harchow.numkit import RngStream
from harchow.regression import RegressionData, full_break_hypothesis, ols_fit
from oracles import commutation_matrix, mse_variance_trace


def fitted(t=12, seed=0):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(t), rng.standard_normal(t)])
    y = rng.standard_normal(t)
    data = RegressionData(y, x, None, 0.5)
    hyp = full_break_hypothesis(2)
    return data, hyp, ols_fit(data, hyp)


class TestScoreSeries:
    def test_zero_residuals(self):
        data, hyp, fit = fitted()
        v = score_series(hyp.contrast, fit.q_hat, fit.xz, np.zeros(data.t))
        assert np.max(np.abs(v)) == 0.0

    def test_shape_p1(self):
        data, hyp, fit = fitted(seed=1)
        r1 = np.array([[1.0, 0.0, -1.0, 0.0]])
        v = score_series(r1, fit.q_hat, fit.xz, fit.residuals)
        assert v.shape == (data.t, 1)

    # (T, lambda, K, stack size, stable covariates z)
    IDENTITY_CASES = [
        (12, 0.5, 3, None, False),
        (101, 0.7, 40, None, False),  # non-integer lambda T: K cut to 21
        (100, 0.4, 98, None, False),  # trimmed K: 97 kept
        (80, 0.4, 20, 6, False),      # a stack of six fits
        (90, 0.35, 30, None, True),
    ]

    def test_sandwich_consistency_identity(self):
        # the series estimator is linear in the series, so applied to the
        # T x p score proxy it is the sandwich of the 2m-column scores' one,
        # through a basis and through series_sums alike
        r = full_break_hypothesis(2).contrast
        for t, lam, k, reps, with_z in self.IDENTITY_CASES:
            rng = np.random.default_rng(t)
            shape = (t,) if reps is None else (reps, t)
            x = np.stack([np.ones(shape), rng.standard_normal(shape)], axis=-1)
            z = rng.standard_normal((t, 1)) if with_z else None
            y = rng.standard_normal(shape) + (0.3 * z[:, 0] if with_z else 0.0)
            fit = ols_fit(RegressionData(y, x, z, lam), full_break_hypothesis(2))
            v = score_series(r, fit.q_hat, fit.xz, fit.residuals)
            scores = fit.xz * fit.residuals[..., None]
            for family in (FOURIER_RAW, FOURIER_TRANSFORMED):
                basis = series_basis(t, k, lam, family)
                omega = series_lrv(basis, fit.xz, fit.residuals)
                pairs = [(
                    sums_outer(score_sums(basis, v)),
                    sandwich_variance(r, fit.q_hat, omega),
                )]
                for i in np.ndindex(shape[:-1]):
                    g_v, norms = series_sums(v[i], k, lam, family)
                    g_scores, _ = series_sums(scores[i], k, lam, family)
                    assert len(norms) == basis.k
                    pairs.append((
                        sums_outer(g_v),
                        sandwich_variance(r, fit.q_hat[i], sums_outer(g_scores)),
                    ))
                for direct, sandwich in pairs:
                    gap = np.max(np.abs(direct - sandwich)) / np.max(np.abs(sandwich))
                    assert gap <= 1e-12, (t, lam, k, family, gap)


class TestFitVar1:
    def test_iid_series_small_coefficient(self):
        z = RngStream(0, 0).normals(20_000).reshape(10_000, 2)
        a_hat, sigma, clamped = fit_var1(z)
        assert np.max(np.abs(a_hat)) <= 0.05
        assert not clamped
        assert np.allclose(sigma, np.eye(2), atol=0.1)

    def test_ar_half_consistency(self):
        eps = RngStream(1, 0).normals(10_000)
        v = np.empty(10_000)
        prev = 0.0
        for i, e in enumerate(eps):
            prev = 0.8 * prev + e
            v[i] = prev
        a_hat, sigma, clamped = fit_var1(v)
        assert 0.75 <= a_hat[0, 0] <= 0.85
        assert not clamped

    def test_constant_series_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            fit_var1(np.full(100, 2.5))
        with pytest.raises(NotPositiveDefinite):
            fit_var1(np.zeros((100, 2)))

    def test_explosive_fit_clamped(self):
        # a deterministic near-unit-root path plus tiny noise
        t = np.arange(200, dtype=float)
        v = 1.002**t + 1e-6 * RngStream(2, 0).normals(200)
        a_hat, sigma, clamped = fit_var1(v)
        assert clamped
        assert abs(a_hat[0, 0]) <= 0.97 + 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_var1(np.ones((5, 1)))


class TestPluginModel:
    def test_scalar_closed_forms(self):
        model = plugin_from_fit([[0.5]], [[1.0]])
        assert model.gamma0[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert model.omega_v[0, 0] == pytest.approx(4.0, rel=1e-12)
        # sum h^2 0.5^h = 0.5 * 1.5 / 0.125 = 6, times gamma0, doubled
        assert model.b_hat[0, 0] == pytest.approx(16.0, rel=1e-12)

    def test_b_hat_matches_truncated_sum(self):
        a = np.array([[0.4, 0.15], [-0.1, 0.3]])
        sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
        model = plugin_from_fit(a, sigma)
        expected = np.zeros((2, 2))
        power = a.copy()
        for h in range(1, 300):
            gamma_h = power @ model.gamma0
            expected += h * h * (gamma_h + gamma_h.T)
            power = power @ a
        assert np.max(np.abs(model.b_hat - expected)) < 1e-9

    def test_omega_v_matches_autocovariance_sum(self):
        a = np.array([[0.5]])
        sigma = np.array([[2.0]])
        model = plugin_from_fit(a, sigma)
        gamma0 = model.gamma0[0, 0]
        total = gamma0
        for h in range(1, 500):
            total += 2 * 0.5**h * gamma0
        assert model.omega_v[0, 0] == pytest.approx(total, rel=1e-10)


class TestMseOptimalK:
    def test_zero_curvature_returns_cap(self):
        model = plugin_from_fit([[0.0]], [[1.0]])
        assert np.max(np.abs(model.b_hat)) == 0.0
        assert mse_optimal_k(model, 200, 1) == 198

    def test_worked_scalar_example(self):
        # a=0.5, sigma^2=1, T=200: gamma0 = 4/3, omega = 4, B = 16, so
        # K* = (2*16 / (2 pi^4 * 256))^(1/5) * 200^(4/5) = 15.93 -> 16
        model = plugin_from_fit([[0.5]], [[1.0]])
        expected = (32 / (2 * np.pi**4 * 256)) ** 0.2 * 200**0.8
        assert round(expected) == 16
        assert mse_optimal_k(model, 200, 1) == 16

    def test_monotone_in_persistence(self):
        previous = None
        for a in np.linspace(0.05, 0.95, 19):
            k = mse_optimal_k(plugin_from_fit([[a]], [[1.0]]), 500, 1)
            if previous is not None:
                assert k <= previous
            previous = k

    def test_scale_invariant(self):
        base = plugin_from_fit([[0.6, 0.1], [0.0, 0.4]], np.eye(2))
        scaled = plugin_from_fit([[0.6, 0.1], [0.0, 0.4]], 9.0 * np.eye(2))
        for t in (100, 500):
            assert mse_optimal_k(base, t, 2) == mse_optimal_k(scaled, t, 2)

    def test_bounds(self):
        nearly_unit = plugin_from_fit([[0.95]], [[1.0]])
        assert mse_optimal_k(nearly_unit, 50, 1) >= 2
        flat = plugin_from_fit([[1e-9]], [[1.0]])
        assert mse_optimal_k(flat, 50, 1) <= 48

    def test_commutation_matrix(self):
        k = commutation_matrix(2)
        a = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(k @ a.ravel(), a.T.ravel())

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_kronecker_form(self, p):
        # the closed-form trace tr(Omega)^2 + tr(Omega^2) picks the same K as
        # tr((I + K_pp)(Omega x Omega)) on random VAR(1) fits, one by one
        # and stacked
        rng = np.random.default_rng(40 + p)
        models = []
        for _ in range(60):
            a = rng.uniform(-0.9, 0.9, (p, p)) / p
            c = rng.standard_normal((p, p))
            models.append(plugin_from_fit(a, c @ c.T + 0.1 * np.eye(p)))
        for model in models:
            omega = model.omega_v
            assert np.trace(omega) ** 2 + np.trace(omega @ omega) == pytest.approx(
                mse_variance_trace(omega), rel=1e-12
            )
        stacked = plugin_from_fit(
            np.stack([m.a_hat for m in models]), np.stack([m.sigma_hat for m in models])
        )
        for t in (60, 100, 200, 500):
            ks = mse_optimal_k(stacked, t, p)
            for model, k in zip(models, ks):
                b = model.b_hat.ravel()
                k_star = (
                    mse_variance_trace(model.omega_v) / (2 * np.pi**4 * (b @ b))
                ) ** 0.2 * t**0.8
                expected = int(np.clip(np.floor(k_star + 0.5), max(p, 2), t - 2))
                assert mse_optimal_k(model, t, p) == k == expected


def test_auto_k_decreases_with_persistence_end_to_end():
    # full pipeline: auto K on persistent data is smaller than on iid data
    from harchow.mcstudy import DgpSpec, simulate_dgp

    ks = {}
    for rho in (0.0, 0.9):
        chosen = []
        for rep in range(10):
            y, x = simulate_dgp(DgpSpec(t=200, rho=rho), RngStream(50, rep))
            data = RegressionData(y, x, None, 0.4)
            hyp = full_break_hypothesis(2)
            fit = ols_fit(data, hyp)
            v = score_series(hyp.contrast, fit.q_hat, fit.xz, fit.residuals)
            model = build_plugin_model(v)
            chosen.append(mse_optimal_k(model, 200, 2))
        ks[rho] = np.mean(chosen)
    assert ks[0.9] < ks[0.0]
