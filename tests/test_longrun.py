import numpy as np
import pytest

from harchow.bases import fourier_matrix, gram_transform, kernel_matrix
from harchow.errors import NotPositiveDefinite
from harchow.longrun import sandwich_variance, series_lrv, sums_outer
from harchow.numkit import cholesky
from harchow.regression import RegressionData, full_break_hypothesis, ols_fit
from oracles import score_sums


def fixture(t=12, seed=0):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(t), rng.standard_normal(t)])
    y = rng.standard_normal(t)
    data = RegressionData(y, x, None, 0.5)
    fit = ols_fit(data, full_break_hypothesis(2))
    return data, fit


class TestSeriesLrv:
    def test_zero_residuals(self):
        data, fit = fixture()
        basis = fourier_matrix(12, 2, 0.5)
        omega = series_lrv(basis, fit.xz, np.zeros(12))
        assert np.max(np.abs(omega)) == 0.0

    def test_k1_is_single_outer_product(self):
        data, fit = fixture(seed=1)
        basis = fourier_matrix(12, 1, 0.5)
        omega = series_lrv(basis, fit.xz, fit.residuals)
        g = basis.matrix[:, 0] @ (fit.xz * fit.residuals[:, None]) / np.sqrt(12)
        assert np.allclose(omega, np.outer(g, g), atol=1e-14)
        # rank one: second singular value vanishes
        assert np.linalg.matrix_rank(omega, tol=1e-10) <= 1

    def test_double_loop_oracle(self):
        data, fit = fixture(seed=2)
        t, k = 12, 2
        basis = fourier_matrix(t, k, 0.5)
        omega = series_lrv(basis, fit.xz, fit.residuals)
        expected = np.zeros((4, 4))
        for j in range(k):
            partial = np.zeros(4)
            for ti in range(t):
                partial += basis.matrix[ti, j] * fit.xz[ti] * fit.residuals[ti]
            partial /= np.sqrt(t)
            expected += np.outer(partial, partial)
        expected /= k
        assert np.max(np.abs(omega - expected)) < 1e-12

    def test_column_sign_flips_invariant(self):
        data, fit = fixture(seed=3)
        basis = fourier_matrix(12, 4, 0.5)
        omega = series_lrv(basis, fit.xz, fit.residuals)
        flipped = basis.matrix * np.array([1.0, -1.0, -1.0, 1.0])
        from harchow.bases import BasisSet, FOURIER_RAW

        basis2 = BasisSet(t=12, k=4, lam=0.5, family=FOURIER_RAW, matrix=flipped)
        omega2 = series_lrv(basis2, fit.xz, fit.residuals)
        assert np.allclose(omega, omega2, atol=1e-14)

    def test_column_permutation_invariant(self):
        data, fit = fixture(seed=4)
        basis = fourier_matrix(12, 4, 0.5)
        omega = series_lrv(basis, fit.xz, fit.residuals)
        from harchow.bases import BasisSet, FOURIER_RAW

        permuted = BasisSet(
            t=12, k=4, lam=0.5, family=FOURIER_RAW,
            matrix=basis.matrix[:, [2, 0, 3, 1]],
        )
        omega2 = series_lrv(permuted, fit.xz, fit.residuals)
        assert np.allclose(omega, omega2, atol=1e-14)

    def test_dimension_mismatch(self):
        basis = fourier_matrix(12, 2, 0.5)
        with pytest.raises(ValueError):
            series_lrv(basis, np.ones((10, 2)), np.ones(10))


class TestSandwichVariance:
    def test_zero_contrast(self):
        v = sandwich_variance(np.zeros((1, 4)), np.eye(4), np.eye(4))
        assert np.max(np.abs(v)) == 0.0

    def test_identity_weighting(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal((2, 4))
        omega = rng.standard_normal((4, 4))
        omega = omega @ omega.T
        assert np.allclose(
            sandwich_variance(r, np.eye(4), omega), r @ omega @ r.T, atol=1e-12
        )

    def test_explicit_inverse_oracle(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal((2, 4))
        q = rng.standard_normal((4, 4))
        q = q @ q.T + 0.5 * np.eye(4)
        omega = rng.standard_normal((4, 4))
        omega = omega @ omega.T
        qinv = np.linalg.inv(q)
        expected = r @ qinv @ omega @ qinv @ r.T
        assert np.max(np.abs(sandwich_variance(r, q, omega) - expected)) < 1e-10

    def test_not_pd_from_q(self):
        with pytest.raises(NotPositiveDefinite):
            sandwich_variance(np.eye(2, 4), np.zeros((4, 4)), np.eye(4))


class TestPositiveDefiniteness:
    def test_sandwich_pd_on_random_data(self):
        # transformed basis with K >= p keeps the contrast variance invertible
        hyp = full_break_hypothesis(2)
        t, lam, k = 30, 0.4, 4
        basis = gram_transform(fourier_matrix(t, k, lam), kernel_matrix(t, lam))
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = np.column_stack([np.ones(t), rng.standard_normal(t)])
            y = rng.standard_normal(t)
            fit = ols_fit(RegressionData(y, x, None, lam), hyp)
            v = sandwich_variance(
                hyp.contrast, fit.q_hat, series_lrv(basis, fit.xz, fit.residuals)
            )
            cholesky(v)  # raises if not PD
            assert np.allclose(v, v.T, atol=1e-12)


def test_sums_outer_of_vector_series():
    basis = fourier_matrix(16, 3, 0.5)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(16)
    out = sums_outer(score_sums(basis, v))
    assert out.shape == (1, 1)
