import numpy as np
import pytest

from harchow import bases
from harchow.bases import (
    FOURIER_RAW,
    FOURIER_TRANSFORMED,
    BasisSet,
    break_index,
    feasible_k,
    fourier_matrix,
    gram_matrix,
    gram_transform,
    kernel_matrix,
    norm_factor,
    phi_tilde_matrix,
    series_basis,
)
from harchow.errors import BreakTooExtreme, NotPositiveDefinite
from harchow.numkit.linalg import _pivot_factor
from oracles import kernel_factor_refactored, kernel_inner, pivot_factor_unblocked


class TestBreakIndex:
    def test_basic(self):
        assert break_index(0.4, 100) == 40
        assert break_index(0.5, 7) == 3

    def test_float_dust(self):
        # 0.29 * 100 is 28.999... in binary floating point
        assert break_index(0.29, 100) == 29

    def test_domain(self):
        with pytest.raises(ValueError):
            break_index(0.0, 100)


class TestFourierMatrix:
    def test_point_values(self):
        basis = fourier_matrix(4, 2, 0.5)
        # column 1 at r = 1/4: sqrt(2) cos(pi/2) = 0
        assert basis.matrix[0, 0] == pytest.approx(0.0, abs=1e-15)
        # column 2 at r = 1/4: sqrt(2) sin(pi/2) = sqrt(2)
        assert basis.matrix[0, 1] == pytest.approx(np.sqrt(2.0))

    def test_full_matrix_against_direct_evaluation(self):
        t, k = 8, 4
        basis = fourier_matrix(t, k, 0.5)
        r = np.arange(1, t + 1) / t
        for j in range(1, k // 2 + 1):
            assert np.allclose(
                basis.matrix[:, 2 * j - 2], np.sqrt(2) * np.cos(2 * np.pi * j * r)
            )
            assert np.allclose(
                basis.matrix[:, 2 * j - 1], np.sqrt(2) * np.sin(2 * np.pi * j * r)
            )

    def test_odd_k_truncates(self):
        basis = fourier_matrix(10, 3, 0.5)
        assert basis.k == 3
        r = np.arange(1, 11) / 10
        assert np.allclose(basis.matrix[:, 2], np.sqrt(2) * np.cos(4 * np.pi * r))

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            fourier_matrix(3, 1, 0.5)
        with pytest.raises(ValueError):
            fourier_matrix(10, 9, 0.5)


class TestKernelMatrix:
    def test_hand_example(self):
        kern = kernel_matrix(4, 0.5)
        block = np.array([[8.0, -8.0], [-8.0, 8.0]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = block
        expected[2:, 2:] = block
        assert np.allclose(kern.matrix, expected)

    def test_symmetric(self):
        for t, lam in ((10, 0.3), (17, 0.45), (50, 0.5)):
            kern = kernel_matrix(t, lam)
            assert np.array_equal(kern.matrix, kern.matrix.T)

    def test_annihilates_block_constants(self):
        # integer lam * T: within-regime constant vectors are in the null space
        for t, lam in ((10, 0.3), (10, 0.5), (50, 0.3), (50, 0.5)):
            kern = kernel_matrix(t, lam)
            k_star = break_index(lam, t)
            v1 = np.zeros(t)
            v1[:k_star] = 3.7
            v2 = np.zeros(t)
            v2[k_star:] = -1.2
            assert np.max(np.abs(kern.matrix @ v1)) < 1e-9
            assert np.max(np.abs(kern.matrix @ v2)) < 1e-9

    def test_break_too_extreme(self):
        with pytest.raises(BreakTooExtreme):
            kernel_matrix(100, 0.01)
        with pytest.raises(BreakTooExtreme):
            kernel_matrix(100, 0.995)


class TestKernelInner:
    def test_symmetry(self):
        rng = np.random.default_rng(3)
        kern = kernel_matrix(20, 0.4)
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        assert kernel_inner(a, b, kern) == pytest.approx(
            kernel_inner(b, a, kern), rel=1e-12
        )

    def test_annihilation(self):
        kern = kernel_matrix(10, 0.5)
        v = np.zeros(10)
        v[:5] = 2.0
        b = np.random.default_rng(4).standard_normal(10)
        assert kernel_inner(v, b, kern) == pytest.approx(0.0, abs=1e-12)

    def test_discrete_identity_diagonal(self):
        # quadratic form through the kernel equals the demeaned-column sum
        t, lam = 100, 0.4
        kern = kernel_matrix(t, lam)
        basis = fourier_matrix(t, 1, lam)
        col = basis.matrix[:, 0]
        lhs = kernel_inner(col, col, kern)
        tilde = phi_tilde_matrix(col, lam, t)
        assert lhs == pytest.approx(float((tilde**2).mean()), abs=1e-10)


class TestPhiTilde:
    def test_constant_column_is_zero(self):
        out = phi_tilde_matrix(np.full(10, 3.3), 0.4, 10)
        assert np.max(np.abs(out)) < 1e-12

    def test_regime_means_vanish(self):
        rng = np.random.default_rng(5)
        for lam in (0.3, 0.4, 0.55):
            col = rng.standard_normal(37)
            out = phi_tilde_matrix(col, lam, 37)
            k_star = break_index(lam, 37)
            assert abs(out[:k_star].sum()) < 1e-12
            assert abs(out[k_star:].sum()) < 1e-12

    def test_hand_evaluation(self):
        # deviations (-0.5, 0.5) scaled by 1/lam = 2, then by -1/(1-lam) = -2
        out = phi_tilde_matrix(np.array([1.0, 2.0, 3.0, 4.0]), 0.5, 4)
        assert np.allclose(out, [-1.0, 1.0, 1.0, -1.0])

    def test_matrix_version_matches_columns(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((30, 4))
        full = phi_tilde_matrix(m, 0.4, 30)
        for j in range(4):
            assert np.allclose(full[:, j], phi_tilde_matrix(m[:, j], 0.4, 30))

    def test_row_count_must_match_t(self):
        with pytest.raises(ValueError, match="does not match T=30"):
            phi_tilde_matrix(np.ones(29), 0.4, 30)
        with pytest.raises(ValueError, match="does not match T=30"):
            phi_tilde_matrix(np.ones((31, 2)), 0.4, 30)


class TestDiscreteGramIdentity:
    @pytest.mark.parametrize("t,lam", [(100, 0.4), (50, 0.5)])
    def test_gram_equals_tilde_crossproducts(self, t, lam):
        # holds elementwise when lam * T is an integer
        k = 6
        basis = fourier_matrix(t, k, lam)
        kern = kernel_matrix(t, lam)
        gram = gram_matrix(basis, kern)
        tilde = phi_tilde_matrix(basis.matrix, lam, t)
        direct = tilde.T @ tilde / t
        assert np.max(np.abs(gram - direct)) < 1e-10


class TestGramTransform:
    def test_k1_normalization(self):
        t, lam = 60, 0.4
        basis = fourier_matrix(t, 1, lam)
        kern = kernel_matrix(t, lam)
        star = gram_transform(basis, kern)
        norm = np.sqrt(kernel_inner(basis.matrix[:, 0], basis.matrix[:, 0], kern))
        assert np.allclose(star.matrix[:, 0], basis.matrix[:, 0] / norm)

    def test_all_ones_column_rejected(self):
        t, lam = 40, 0.5
        ones = BasisSet(
            t=t, k=1, lam=lam, family=FOURIER_RAW, matrix=np.ones((t, 1))
        )
        with pytest.raises(NotPositiveDefinite):
            gram_transform(ones, kernel_matrix(t, lam))

    def test_orthonormality(self):
        t, lam, k = 100, 0.4, 8
        star = gram_transform(fourier_matrix(t, k, lam), kernel_matrix(t, lam))
        gram = star.matrix.T @ kernel_matrix(t, lam).matrix @ star.matrix / t**2
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8

    def test_triangular_in_raw_columns(self):
        t, lam, k = 50, 0.3, 5
        raw = fourier_matrix(t, k, lam)
        star = gram_transform(raw, kernel_matrix(t, lam))
        for j in range(k):
            coef, *_ = np.linalg.lstsq(raw.matrix[:, : j + 1], star.matrix[:, j], rcond=None)
            recon = raw.matrix[:, : j + 1] @ coef
            assert np.max(np.abs(recon - star.matrix[:, j])) < 1e-8

    def test_idempotent(self):
        t, lam, k = 80, 0.4, 6
        kern = kernel_matrix(t, lam)
        star = gram_transform(fourier_matrix(t, k, lam), kern)
        again = gram_transform(star, kern)
        assert np.max(np.abs(again.matrix - star.matrix)) < 1e-7

    def test_transformed_norm_factor_is_one_at_integer_break(self):
        t, lam = 100, 0.4
        star = gram_transform(fourier_matrix(t, 8, lam), kernel_matrix(t, lam))
        assert norm_factor(star) == pytest.approx(1.0, abs=1e-10)
        tilde = phi_tilde_matrix(star.matrix, lam, t)
        assert np.allclose((tilde**2).mean(axis=0), 1.0, atol=1e-10)

    def test_norm_factor_per_k(self):
        # one K, the default (all columns) and an array of K values agree
        # bit for bit; the provider's column terms (from the regime sums)
        # match the mean of the demeaned columns' squares to 1e-12
        for family in (FOURIER_RAW, FOURIER_TRANSFORMED):
            basis = series_basis(60, 9, 0.3, family)
            tilde = phi_tilde_matrix(basis.matrix, 0.3, 60)
            cols = (tilde**2).mean(axis=0)
            assert norm_factor(basis) == norm_factor(basis, 9)
            assert norm_factor(basis) == pytest.approx(float(cols.mean()), rel=1e-12)
            ks = np.array([[2, 5, 9], [5, 1, 2]])
            out = norm_factor(basis, ks)
            assert out.shape == ks.shape
            for k, value in zip(ks.ravel().tolist(), out.ravel()):
                assert value == norm_factor(basis, k)
                assert value == pytest.approx(float(cols[:k].mean()), rel=1e-12)
        # a K outside 1..basis.k is refused, alone or as an array entry,
        # instead of slicing past the last column or from the end
        basis = fourier_matrix(100, 8, 0.4)
        for k in (20, -3, 0, np.array([2, 20]), np.array([[4], [0]])):
            with pytest.raises(ValueError, match="need 1 <= K <= 8"):
                norm_factor(basis, k)

    def test_feasible_k_detects_null_direction(self):
        # even T with even break row: one combination of regime indicators
        # lies in both the Fourier span and the kernel null space
        t, lam = 100, 0.4
        raw = fourier_matrix(t, t - 2, lam)
        kern = kernel_matrix(t, lam)
        assert feasible_k(raw, kern) == t - 3
        with pytest.raises(NotPositiveDefinite):
            gram_transform(raw, kern)


class TestSeriesBasis:
    def test_trims_to_kernel_feasible_count(self):
        # K = T - 2 at T = 100, lambda = 0.4 has one kernel-null direction;
        # the kept columns are refactored from their own Gram matrix
        t, lam = 100, 0.4
        kern = kernel_matrix(t, lam)
        star = series_basis(t, t - 2, lam, FOURIER_TRANSFORMED)
        assert (star.k, star.family) == (t - 3, FOURIER_TRANSFORMED)
        expected = gram_transform(fourier_matrix(t, t - 3, lam), kern)
        assert _rel_gap(star.matrix, expected.matrix) <= 1e-9
        gram = star.matrix.T @ kern.matrix @ star.matrix / t**2
        assert np.max(np.abs(gram - np.eye(t - 3))) <= 1e-8

    @pytest.mark.parametrize("k", [8, 99])
    def test_feasible_k_kept_at_odd_t(self, k):
        t, lam = 101, 0.4
        kern = kernel_matrix(t, lam)
        star = series_basis(t, k, lam, FOURIER_TRANSFORMED)
        expected = gram_transform(fourier_matrix(t, k, lam), kern)
        assert star.k == k
        assert _rel_gap(star.matrix, expected.matrix) <= 1e-9
        gram = star.matrix.T @ kern.matrix @ star.matrix / t**2
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8

    def test_raw_family_is_fourier_matrix(self):
        basis = series_basis(60, 58, 0.4, FOURIER_RAW)
        assert (basis.k, basis.family) == (58, FOURIER_RAW)
        assert np.array_equal(basis.matrix, fourier_matrix(60, 58, 0.4).matrix)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            series_basis(60, 4, 0.4, "legendre")


def test_phi_tilde_rejects_extreme_break():
    with pytest.raises(BreakTooExtreme):
        phi_tilde_matrix(np.arange(10.0), 0.05, 10)


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestRegimeSumsGram:
    """The K x K Gram that series_sums builds from the regime-one sums is
    the dense ``Phi' C_T Phi / T^2``, and series_sums keeps series_basis's K
    and sums."""

    POINTS = [(51, 0.7), (101, 0.6), (101, 0.7), (201, 0.7), (100, 0.4),
              (60, 0.4), (61, 0.35), (500, 0.4)]

    @pytest.mark.parametrize("t, lam", POINTS)
    def test_gram_equals_dense_gram(self, t, lam):
        kern = kernel_matrix(t, lam)
        for k in sorted({1, 2, 7, t // 2, t - 3, t - 2}):
            dense = gram_matrix(fourier_matrix(t, k, lam), kern)
            sums = bases._regime_sums(t, k, lam)
            gram = bases._kernel_gram(sums, sums.c_kernel)
            assert np.array_equal(gram, gram.T)
            assert _rel_gap(gram, dense) <= 1e-12, k

    @pytest.mark.parametrize("t, lam, kept", [
        (51, 0.7, 11), (101, 0.6, 54), (101, 0.7, 21), (201, 0.7, 44),
        (100, 0.4, 97), (500, 0.4, 497), (61, 0.35, 59),
    ])
    def test_same_trim_and_sums_as_series_basis(self, t, lam, kept):
        series = np.random.default_rng(t).standard_normal((t, 3))
        g, norms = bases.series_sums(series, t - 2, lam, FOURIER_TRANSFORMED)
        star = series_basis(t, t - 2, lam, FOURIER_TRANSFORMED)
        assert len(norms) == star.k == kept
        assert _rel_gap(g, star.matrix.T @ series / np.sqrt(t)) <= 1e-9
        assert np.allclose(norms, star.norms, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("t, k", [(100, 98), (101, 99), (37, 6), (36, 1)])
    def test_raw_sums_and_norms(self, t, k):
        series = np.random.default_rng(k).standard_normal((t, 2))
        raw = fourier_matrix(t, k, 0.3)
        g, norms = bases.series_sums(series, k, 0.3, FOURIER_RAW)
        assert _rel_gap(g, raw.matrix.T @ series / np.sqrt(t)) <= 1e-12
        tilde = phi_tilde_matrix(raw.matrix, 0.3, t)
        assert np.allclose(norms, (tilde**2).mean(axis=0), rtol=1e-12, atol=0)
        assert np.array_equal(norms, series_basis(t, k, 0.3, FOURIER_RAW).norms)

    def test_blocked_pivot_loop_matches_unblocked(self):
        # the one pivot loop, blocked in 64 rows, agrees with a plain row loop
        sums = bases._regime_sums(300, 298, 0.4)
        gram = bases._kernel_gram(sums, sums.c_kernel)
        u, rank = _pivot_factor(gram, 1e-8)
        u_plain, rank_plain = pivot_factor_unblocked(gram, 1e-8)
        assert rank == rank_plain == 297
        assert _rel_gap(u, u_plain) <= 1e-12

    @pytest.mark.parametrize("t, lam, k", [
        (51, 0.7, 49), (101, 0.7, 99), (100, 0.4, 98), (200, 0.4, 198),
        (2000, 0.4, 1998),
    ])
    def test_trimmed_factor_is_the_refactored_block(self, t, lam, k):
        # the kept block of the one factorization is the factor that
        # refactoring the kept block of the Gram gives
        sums = bases._regime_sums(t, k, lam)
        gram = bases._kernel_gram(sums, sums.c_kernel)
        rhs = np.column_stack([
            np.random.default_rng(t).standard_normal((k, 3)), sums.a
        ])
        u, y = bases._kernel_factor(gram, rhs)
        u_ref, y_ref = kernel_factor_refactored(gram, rhs)
        assert len(u) == len(y) == len(u_ref) < k
        assert _rel_gap(u, u_ref) <= 1e-13
        assert _rel_gap(y, y_ref) <= 1e-13
        assert len(bases._kernel_factor(gram)) == len(u)


def test_library_paths_build_no_dense_kernel(monkeypatch):
    # the basis provider, the limit simulator and the Monte Carlo engine
    # factor the K x K Gram of the regime sums; the T x T kernel and its
    # dense Gram are references only
    from harchow import fixedlimit, mcstudy

    calls = []
    for name in ("kernel_matrix", "gram_matrix"):
        def counted(*args, _name=name, _fn=getattr(bases, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(bases, name, counted)
    for family in (FOURIER_RAW, FOURIER_TRANSFORMED):
        series_basis(100, 98, 0.4, family)
        spec = fixedlimit.LimitSpec(
            p=1, k=4, lam=0.4, family=family, grid_n=200, replications=1000
        )
        fixedlimit.simulate_limit(spec, fixedlimit.F_STAR_INF)
    mcstudy.size_experiment(
        [mcstudy.DgpSpec(t=60, rho=0.0)], ("chisq-fourier", "f-transformed"),
        k_policy=4, reps=500,
    )
    assert calls == []
