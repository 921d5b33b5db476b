import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.random import PCG64, SeedSequence

from harchow import bases
from harchow.numkit import rng
from harchow.numkit.rng import stream_normals
from harchow.errors import NotPositiveDefinite, Unstable
from harchow.numkit.linalg import _pivot_factor
from harchow.numkit import (
    RngStream,
    chi_square,
    cholesky,
    dist_cdf,
    dist_quantile,
    dist_sf,
    erfc,
    fisher_f,
    leading_spd_rank,
    lyapunov_solve,
    normal,
    regularized_beta,
    regularized_gamma_p,
    regularized_gamma_q,
    solve_general,
    solve_triangular,
    spd_solve,
    spectral_radius,
    student_t,
)

from oracles import chi2_pdf, f_pdf, quantile_positive, spd_solve_two_pass


def random_spd(n, rng, jitter=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


class TestCholesky:
    def test_identity(self):
        u = cholesky(np.eye(3))
        assert np.array_equal(u, np.eye(3))

    def test_hand_example(self):
        u = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 1.0], [0.0, math.sqrt(2.0)]])
        assert np.allclose(u, expected, atol=1e-14)

    def test_rank_one_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 20):
            s = random_spd(n, rng)
            u = cholesky(s)
            assert np.max(np.abs(u.T @ u - s)) <= 1e-12 * np.max(np.abs(s))
            assert np.all(np.diag(u) > 0)
            assert np.allclose(np.tril(u, -1), 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_leading_rank(self):
        rng = np.random.default_rng(8)
        s = random_spd(4, rng)
        assert leading_spd_rank(s) == 4
        b = rng.standard_normal((5, 3))
        assert leading_spd_rank(b @ b.T) == 3  # rank deficient beyond 3


class TestSolvers:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spd_solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = spd_solve(np.diag([2.0, 4.0]), np.array([1.0, 1.0]))
        assert np.allclose(x, [0.5, 0.25], atol=1e-15)

    def test_residual_random_spd(self):
        rng = np.random.default_rng(11)
        s = random_spd(5, rng)
        b = rng.standard_normal((5, 3))
        x = spd_solve(s, b)
        assert np.max(np.abs(s @ x - b)) <= 1e-10 * np.max(np.abs(b))

    def test_triangular_roundtrip(self):
        rng = np.random.default_rng(12)
        u = np.triu(rng.standard_normal((6, 6))) + 3 * np.eye(6)
        b = rng.standard_normal(6)
        assert np.allclose(u @ solve_triangular(u, b, lower=False), b, atol=1e-10)
        assert np.allclose(u.T @ solve_triangular(u.T, b, lower=True), b, atol=1e-10)

    def test_general_solve_matches_numpy(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        assert np.allclose(solve_general(a, b), np.linalg.solve(a, b), atol=1e-10)


class TestLyapunov:
    def test_zero_coefficient(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(lyapunov_solve(np.zeros((2, 2)), sigma), sigma)

    def test_scalar_geometric(self):
        g = lyapunov_solve(np.array([[0.5]]), np.array([[1.0]]))
        assert abs(g[0, 0] - 4.0 / 3.0) < 1e-12

    def test_truncated_series_oracle(self):
        a = np.array([[0.5, 0.2], [-0.1, 0.3]])
        sigma = np.array([[1.0, 0.2], [0.2, 0.5]])
        expected = np.zeros((2, 2))
        power = np.eye(2)
        for _ in range(200):
            expected += power @ sigma @ power.T
            power = power @ a
        g = lyapunov_solve(a, sigma)
        assert np.max(np.abs(g - expected)) < 1e-12
        assert np.max(np.abs(g - a @ g @ a.T - sigma)) <= 1e-10 * np.max(np.abs(sigma))
        assert np.allclose(g, g.T, atol=1e-12)
        cholesky(g)  # PSD (in fact PD here)

    def test_unstable_rejected(self):
        with pytest.raises(Unstable):
            lyapunov_solve(np.array([[1.01]]), np.array([[1.0]]))


class TestSpectralRadius:
    def test_small_closed_forms(self):
        assert spectral_radius(np.array([[-0.7]])) == pytest.approx(0.7)
        a = np.array([[0.5, 0.2], [0.1, 0.3]])
        assert spectral_radius(a) == pytest.approx(
            max(abs(np.linalg.eigvals(a))), abs=1e-12
        )

    def test_complex_pair(self):
        rot = 0.8 * np.array(
            [[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]]
        )
        assert spectral_radius(rot) == pytest.approx(0.8, abs=1e-12)

    def test_power_iteration_3x3(self):
        rng = np.random.default_rng(21)
        a = 0.9 * rng.standard_normal((3, 3)) / 3
        target = max(abs(np.linalg.eigvals(a)))
        assert spectral_radius(a) == pytest.approx(target, rel=2e-2)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def _mixed_stack(n, rng):
    """SPD members plus a zero matrix, a tiny regular one and, for n > 1, a
    rank-deficient one and one with two equal leading columns."""
    stack = [random_spd(n, rng) for _ in range(6)]
    stack += [np.zeros((n, n)), 1e-9 * random_spd(n, rng)]
    if n > 1:
        b = rng.standard_normal((n, n - 1))
        stack.append(b @ b.T)
        s = random_spd(n, rng)
        s[:, 1] = s[:, 0]
        s[1, :] = s[0, :]
        stack.append(s)
    return np.stack(stack)


class TestStacks:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pivot_factor_gives_each_member_its_rank(self, n):
        stack = _mixed_stack(n, np.random.default_rng(30 + n))
        u, rank = _pivot_factor(stack, 1e-12)
        for member, u_i, rank_i in zip(stack, u, rank):
            u_one, rank_one = _pivot_factor(member, 1e-12)
            assert rank_i == rank_one
            scale = max(1.0, np.abs(u_one).max())
            assert np.max(np.abs(u_i - u_one)) <= 1e-12 * scale
        assert (rank < n).any() and (rank == n).any()

    def test_cholesky_raises_iff_some_member_fails(self):
        rng = np.random.default_rng(40)
        good = np.stack([random_spd(4, rng) for _ in range(5)])
        u = cholesky(good)
        for member, u_i in zip(good, u):
            assert np.allclose(u_i, cholesky(member), rtol=1e-12, atol=1e-14)
        for bad in range(5):
            stack = good.copy()
            stack[bad, :, 3] = stack[bad, :, 2]
            stack[bad, 3, :] = stack[bad, 2, :]
            with pytest.raises(NotPositiveDefinite):
                cholesky(stack)

    def test_solvers_match_members(self):
        rng = np.random.default_rng(41)
        spd = np.stack([random_spd(4, rng) for _ in range(7)])
        general = rng.standard_normal((7, 4, 4)) + 3 * np.eye(4)
        b = rng.standard_normal((7, 4, 3))
        shared = rng.standard_normal((4, 2))  # one matrix for every member
        for solve, a in ((spd_solve, spd), (solve_general, general)):
            for rhs in (b, shared):
                x = solve(a, rhs)
                for i in range(7):
                    one = solve(a[i], rhs[i] if rhs.ndim == 3 else rhs)
                    assert np.allclose(x[i], one, rtol=1e-12, atol=1e-14)
        upper = np.triu(general)
        x = solve_triangular(upper, b, lower=False)
        for i in range(7):
            assert np.allclose(upper[i] @ x[i], b[i], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_radius_and_lyapunov_match_members(self, n):
        rng = np.random.default_rng(42 + n)
        a = rng.standard_normal((9, n, n))
        a *= (0.9 / np.array([spectral_radius(m) + 1e-12 for m in a]))[:, None, None]
        if n == 3:
            a[4] = np.triu(a[4], 1)  # nilpotent: the power iterate vanishes
        sigma = np.stack([random_spd(n, rng) for _ in range(9)])
        radius = spectral_radius(a)
        g = lyapunov_solve(a, sigma)
        for i in range(9):
            assert radius[i] == pytest.approx(spectral_radius(a[i]), rel=1e-12, abs=0)
            assert np.allclose(g[i], lyapunov_solve(a[i], sigma[i]), rtol=1e-12, atol=0)
        if n == 3:
            assert radius[4] == 0.0
        a[2] *= 1.2 / 0.9
        with pytest.raises(Unstable):
            lyapunov_solve(a, sigma)


def _kernel_gram(t, lam, k):
    sums = bases._regime_sums(t, k, lam)
    return bases._kernel_gram(sums, sums.c_kernel)


class TestFactorWithRightHandSide:
    """``_pivot_factor(s, rtol, rhs)`` is the factor without ``rhs`` plus the
    forward solve ``U'Y = rhs`` on the kept rows."""

    @pytest.mark.parametrize("name, make", [
        ("kernel-600-40", lambda: _kernel_gram(600, 0.4, 40)),
        ("kernel-600-125", lambda: _kernel_gram(600, 0.4, 125)),
        ("kernel-900-600", lambda: _kernel_gram(900, 0.4, 600)),
        ("kernel-101-0.7-99-trimmed", lambda: _kernel_gram(101, 0.7, 99)),
        ("plain-spd", lambda: random_spd(150, np.random.default_rng(50))),
    ])
    def test_one_matrix(self, name, make):
        s = make()
        rtol = 1e-8 if name.startswith("kernel") else 1e-12
        rhs = np.random.default_rng(51).standard_normal((len(s), 3))
        u0, rank0 = _pivot_factor(s, rtol)
        u, y, rank = _pivot_factor(s, rtol, rhs)
        assert rank == rank0
        assert (rank < len(s)) == name.endswith("trimmed")
        assert np.max(np.abs(u - u0)) <= 1e-14 * np.max(np.abs(u0))
        kept = u0[:rank, :rank]
        want = solve_triangular(kept.T, rhs[:rank], lower=True)
        assert np.max(np.abs(y[:rank] - want)) <= 1e-13 * np.max(np.abs(want))
        assert not y[rank:].any()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_stack_is_the_factor_then_the_solve_bitwise(self, p):
        rng = np.random.default_rng(60 + p)
        stack = np.concatenate([_mixed_stack(p, rng) for _ in range(625)])[:5000]
        rhs = rng.standard_normal((5000, p, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u, y, rank = _pivot_factor(stack, 1e-12, rhs)
        u0, rank0 = _pivot_factor(stack, 1e-12)
        assert np.array_equal(_bits(u), _bits(u0))
        assert np.array_equal(rank, rank0)
        kept = rank == p
        assert kept.any() and (~kept).any()
        want = solve_triangular(np.swapaxes(u0[kept], 1, 2), rhs[kept], lower=True)
        assert np.array_equal(_bits(y[kept]), _bits(want))
        for y_i, rank_i in zip(y[~kept], rank[~kept]):
            assert not y_i[rank_i:].any()


class TestSpdSolveContract:
    """``spd_solve`` is the factor, the forward solve and the back solve of
    ``spd_solve_two_pass``: bitwise on a stack, whose loop products are the
    same elementwise sums, and to rounding on one matrix, whose BLAS products
    span the factor's row and the right-hand side together."""

    @staticmethod
    def _rhs(rng, shape, width):
        """One vector for ``width=None``, else ``width`` columns per matrix."""
        if width is None:
            return rng.standard_normal(shape[-1])
        return rng.standard_normal(shape[:-1] + (width,))

    @pytest.mark.parametrize("width", [1, 3, 300, None])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_stack_is_the_two_pass_solve_bitwise(self, p, width):
        rng = np.random.default_rng(70 + p)
        a = rng.standard_normal((5000, p, p))
        stack = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(p)
        rhs = self._rhs(rng, stack.shape, width)
        x = spd_solve(stack, rhs)
        want = spd_solve_two_pass(stack, rhs)
        assert x.shape == want.shape
        assert np.array_equal(_bits(x), _bits(want))

    @pytest.mark.parametrize("width", [3, None])
    @pytest.mark.parametrize("n", [4, 40, 130])
    def test_one_matrix_is_the_two_pass_solve(self, n, width):
        rng = np.random.default_rng(80 + n)
        s = random_spd(n, rng)
        rhs = self._rhs(rng, s.shape, width)
        x, want = spd_solve(s, rhs), spd_solve_two_pass(s, rhs)
        assert x.shape == want.shape
        assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_matrix_against_a_stacked_right_hand_side(self):
        rng = np.random.default_rng(90)
        s = random_spd(3, rng)
        rhs = rng.standard_normal((50, 3, 2))
        x, want = spd_solve(s, rhs), spd_solve_two_pass(s, rhs)
        assert x.shape == want.shape == (50, 3, 2)
        assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_singular_members_raise_the_factor_message(self, p):
        stack = _mixed_stack(p, np.random.default_rng(95 + p))
        with pytest.raises(NotPositiveDefinite) as factor:
            cholesky(stack)
        for rhs in (np.ones(p), np.ones((len(stack), p, 2))):
            with pytest.raises(NotPositiveDefinite) as solve:
                spd_solve(stack, rhs)
            assert str(solve.value) == str(factor.value)


class TestDistributions:
    def test_normal_cdf_symmetry(self):
        assert dist_cdf(normal(), 0.0) == pytest.approx(0.5, abs=1e-15)
        assert dist_cdf(normal(), 1.5) + dist_cdf(normal(), -1.5) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_chi2_quantile_matches_quadrature(self):
        # frozen from the quadrature oracle (and the closed form -2 log 0.05)
        assert dist_quantile(chi_square(2), 0.95) == pytest.approx(
            5.991464547107983, abs=1e-8
        )
        oracle = quantile_positive(chi2_pdf(5), 0.9)
        assert dist_quantile(chi_square(5), 0.9) == pytest.approx(oracle, abs=1e-6)

    def test_f_quantile_matches_quadrature(self):
        assert dist_quantile(fisher_f(2, 9), 0.95) == pytest.approx(
            4.256494729093902, abs=1e-7
        )
        oracle = quantile_positive(f_pdf(3, 11), 0.975)
        assert dist_quantile(fisher_f(3, 11), 0.975) == pytest.approx(oracle, abs=1e-6)

    def test_t_squared_is_f(self):
        for df in (1, 3, 8, 30):
            for q in (0.8, 0.95, 0.995):
                t_val = dist_quantile(student_t(df), q)
                f_val = dist_quantile(fisher_f(1, df), 2 * q - 1)
                assert t_val**2 == pytest.approx(f_val, rel=1e-9)

    def test_cdf_quantile_roundtrip(self):
        dists = [normal()]
        for df in (1, 2, 3, 5, 10, 20, 50):
            dists += [chi_square(df), student_t(df)]
            for df2 in (1, 4, 50):
                dists.append(fisher_f(df, df2))
        qs = np.arange(0.01, 1.0, 0.02)
        for d in dists:
            for q in qs:
                assert dist_cdf(d, dist_quantile(d, q)) == pytest.approx(
                    q, abs=1e-7
                ), d

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            dist_quantile(normal(), 0.0)
        with pytest.raises(ValueError):
            dist_quantile(normal(), 1.0)
        with pytest.raises(ValueError):
            chi_square(0.0)

    def test_cdf_monotone(self):
        grid = np.linspace(-6, 6, 200)
        values = [dist_cdf(student_t(4), x) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("law, q", [
        (fisher_f(2, 0.01), 0.5),  # the 0.5 quantile is near 8e57
        (student_t(0.05), 0.99),
    ])
    def test_quantile_beyond_the_bracket_raises(self, law, q):
        # the bracket search stops at its cap; a point there is no quantile
        with pytest.raises(ValueError, match="no bracket closes"):
            dist_quantile(law, q)


class TestUpperTail:
    """``dist_sf`` against closed-form tails, to 1e-12 relative, out to
    where ``1 - dist_cdf`` has rounded to 0 or lost its digits."""

    def test_chi_square_2(self):
        for x in (0.01, 0.5, 2.0, 5.99, 20.0, 80.0, 300.0, 1400.0):
            assert dist_sf(chi_square(2), x) == pytest.approx(
                math.exp(-x / 2), rel=1e-12
            ), x
        assert 1.0 - dist_cdf(chi_square(2), 80.0) == 0.0
        assert dist_sf(chi_square(2), 0.0) == dist_sf(chi_square(2), -1.0) == 1.0

    @pytest.mark.parametrize("d2", [1, 3, 7, 13, 50])
    def test_fisher_f_2(self, d2):
        for x in (0.01, 0.4, 3.0, 19.0, 500.0, 1e6):
            assert dist_sf(fisher_f(2, d2), x) == pytest.approx(
                (1 + 2 * x / d2) ** (-d2 / 2), rel=1e-12
            ), x

    def test_normal_two_sided(self):
        for x in (0.0, 0.3, 1.96, 5.0, 12.0, 30.0):
            assert 2 * dist_sf(normal(), x) == pytest.approx(
                math.erfc(x / math.sqrt(2)), rel=1e-12
            ), x

    def test_student_t_1_two_sided(self):
        for x in (0.0, 0.2, 1.0, 12.7, 1e3, 1e8):
            assert 2 * dist_sf(student_t(1), x) == pytest.approx(
                2 / math.pi * math.atan(1 / x) if x else 1.0, rel=1e-12
            ), x
        # the lower half of the line is the complement
        assert dist_sf(student_t(1), -1.0) == pytest.approx(0.75, rel=1e-15)

    def test_complements_cdf(self):
        for d in (normal(), chi_square(3), student_t(5), fisher_f(3, 11)):
            for x in (-1.5, 0.2, 1.0, 4.0):
                assert dist_sf(d, x) + dist_cdf(d, x) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d1, d2", [(2, 0.01), (1, 0.3), (5, 0.02)])
    def test_fisher_cdf_complements_where_the_argument_rounds_to_1(self, d1, d2):
        # d1 x / (d1 x + d2) rounds to 1 long before the tail is small
        law = fisher_f(d1, d2)
        for x in (1e17, 1e100, 1e300):
            assert d1 * x / (d1 * x + d2) == 1.0
            assert dist_cdf(law, x) + dist_sf(law, x) == pytest.approx(1.0, abs=1e-12)
        closed = (1 + 2 * 1e100 / 0.01) ** (-0.01 / 2)
        assert dist_sf(fisher_f(2, 0.01), 1e100) == pytest.approx(closed, rel=1e-12)
        assert dist_cdf(fisher_f(2, 0.01), 1e100) == pytest.approx(1 - closed, rel=1e-12)


LAWS = [normal(), chi_square(2), student_t(3), fisher_f(2, 5)]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestNonFiniteTails:
    """Infinite and overflowing points take the limits of the tail and the
    CDF, and NaN gives NaN, on the scalar and the array path alike."""

    @pytest.mark.parametrize("law", LAWS, ids=lambda d: d.family)
    def test_limits(self, law):
        for x in (math.inf, 1e308):
            assert dist_sf(law, x) == 0.0
            assert dist_cdf(law, x) == 1.0
        assert dist_cdf(law, -math.inf) == 0.0
        assert dist_sf(law, -math.inf) == 1.0
        tails = dist_sf(law, np.array([math.inf, 1e308, -math.inf]))
        assert tails.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("law", LAWS, ids=lambda d: d.family)
    def test_nan_gives_nan(self, law):
        assert math.isnan(dist_sf(law, math.nan))
        assert math.isnan(dist_cdf(law, math.nan))
        assert np.isnan(dist_sf(law, np.array([math.nan, 1.0]))).tolist() == [
            True, False,
        ]

    def test_special_functions(self):
        assert math.isnan(erfc(math.nan))
        assert erfc(math.inf) == erfc(1e200) == 0.0
        assert erfc(-math.inf) == 2.0
        assert regularized_gamma_q(1.5, math.inf) == 0.0
        assert regularized_gamma_p(1.5, math.inf) == 1.0
        for f in (regularized_gamma_p, regularized_gamma_q):
            assert math.isnan(f(1.5, math.nan))
        assert math.isnan(regularized_beta(2.0, 3.0, math.nan))


class TestArraySpecialFunctions:
    """The array path broadcasts over every argument and is bitwise the
    scalar function; invalid entries raise as the scalar does."""

    def test_bitwise_scalar_and_broadcast(self):
        a = np.array([[0.5], [2.0], [37.5]])
        x = np.array([0.0, 1e-9, 0.7, 3.0, 41.0, 900.0, math.inf])
        out = regularized_gamma_q(a, x)
        assert out.shape == (3, 7)
        expected = [[regularized_gamma_q(float(ai), float(xi)) for xi in x]
                    for ai in a[:, 0]]
        assert np.array_equal(_bits(out), _bits(expected))
        w = np.array([0.0, 1e-12, 0.2, 0.5, 0.93, 1.0])
        out = regularized_beta(a, 3.5, w)
        expected = [[regularized_beta(float(ai), 3.5, float(wi)) for wi in w]
                    for ai in a[:, 0]]
        assert np.array_equal(_bits(out), _bits(expected))
        z = np.array([-3.0, -0.1, 0.0, 0.4, 5.0])
        assert erfc(z).tolist() == [erfc(float(v)) for v in z]

    def test_empty_arrays(self):
        assert dist_sf(fisher_f(2, np.array([])), np.array([])).shape == (0,)
        assert regularized_beta(1.0, 2.0, np.array([])).shape == (0,)

    def test_invalid_entries_raise(self):
        with pytest.raises(ValueError):
            regularized_gamma_q(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            regularized_beta(1.0, 1.0, np.array([0.5, 1.5]))


class TestDistFamilyDegreesOfFreedom:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            fisher_f(2, bad)
        with pytest.raises(ValueError):
            chi_square(bad)
        with pytest.raises(ValueError):
            student_t(np.array([3.0, bad]))

    def test_accepts_arrays_of_positive_finite_values(self):
        law = fisher_f(2, np.arange(1, 6))
        assert dist_sf(law, np.full(5, 2.0)).shape == (5,)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).normals(1000)
        b = RngStream(123, 5).normals(1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).normals(100)
        b = RngStream(123, 1).normals(100)
        assert not np.array_equal(a, b)

    def test_moments(self):
        z = RngStream(2024, 0).normals(1_000_000)
        assert abs(z.mean()) < 0.005
        assert abs(z.var() - 1.0) < 0.01

    def test_cross_stream_correlation(self):
        n = 1_000_000
        a = RngStream(9, 0).normals(n)
        b = RngStream(9, 1).normals(n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) <= 0.01

    def test_polar_maps_words_by_the_documented_chain(self):
        # words 0, 2^11 - 1, 2^63 and 2^64 - 1 are u = -1, -1, 0 and
        # 1 - 2^-52 exactly: beside v = 0, the first three fall on the
        # rejected s = 1 and s = 0, and the last is kept with its own factor
        words = np.array([0, 2**11 - 1, 2**63, 2**64 - 1], np.uint64)
        z, index = rng._polar(words, np.full(4, 2**63, np.uint64))
        u = 1.0 - 2.0**-52
        factor = np.sqrt(-2.0 * np.log(u * u) / (u * u))
        assert index.tolist() == [3]
        assert z.tolist() == [[u * factor, 0.0]]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(1, 0).normals(-3)

    @pytest.mark.parametrize("seed, stream", [
        (1.5, 0), (1.0, 0), (True, 0), ("1", 0), (1, 2.5), (1, 2.0), (1, False),
    ], ids=repr)
    def test_refuses_a_seed_or_stream_that_is_no_integer(self, seed, stream):
        # int() used to truncate 1.5 to seed 1
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(seed, stream)

    def test_numpy_ints_name_the_same_stream(self):
        a = RngStream(np.int64(7), np.uint32(3)).normals(10)
        assert np.array_equal(a, RngStream(7, 3).normals(10))

    def test_bits_are_pinned(self):
        # sha256 of the little-endian normals, pinned before the polar pass
        # loop was written once for both draws; about 0.02 s
        def digest(*arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.asarray(a, "<f8").tobytes())
            return h.hexdigest()

        fresh = {
            0: "b44032f74832ae0798beb92506ede6d6dd37250d00259a08fd003e117a81e7e4",
            2**32 + 1:
                "d2a53a2b43c5eeb35025479a5250f036d757999f10cfea22fe83a6fd6ae66b0a",
            2**96 + 1:
                "eb546fb32233d476ed361ff80d55bb9761b8dc7734688eefc51431555d8ec51b",
        }
        for seed, expected in fresh.items():
            sizes = (0, 1, 7, 1200, 1201, 65536)
            assert digest(*[RngStream(seed).normals(n) for n in sizes]) == expected
        # one stream's state carries across calls
        stream = RngStream(2**32 + 1, 5)
        assert digest(*[stream.normals(n) for n in (5, 100, 1, 0, 999)]) == (
            "2a7daf2e023c8dba52f5be8e68c8e258ef2544e34940be0d8db035217aa24a50"
        )
        # a block with short rows at n = 1200
        block = stream_normals(2**32 + 1, range(2**32 - 32, 2**32 + 32), 1200)
        assert digest(block) == (
            "1062651340c4500d6c53cb24dc24835d9e2641609cd21ea91b546d82f5eafb72"
        )
        # pinned before the pass ran in cache-sized pieces; about 0.02 s.
        # Passes of several pieces that end in a partial one
        sizes = (12289, 2**17 + 3)
        assert digest(*[RngStream(2**32 + 1).normals(n) for n in sizes]) == (
            "12659d3855f689e51861e8644cf131921ccafa0ab0c191bffc54fcd08f8e5325"
        )
        # mc-power's block shape, whose last chunk of rows is partial
        block = stream_normals(2**32 + 1, range(2**32 - 25, 2**32 + 25), 1400)
        assert digest(block) == (
            "03b9723d998ac0617fd0fb62a53e47b87f23d7127508cae381fa5c8ed3398807"
        )
        # rows so long that a chunk holds one
        assert digest(stream_normals(7, range(3), 20000)) == (
            "5cb04ec546535a482c4c2f55a928b5a36d1e90f038d1ccc327d36395693dced9"
        )


class TestStreamNormals:
    """The block draw seeds and transforms many streams of one seed at once,
    each row bitwise the stream's own ``normals``."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**96 + 1)
    STREAMS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)  # one and two 32-bit words

    @pytest.mark.parametrize("seed", SEEDS)
    def test_array_seeding_is_numpys(self, seed):
        # 5 seeds x 5 streams, about 5 ms
        states = rng._pcg64_states(seed, list(self.STREAMS))
        for stream, state in zip(self.STREAMS, states, strict=True):
            ref = PCG64(SeedSequence(seed, spawn_key=(stream,))).state
            assert state == ref, stream

    def test_rows_are_each_streams_normals(self, monkeypatch):
        # 5 sizes x 64 streams, one- and two-word, about 0.1 s; a row the
        # first polar pass leaves short continues its own stream in the pass
        # loop, and no RngStream is built
        streams = range(2**32 - 32, 2**32 + 32)
        continued = {}
        fill = rng._polar_fill

        def counting_fill(bitgen, out, filled):
            continued[len(out)] += 1
            return fill(bitgen, out, filled)

        def refused(*args, **kwargs):
            raise AssertionError("stream_normals built an RngStream")

        for n in (7, 1200, 1201, 1400, 3000):
            ref = np.stack([RngStream(2**32 + 1, s).normals(n) for s in streams])
            continued[n] = 0
            monkeypatch.setattr(rng, "RngStream", refused)
            monkeypatch.setattr(rng, "_polar_fill", counting_fill)
            got = stream_normals(2**32 + 1, streams, n)
            monkeypatch.undo()
            assert got.shape == (64, n) and got.tobytes() == ref.tobytes(), n
        assert continued[7] == 0 and continued[1200] > 0, continued

    @pytest.mark.parametrize("pairs", [1, 7, 785, 10**6])
    def test_piece_size_is_a_pure_performance_choice(self, monkeypatch, pairs):
        # 3 blocks and one limit draw per piece size, about 1 s at 1 pair
        streams = range(2**32 - 32, 2**32 + 32)
        blocks = {n: stream_normals(2**32 + 1, streams, n) for n in (7, 1200, 1201)}
        limit = RngStream(5, 1).normals(65536)
        monkeypatch.setattr(rng, "_PASS_PAIRS", pairs)
        for n, block in blocks.items():
            assert stream_normals(2**32 + 1, streams, n).tobytes() == block.tobytes()
        assert RngStream(5, 1).normals(65536).tobytes() == limit.tobytes()

    @pytest.mark.parametrize("streams", [
        range(-1, 3), range(2, -2, -1), [0, True], (0, 1.0),
    ], ids=repr)
    def test_refuses_a_range_or_list_that_holds_no_stream(self, streams):
        # a range is checked by its ends, any other iterable id by id
        with pytest.raises(ValueError):
            stream_normals(1, streams, 10)

    def test_no_streams_or_no_normals(self):
        assert stream_normals(3, [], 5).shape == (0, 5)
        assert stream_normals(3, [0, 1], 0).shape == (2, 0)

    @pytest.mark.parametrize("seed, stream", [
        (-1, 0), (1, -1), (True, 0), (1, False), (1.0, 0), (1, 2.0), (1.5, 0),
    ], ids=repr)
    def test_refuses_what_a_stream_refuses(self, seed, stream):
        with pytest.raises(ValueError) as alone:
            RngStream(seed, stream)
        with pytest.raises(ValueError) as block:
            stream_normals(seed, [0, stream], 10)
        assert str(block.value) == str(alone.value)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            stream_normals(1, [0], -3)
