import math

import numpy as np
import pytest

from harchow import autok, bases, chowtest, longrun
from harchow.bases import (
    FOURIER_RAW,
    BasisSet,
    fourier_matrix,
    gram_transform,
    kernel_matrix,
)
from harchow.chowtest import (
    VARIANTS,
    decision_form,
    reference,
    run_test,
    statistic_forms,
    t_stat,
    variant_spec,
    wald_stat,
)
from harchow.errors import KTooSmall, NotPositiveDefinite
from harchow.fixedlimit import CriticalValueCache
from harchow.mcstudy import DgpSpec, simulate_dgp
from harchow.numkit import RngStream, dist_quantile, fisher_f
from harchow.regression import (
    BreakHypothesis,
    RegressionData,
    full_break_hypothesis,
    ols_fit,
)
import oracles

# Deterministic T=12, m=2, l=1 fixture; expected values frozen from a dense
# numpy.linalg recomputation of the displayed formulas (see dense_pipeline).
FIXTURE_BETA = np.array(
    [1.39508257344952, 1.054430337879237, 2.189181213895533, 0.3874148344854646]
)
FIXTURE_F = 87.38576673586236
FIXTURE_F_SCALED = 8.192415631487096


def fixture_data():
    s = RngStream(314159, 0)
    t = 12
    q = s.normals(t)
    z = s.normals(t)[:, None]
    u = s.normals(t)
    x = np.column_stack([np.ones(t), q])
    beta = np.array([0.5, -1.0, 1.5, 0.25])
    xt = np.zeros((t, 4))
    xt[:6, :2] = x[:6]
    xt[6:, 2:] = x[6:]
    y = xt @ beta + 0.8 * z[:, 0] + u
    return RegressionData(y, x, z, 0.5)


def dense_pipeline(data, k):
    """Brute-force dense recomputation with numpy.linalg only."""
    t, lam = data.t, data.lam
    k_star = int(np.floor(lam * t + 1e-9))
    xt = np.zeros((t, 2 * data.m))
    xt[:k_star, : data.m] = data.x[:k_star]
    xt[k_star:, data.m :] = data.x[k_star:]
    if data.z is not None:
        mz = np.eye(t) - data.z @ np.linalg.solve(data.z.T @ data.z, data.z.T)
    else:
        mz = np.eye(t)
    xz = mz @ xt
    yz = mz @ data.y
    bhat = np.linalg.solve(xz.T @ xz, xz.T @ yz)
    uhat = yz - xz @ bhat
    qhat = xz.T @ xz / t

    c = np.zeros((t, t))
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if i / t <= lam and j / t <= lam:
                c[i - 1, j - 1] += (t * (i == j) - 1 / lam) / lam**2
            if i / t > lam and j / t > lam:
                c[i - 1, j - 1] += (t * (i == j) - 1 / (1 - lam)) / (1 - lam) ** 2
    grid = np.arange(1, t + 1) / t
    phi = np.empty((t, k))
    for jj in range(k):
        freq = jj // 2 + 1
        angle = 2 * np.pi * freq * grid
        phi[:, jj] = np.sqrt(2) * (np.cos(angle) if jj % 2 == 0 else np.sin(angle))
    gram = phi.T @ c @ phi / t**2
    u_fac = np.linalg.cholesky(gram).T
    star = phi @ np.linalg.inv(u_fac)

    omega = np.zeros((2 * data.m, 2 * data.m))
    for jj in range(k):
        part = (star[:, jj : jj + 1] * xz * uhat[:, None]).sum(axis=0) / np.sqrt(t)
        omega += np.outer(part, part)
    omega /= k
    rmat = np.hstack([np.eye(data.m), -np.eye(data.m)])
    qinv = np.linalg.inv(qhat)
    v = rmat @ qinv @ omega @ qinv @ rmat.T
    rb = rmat @ bhat
    f_t = float(t * rb @ np.linalg.solve(v, rb))
    p = data.m
    f_scaled = (k - p + 1) / (k * p) * lam * (1 - lam) * f_t
    return bhat, omega, f_t, f_scaled


class TestFixtureOracle:
    def test_frozen_values(self):
        data = fixture_data()
        bhat, omega, f_t, f_scaled = dense_pipeline(data, k=4)
        assert np.allclose(bhat, FIXTURE_BETA, rtol=1e-12)
        assert f_t == pytest.approx(FIXTURE_F, rel=1e-12)
        assert f_scaled == pytest.approx(FIXTURE_F_SCALED, rel=1e-12)

    def test_library_matches_oracle(self):
        data = fixture_data()
        bhat, omega, f_t, f_scaled = dense_pipeline(data, k=4)
        hyp = full_break_hypothesis(2)
        fit = ols_fit(data, hyp)
        assert np.max(np.abs(fit.beta_hat - bhat)) <= 1e-9 * np.max(np.abs(bhat))
        basis = gram_transform(
            fourier_matrix(data.t, 4, data.lam), kernel_matrix(data.t, data.lam)
        )
        omega_lib = longrun.series_lrv(basis, fit.xz, fit.residuals)
        assert np.max(np.abs(omega_lib - omega)) <= 1e-9 * np.max(np.abs(omega))
        report = run_test(data, hyp, variant="f-transformed", k=4)
        assert report.statistic_raw == pytest.approx(FIXTURE_F, rel=1e-9)
        assert report.statistic_scaled == pytest.approx(FIXTURE_F_SCALED, rel=1e-9)


class TestWaldAndT:
    def test_zero_contrast(self):
        beta = np.array([1.0, 2.0, 1.0, 2.0])  # equal across regimes
        r = np.hstack([np.eye(2), -np.eye(2)])
        assert wald_stat(beta, r, np.eye(2), 100) == pytest.approx(0.0, abs=1e-12)

    def test_p1_wald_is_t_squared(self):
        # t is the signed root of the Wald form: t^2 is it to 2 ulp, and t
        # takes the sign of Rb, a zero's sign included
        rng = np.random.default_rng(1)
        r = np.array([[0.0, 1.0, 0.0, -1.0]])
        scales = 10.0 ** rng.integers(-6, 6, (400, 1))
        betas = list(rng.standard_normal((400, 4)) * scales)
        betas += [np.zeros(4), np.array([0.0, -0.0, 0.0, 0.0]), np.full(4, -0.0)]
        for i, beta in enumerate(betas):
            v = np.array([[rng.uniform(1e-3, 1e3)]])
            f = wald_stat(beta, r, v, 37 + i)
            t = t_stat(beta, r, v, 37 + i)
            assert abs(t * t - f) <= 2 * math.ulp(f)
            assert math.copysign(1.0, t) == math.copysign(1.0, float((r @ beta)[0]))

    def test_each_variance_factored_once_across_break_sizes(self, monkeypatch):
        # the power path's (n_deltas, B, p) contrasts against a (B, p, p)
        # variance stack: one factor call on the stack, the break sizes as
        # right-hand-side columns, bitwise the V-broadcast-per-delta form
        rng = np.random.default_rng(3)
        r = full_break_hypothesis(2).contrast
        a = rng.standard_normal((50, 2, 5))
        v = a @ a.swapaxes(-1, -2) / 5
        beta = rng.standard_normal((50, 4)) + np.multiply.outer(
            np.linspace(0.0, 1.5, 7), [0.0, 0.0, 1.0, 1.0]
        )[:, None]
        rb = (r @ beta[..., None])[..., 0]
        _, y = chowtest._spd_factor(np.broadcast_to(v, (7, 50, 2, 2)), rb[..., None])
        broadcast = 100 * (y * y).sum(axis=(-2, -1))
        calls = []

        def spy(s, rhs=None):
            calls.append((np.shape(s), np.shape(rhs)))
            return factor(s, rhs)

        factor = chowtest._spd_factor
        monkeypatch.setattr(chowtest, "_spd_factor", spy)
        wald = wald_stat(beta, r, v, 100)
        assert calls == [((50, 2, 2), (50, 2, 7))]
        assert wald.shape == (7, 50) and np.array_equal(wald, broadcast)

    def test_t_requires_single_restriction(self):
        with pytest.raises(ValueError):
            t_stat(np.zeros(4), np.eye(2, 4), np.eye(2), 10)

    @pytest.mark.parametrize("v", [[[0.0]], [[-1.0]], [[1.0, 2.0], [2.0, 4.0]]],
                             ids=["zero", "negative", "singular-2x2"])
    def test_variance_refused_by_the_pivot_rule(self, v):
        v = np.array(v)
        p = len(v)
        beta, r = np.arange(1.0, 2 * p + 1), np.hstack([np.eye(p), -np.eye(p)])
        with pytest.raises(NotPositiveDefinite):
            wald_stat(beta, r, v, 50)
        if p == 1:
            with pytest.raises(NotPositiveDefinite):
                t_stat(beta, r, v, 50)


class TestModifiedAndScaled:
    def test_transformed_norm_is_one_so_quarter_scaling(self):
        t, lam = 100, 0.4
        star = gram_transform(fourier_matrix(t, 8, lam), kernel_matrix(t, lam))
        nf = oracles.norm_factor(star)
        assert nf == pytest.approx(1.0, abs=1e-10)
        modified = statistic_forms(10.0, "F", nf, 2, 8, 0.5)["modified"]
        assert modified == pytest.approx(2.5, rel=1e-9)

    def test_raw_norm_factor_direct_summation(self):
        t, lam, k = 100, 0.4, 4
        basis = fourier_matrix(t, k, lam)
        k_star = 40
        total = 0.0
        for j in range(k):
            col = basis.matrix[:, j]
            m1 = col[:k_star].mean()
            m2 = col[k_star:].mean()
            tilde = np.concatenate(
                [(col[:k_star] - m1) / lam, -(col[k_star:] - m2) / (1 - lam)]
            )
            total += float((tilde**2).sum())
        expected = total / (k * t)
        assert oracles.norm_factor(basis) == pytest.approx(expected, rel=1e-12)

    def test_modified_t_consistency(self):
        def modified_t(t_t, nf):
            return statistic_forms(t_t, "t", nf, 1, 4, 0.5)["modified"]

        assert modified_t(2.0, 1.0) == pytest.approx(1.0)
        assert modified_t(3.0, 0.81) == pytest.approx(np.sqrt(0.25 * 0.81) * 3.0)

    def test_scaled_f_examples(self):
        def scaled_f(f_t, p, k):
            return statistic_forms(f_t, "F", 1.0, p, k, 0.4)["df-scaled"]

        # p = 1: the degrees adjustment cancels
        assert scaled_f(7.0, 1, 12) == pytest.approx(0.4 * 0.6 * 7.0)
        # p = 2, K = 2, lam = 0.4: (1/4) * 0.24
        assert scaled_f(1.0, 2, 2) == pytest.approx(0.06)
        with pytest.raises(KTooSmall):
            scaled_f(1.0, 3, 2)

    def test_scaled_t(self):
        forms = statistic_forms(2.0, "t", 1.0, 1, 4, 0.5)
        assert forms["df-scaled"] == forms["break-weighted"] == pytest.approx(1.0)

    def test_scaled_to_modified_ratio(self):
        # with transformed bases the ratio is the degrees adjustment alone
        data = fixture_data()
        report = run_test(data, variant="f-transformed", k=4)
        ratio = report.statistic_scaled / report.statistic_modified
        expected = (4 - 2 + 1) / (4 * 2) / report.norm_factor
        assert ratio == pytest.approx(expected, rel=1e-9)


class TestStatisticCore:
    def test_variant_spec_validation(self):
        assert variant_spec("f-transformed", "F") is VARIANTS["f-transformed"]
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            variant_spec("bogus")
        with pytest.raises(ValueError, match="'normal-fourier'"):
            variant_spec("normal-fourier", "F")

    def test_decision_form_per_variant(self):
        # the README variant table
        assert {name: decision_form(spec) for name, spec in VARIANTS.items()} == {
            "chisq-fourier": "modified",
            "nonstandard-fourier": "modified",
            "chisq-transformed": "break-weighted",
            "f-transformed": "df-scaled",
            "normal-fourier": "modified",
            "nonstandard-t-fourier": "modified",
            "normal-transformed": "break-weighted",
            "t-transformed": "df-scaled",
        }

    @pytest.mark.parametrize("statistic", ["F", "t"])
    def test_forms_on_arrays_match_scalars(self, statistic):
        raw = np.array([0.5, 3.0, 11.0])
        nf = np.array([0.9, 1.1, 1.3])
        k = np.array([2, 5, 9])
        forms = statistic_forms(raw, statistic, nf, 2, k, 0.4)
        for i in range(3):
            scalar = statistic_forms(
                float(raw[i]), statistic, float(nf[i]), 2, int(k[i]), 0.4
            )
            for name, value in scalar.items():
                assert forms[name][i] == value, name

    def test_array_forms_keep_their_checks(self):
        ones = np.ones(2)
        with pytest.raises(KTooSmall):
            statistic_forms(ones, "F", ones, 2, np.array([4, 1]), 0.4)
        with pytest.raises(ValueError, match="norm factor"):
            statistic_forms(ones, "F", np.array([1.0, 0.0]), 2, 4, 0.4)
        with pytest.raises(ValueError, match="norm factor"):
            statistic_forms(ones, "t", np.array([1.0, -1.0]), 1, 4, 0.4)
        # K < p concerns the Wald statistic's degrees of freedom only
        statistic_forms(ones, "t", ones, 2, 1, 0.4)

    @pytest.mark.parametrize(
        "name", ["chisq-transformed", "f-transformed", "t-transformed"]
    )
    def test_reference_rejects_iff_p_below_alpha(self, name):
        spec = VARIANTS[name]
        p = 1 if spec.statistic == "t" else 2
        ref = reference(spec, p, 8, 0.4, 0.05)
        xs = np.array([-3.0, 0.1, 0.9, 2.5, 4.0, 9.0])
        p_values, reject = ref.decide(xs)
        for x, p_value, rej in zip(xs, p_values, reject):
            assert ref.p_value(float(x)) == p_value
            assert rej == (p_value < 0.05)
        # the critical value sits on the boundary of the rule
        assert ref.p_value(ref.critical_value) == pytest.approx(0.05, rel=1e-8)
        assert ref.p_value(ref.critical_value * 1.001) < 0.05
        assert ref.p_value(ref.critical_value * 0.999) > 0.05

    @pytest.mark.parametrize("name", ["f-transformed", "t-transformed"])
    def test_per_replication_k_decides_against_each_own_law(self, name):
        spec = VARIANTS[name]
        p = 1 if spec.statistic == "t" else 2
        ks = np.array([3, 8, 8, 40, 97])
        xs = np.array([0.5, 2.5, 9.0, -3.0, 4.0])
        p_values, reject = reference(spec, p, ks, 0.4, 0.05).decide(xs)
        for k, x, p_value, rej in zip(ks.tolist(), xs, p_values, reject):
            one = reference(spec, p, k, 0.4, 0.05)
            assert one.p_value(float(x)) == p_value  # bitwise
            assert rej == one.decide(float(x))[1]

    def test_per_replication_k_needs_an_analytic_law(self):
        with pytest.raises(ValueError, match="one K"):
            reference(VARIANTS["nonstandard-fourier"], 2, np.array([4, 8]), 0.4, 0.05)

    def test_far_tail_p_values_stay_positive(self):
        # upper tails computed directly, where 1 - cdf rounds to 0
        chisq = reference(VARIANTS["chisq-fourier"], 2, 8, 0.4, 0.05)
        assert chisq.p_value(80.0) == pytest.approx(math.exp(-40.0), rel=1e-12)
        normal_ref = reference(VARIANTS["normal-fourier"], 1, 8, 0.4, 0.05)
        for x in (12.0, -12.0):
            assert normal_ref.p_value(x) == pytest.approx(
                math.erfc(12.0 / math.sqrt(2.0)), rel=1e-12
            )
        f_ref = reference(VARIANTS["f-transformed"], 2, 14, 0.4, 0.05)
        assert f_ref.name == "F(2, 13)"
        assert f_ref.p_value(500.0) == pytest.approx(
            (1 + 2 * 500.0 / 13) ** -6.5, rel=1e-12
        )


def simulated_data(seed, t=80, lam=0.4, rho=0.0):
    from harchow.mcstudy import DgpSpec, simulate_dgp

    y, x = simulate_dgp(DgpSpec(t=t, rho=rho), RngStream(seed, 0))
    return RegressionData(y, x, None, lam)


class TestRunTest:
    def test_f_transformed_critical_value(self):
        data = simulated_data(1, t=100)
        report = run_test(data, variant="f-transformed", k=8)
        assert report.critical_value == pytest.approx(
            dist_quantile(fisher_f(2, 7), 0.95), rel=1e-9
        )
        assert report.reference == "F(2, 7)"

    def test_chisq_fourier_critical_value(self):
        data = simulated_data(2, t=100)
        report = run_test(data, variant="chisq-fourier", k=8)
        # frozen from the quadrature oracle
        assert report.critical_value == pytest.approx(5.991464547107983, rel=1e-8)

    def test_chisq_transformed_two_forms_agree(self):
        for seed in range(25):
            data = simulated_data(seed, t=60)
            report = run_test(data, variant="chisq-transformed", k=6)
            lam_w = report.lam * (1 - report.lam)
            direct = lam_w * report.statistic_raw > report.critical_value
            scaled_cv = (report.k - 2 + 1) / (report.k * 2) * report.critical_value
            assert (report.statistic_scaled > scaled_cv) == direct
            assert report.reject == (report.p_value < report.alpha)

    @pytest.mark.parametrize("variant", [
        "chisq-fourier", "nonstandard-fourier", "chisq-transformed", "f-transformed",
    ])
    def test_one_vector_for_two_restrictions_is_k_too_small(self, variant):
        # the K check comes before any Wald form: at K = 1 the 2 x 2 contrast
        # variance is singular, and forming it first raised NotPositiveDefinite
        data = simulated_data(4, t=100)
        with pytest.raises(
            KTooSmall, match=r"^only 1 usable basis vectors for p=2$"
        ):
            run_test(data, variant=variant, k=1)

    def test_boundary_statistic_decides_by_p_value(self, monkeypatch):
        # lam (1 - lam) times this Wald statistic lands on the chi-square(2)
        # quantile, where the break-weighted and df-scaled comparisons round
        # apart; run_test still returns and decides by p < alpha alone
        real = chowtest.series_statistics
        monkeypatch.setattr(chowtest, "series_statistics", lambda *args: [
            (28.530783557657067, k, nf) for _, k, nf in real(*args)
        ])
        data = simulated_data(3, t=100, lam=0.3)
        report = run_test(data, variant="chisq-transformed", k=4)
        assert (report.p, report.k, report.statistic_raw) == (2, 4, 28.530783557657067)
        assert report.reject == (report.p_value < report.alpha)

    def test_t_f_decision_equivalence(self):
        hyp = BreakHypothesis(np.array([[0.0, 1.0]]))
        for seed in range(25):
            data = simulated_data(seed + 100, t=60)
            f_rep = run_test(data, hyp, variant="f-transformed", k=6)
            t_rep = run_test(data, hyp, variant="t-transformed", k=6)
            assert f_rep.reject == t_rep.reject
            assert f_rep.statistic_scaled == pytest.approx(
                t_rep.statistic_scaled**2, rel=1e-9
            )

    def test_invariance_regressor_rotation(self):
        data = simulated_data(7, t=100)
        d = np.array([[2.0, 0.3], [-0.5, 1.5]])
        rotated = RegressionData(data.y, data.x @ d, None, data.lam)
        a = run_test(data, variant="f-transformed", k=8)
        b = run_test(rotated, variant="f-transformed", k=8)
        assert b.statistic_raw == pytest.approx(a.statistic_raw, rel=1e-8)

    def test_invariance_response_scaling(self):
        data = simulated_data(8, t=100)
        scaled = RegressionData(5.0 * data.y, data.x, None, data.lam)
        a = run_test(data, variant="f-transformed", k=8)
        b = run_test(scaled, variant="f-transformed", k=8)
        assert b.statistic_raw == pytest.approx(a.statistic_raw, rel=1e-10)

    def test_invariance_basis_sign_and_permutation(self):
        data = simulated_data(9, t=100)
        hyp = full_break_hypothesis(2)
        fit = ols_fit(data, hyp)
        basis = fourier_matrix(data.t, 6, data.lam)
        base_omega = longrun.series_lrv(basis, fit.xz, fit.residuals)
        v = longrun.sandwich_variance(hyp.contrast, fit.q_hat, base_omega)
        f_base = wald_stat(fit.beta_hat, hyp.contrast, v, data.t)
        signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
        for matrix in (basis.matrix * signs, basis.matrix[:, [3, 1, 5, 0, 2, 4]]):
            alt = BasisSet(
                t=data.t, k=6, lam=data.lam, family=FOURIER_RAW, matrix=matrix
            )
            omega = longrun.series_lrv(alt, fit.xz, fit.residuals)
            v2 = longrun.sandwich_variance(hyp.contrast, fit.q_hat, omega)
            f_alt = wald_stat(fit.beta_hat, hyp.contrast, v2, data.t)
            assert f_alt == pytest.approx(f_base, rel=1e-10)

    def test_auto_k_populates_plugin(self):
        data = simulated_data(10, t=120, rho=0.5)
        report = run_test(data, variant="f-transformed", k="auto")
        assert report.plugin is not None
        assert 2 <= report.k <= data.t - 2
        assert report.k_requested == report.k

    def test_nonstandard_reference_reproducible(self):
        data = simulated_data(11, t=80)
        a = run_test(
            data, variant="nonstandard-fourier", k=4, cv_replications=2000,
            cv_grid=200, cv_seed=5,
        )
        b = run_test(
            data, variant="nonstandard-fourier", k=4, cv_replications=2000,
            cv_grid=200, cv_seed=5,
        )
        assert a.p_value == b.p_value
        assert a.critical_value == b.critical_value
        assert a.decision_statistic == pytest.approx(a.statistic_modified)

    def test_k_reduced_at_cap_for_transformed(self):
        data = simulated_data(12, t=60)
        report = run_test(data, variant="f-transformed", k=58)
        assert report.k_requested == 58
        assert report.k == 57  # even T, even break row: one null direction

    @pytest.mark.parametrize("t, k, kept", [(150, 98, 98), (60, 58, 57)])
    def test_builds_no_basis_or_kernel(self, monkeypatch, t, k, kept):
        # run_test works from FFT sums and a K x K Gram: it never builds the
        # T x T kernel or a T x K basis, and runs none of the dense
        # references (the simulated references come from a cache warmed
        # beforehand)
        hyp = BreakHypothesis(np.array([[0.0, 1.0]]))
        data = simulated_data(3, t=t)
        common = dict(cv_replications=1000, cv_grid=150, cache=CriticalValueCache())
        for variant in ("nonstandard-fourier", "nonstandard-t-fourier"):
            run_test(data, hyp, variant=variant, k=k, **common)
        oracles.refuse_references(monkeypatch)
        for variant, spec in VARIANTS.items():
            report = run_test(data, hyp, variant=variant, k=k, **common)
            want = kept if spec.basis_family == bases.FOURIER_TRANSFORMED else k
            assert (report.k_requested, report.k) == (k, want)

    def test_nonstandard_t_matches_f_at_p1(self):
        # with p = 1 the squared t statistic is the Wald statistic and the
        # squared t limit draws are the F limit draws, so the two-sided t
        # p-value equals the F p-value exactly at a shared simulation seed
        hyp = BreakHypothesis(np.array([[0.0, 1.0]]))
        data = simulated_data(13, t=80)
        common = dict(k=4, cv_replications=2000, cv_grid=200, cv_seed=9)
        t_rep = run_test(data, hyp, variant="nonstandard-t-fourier", **common)
        f_rep = run_test(data, hyp, variant="nonstandard-fourier", **common)
        assert t_rep.p_value == f_rep.p_value
        assert t_rep.critical_value**2 == pytest.approx(
            f_rep.critical_value, rel=1e-12
        )

    def test_normal_variants(self):
        hyp = BreakHypothesis(np.array([[1.0, 0.0]]))
        data = simulated_data(14, t=80)
        raw = run_test(data, hyp, variant="normal-fourier", k=6)
        assert raw.reference == "normal"
        assert raw.decision_statistic == pytest.approx(raw.statistic_modified)
        assert 0.0 <= raw.p_value <= 1.0
        assert raw.critical_value == pytest.approx(1.9599639845, abs=1e-6)
        trans = run_test(data, hyp, variant="normal-transformed", k=6)
        assert trans.decision_statistic == pytest.approx(trans.statistic_scaled)
        # two-sided p-value consistency with the CDF
        from harchow.numkit import dist_cdf, normal

        expected = 2.0 * (1.0 - dist_cdf(normal(), abs(trans.decision_statistic)))
        assert trans.p_value == pytest.approx(expected, rel=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_test(fixture_data(), variant="bogus")

    def test_variant_registry_shape(self):
        assert set(VARIANTS) == {
            "chisq-fourier",
            "nonstandard-fourier",
            "chisq-transformed",
            "f-transformed",
            "normal-fourier",
            "nonstandard-t-fourier",
            "normal-transformed",
            "t-transformed",
        }
        assert chowtest.DEFAULT_VARIANT == "f-transformed"


class TestNonIntegerBreakRow:
    def test_pipeline_and_equivalence_hold(self):
        # lam * T is not an integer: the transformed norm factor is only
        # approximately one, but every algebraic identity must still hold
        data = simulated_data(77, t=101, lam=0.35)
        rep = run_test(data, variant="f-transformed", k=7)
        assert rep.norm_factor == pytest.approx(1.0, abs=0.05)
        assert rep.norm_factor != 1.0
        assert rep.statistic_scaled == pytest.approx(
            (7 - 2 + 1) / 14 * 0.35 * 0.65 * rep.statistic_raw, rel=1e-12
        )
        chisq = run_test(data, variant="chisq-transformed", k=7)
        assert chisq.reject == (chisq.p_value < chisq.alpha)


class TestStackedPipeline:
    """run_test's fit, plug-in rule and Wald form on a stack of series give
    each member's own K exactly and its Wald statistic to 1e-12."""

    # (rho, psi); the persistent designs give a clamped VAR fit in the stack
    DESIGNS = (
        (0.0, 0.0), (0.6, 0.0), (0.9, 0.9), (0.99, 0.9), (-0.99, 0.0), (0.6, 0.6)
    )

    def _stack(self, p, per_design):
        ys, xs = [], []
        for d, (rho, psi) in enumerate(self.DESIGNS):
            for rep in range(per_design):
                spec = DgpSpec(t=100, rho=rho, psi=psi)
                y, x = simulate_dgp(spec, RngStream(d, rep))
                if p == 3:
                    extra = simulate_dgp(spec, RngStream(d + 10, rep))[1][:, 1]
                    x = np.column_stack([x, extra])
                ys.append(y)
                xs.append(x)
        return np.stack(ys), np.stack(xs)

    @pytest.mark.parametrize("p, per_design", [(2, 34), (3, 8)])
    def test_stack_matches_members(self, p, per_design):
        y, x = self._stack(p, per_design)
        hyp = full_break_hypothesis(p)
        r = hyp.contrast
        basis = oracles.series_basis(100, 98, 0.4, bases.FOURIER_TRANSFORMED)
        fit = ols_fit(RegressionData(y, x, None, 0.4), hyp)
        v = autok.score_series(r, fit.q_hat, fit.xz, fit.residuals)
        model = autok.plugin_from_fit(*autok.fit_var1(v))
        k = autok.mse_optimal_k(model, 100, p)
        used = np.minimum(k, basis.k)
        g = oracles.score_sums(basis, v)
        wald = chowtest.wald_stat(fit.beta_hat, r, longrun.sums_outer(g, used), 100)
        for i in range(len(y)):
            one = ols_fit(RegressionData(y[i], x[i], None, 0.4), hyp)
            v_one = autok.score_series(r, one.q_hat, one.xz, one.residuals)
            one_model = autok.build_plugin_model(v_one)
            k_one = autok.mse_optimal_k(one_model, 100, p)
            assert (k[i], model.clamped[i]) == (k_one, one_model.clamped)
            g_one = oracles.score_sums(basis, v_one)
            var_one = longrun.sums_outer(g_one[:used[i]])
            expected = chowtest.wald_stat(one.beta_hat, r, var_one, 100)
            # the stacked and the single V differ by rounding, which the
            # condition number of the contrast variance amplifies: ~100 units
            # of roundoff per unit of condition, and 1e-12 when well conditioned
            rel = max(1e-12, 1e-14 * np.linalg.cond(var_one))
            assert wald[i] == pytest.approx(expected, rel=rel)
        if p == 2:
            assert model.clamped.any() and not model.clamped.all()


class TestKPolicy:
    """The one parser of a K policy, shared by run_test and the studies."""

    @pytest.mark.parametrize("k", [8, 8.0, np.int64(8), np.float64(8.0)])
    def test_whole_numbers_become_ints(self, k):
        [parsed] = chowtest._k_policy(k, 60)
        assert parsed == int(k) and type(parsed) is int

    def test_grid_and_auto(self):
        assert chowtest._k_policy("auto", 60) == "auto"
        assert chowtest._k_policy((2, 4.0, np.int32(6)), 60, grid=True) == [2, 4, 6]

    @pytest.mark.parametrize("k, grid, match", [
        ("8", False, "integer K or 'auto', got '8'"),
        ("bogus", False, "'bogus'"),
        (4.5, False, "integer K"),
        (math.nan, False, "integer K"),
        (math.inf, False, "integer K"),
        ([8], False, r"got \[8\]"),
        ((), True, "no K values"),
        ((2, 4.5), True, "K grid points must be integers"),
        ((2, "4"), True, "K grid points must be integers"),
        (0, False, "1 <= K <= T - 2 = 58"),
        (59, False, "1 <= K <= T - 2 = 58"),
        ((2, 100), True, r"got K=\[100\]"),
    ])
    def test_rejects(self, k, grid, match):
        with pytest.raises(ValueError, match=match):
            chowtest._k_policy(k, 60, grid)

    def test_run_test_takes_one_whole_k(self):
        data = simulated_data(5, t=80)
        expected = run_test(data, variant="f-transformed", k=8).to_dict()
        for k in (8.0, np.int64(8)):
            assert run_test(data, variant="f-transformed", k=k).to_dict() == expected
        for k in (4.5, "8", [8], (8,)):
            with pytest.raises(ValueError):
                run_test(data, variant="f-transformed", k=k)


class TestAgainstDensePath:
    """run_test from FFT sums and the K x K regime-sum Gram reports what the
    dense path (T x T kernel, T x K basis; ``oracles.dense_report``) did:
    the same K, reference and decision, every number within 1e-10."""

    CACHE = CriticalValueCache()

    @staticmethod
    def _data(t, lam, seed):
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(t), rng.standard_normal(t)])
        z = rng.standard_normal((t, 1))
        y = x @ [0.5, 0.5] + 0.3 * z[:, 0] + rng.standard_normal(t)
        return RegressionData(y, x, z, lam)

    @pytest.mark.parametrize("t, lam, k", [
        (120, 0.4, 20),     # integer break row
        (101, 0.7, 40),     # non-integer lambda T, kept K cut to 21
        (60, 0.4, 58),      # K = T - 2 with one kernel-null direction
        (150, 0.35, "auto"),
    ])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_report_matches_dense_path(self, t, lam, k, variant):
        data = self._data(t, lam, seed=t)
        p = 2 if VARIANTS[variant].statistic == "F" else 1
        hyp = full_break_hypothesis(2) if p == 2 else BreakHypothesis(
            np.array([[0.0, 1.0]])
        )
        settings = dict(cv_replications=1000, cv_grid=200, cache=self.CACHE)
        got = run_test(data, hyp, variant=variant, k=k, **settings).to_dict()
        want = oracles.dense_report(data, hyp, variant, k, **settings)
        for name, value in want.items():
            if isinstance(value, float):
                assert got[name] == pytest.approx(value, rel=1e-10, abs=1e-300), name
            else:
                assert got[name] == value, name

    def test_large_t_builds_no_t_by_t_array(self):
        # T = 20000: the dense kernel alone would be 3.2 GB
        import tracemalloc

        t = 20000
        data = self._data(t, 0.4, seed=1)
        tracemalloc.start()
        try:
            report = run_test(data, variant="f-transformed", k=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.k, report.k_requested) == (256, 256)
        assert np.isfinite([report.statistic_raw, report.p_value]).all()
        assert report.norm_factor == pytest.approx(1.0, abs=1e-10)
        assert peak < 64 * 2**20
