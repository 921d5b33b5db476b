"""Property tests of the statistic core's invariances on generated data.

At one restriction each t variant is the signed root of its F twin's Wald
statistic, so ``t^2`` equals that statistic and the two decide alike;
rescaling the response leaves every raw statistic unchanged; and every
variant's K, raw and decision statistics survive an invertible change of
the break regressors or covariates, a rescaled response, and a response
shifted along the covariates. Examples are derandomized and no example
database is kept, so the suite is deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from harchow.chowtest import VARIANTS, run_test  # noqa: E402
from harchow.fixedlimit import CriticalValueCache  # noqa: E402
from harchow.mcstudy import DgpSpec, simulate_dgp  # noqa: E402
from harchow.numkit import RngStream  # noqa: E402
from harchow.regression import BreakHypothesis, RegressionData  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)

# (t variant, F variant) pairs on the same basis, whose references agree at p = 1
TWINS = (
    ("normal-fourier", "chisq-fourier"),
    ("normal-transformed", "chisq-transformed"),
    ("t-transformed", "f-transformed"),
)
ONE_SLOPE = BreakHypothesis(np.array([[0.0, 1.0]]))

cases = st.fixed_dictionaries({
    "t": st.integers(60, 400),
    "lam": st.sampled_from([0.35, 0.4, 0.7]),
    "rho": st.sampled_from([0.0, 0.5]),
    "k": st.one_of(st.just("auto"), st.integers(4, 12)),
    "seed": st.integers(0, 2**31 - 1),
})


def _reports(case, scale=1.0):
    spec = DgpSpec(t=case["t"], rho=case["rho"])
    y, x = simulate_dgp(spec, RngStream(case["seed"], 0))
    data = RegressionData(scale * y, x, None, case["lam"])
    return {
        variant: run_test(data, ONE_SLOPE, variant=variant, k=case["k"])
        for pair in TWINS for variant in pair
    }


@SETTINGS
@given(case=cases)
def test_t_is_the_signed_root_of_its_f_twin(case):
    reports = _reports(case)
    for t_name, f_name in TWINS:
        t_rep, f_rep = reports[t_name], reports[f_name]
        assert t_rep.k == f_rep.k
        assert t_rep.statistic_raw**2 == pytest.approx(f_rep.statistic_raw, rel=1e-14)
        assert t_rep.reject == f_rep.reject


@SETTINGS
@given(case=cases, scale=st.sampled_from([1e-3, 0.37, 4.0, 2.5e4]))
def test_rescaling_y_leaves_every_raw_statistic(case, scale):
    base, scaled = _reports(case), _reports(case, scale)
    for variant, report in base.items():
        assert scaled[variant].k == report.k
        assert scaled[variant].statistic_raw == pytest.approx(
            report.statistic_raw, rel=1e-10
        )


# every F variant on both regressors, every t variant on the slope alone
F_NAMES = tuple(name for name, v in VARIANTS.items() if v.statistic == "F")
T_NAMES = tuple(name for name, v in VARIANTS.items() if v.statistic == "t")
CACHE = CriticalValueCache()

invertible = st.builds(
    lambda angle, s1, s2: np.array([
        [np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]
    ]) @ np.diag([s1, s2]),
    st.floats(0.0, 2 * np.pi),
    st.sampled_from([-3.0, -0.4, 0.25, 1.0, 7.5]),
    st.sampled_from([-2.0, -0.1, 0.5, 4.0]),
)
nonzero = st.sampled_from([-250.0, -1.0, -0.02, 0.3, 3.7, 1e3])


def _signed_reports(y, x, slope, z, lam, sign=1.0):
    """Every variant's report, F on ``x`` (T x 2) and t on ``slope`` (T x 1),
    with each t variant's statistics multiplied by ``sign``."""
    common = dict(k=6, cv_replications=1000, cv_grid=150, cache=CACHE)
    reports = {}
    for names, regressors, factor in ((F_NAMES, x, 1.0), (T_NAMES, slope, sign)):
        data = RegressionData(y, regressors, z, lam)
        for name in names:
            report = run_test(data, variant=name, **common)
            reports[name] = (
                report.k, factor * report.statistic_raw,
                factor * report.decision_statistic,
            )
    return reports


@SETTINGS
@given(
    t=st.integers(60, 300),
    rho=st.sampled_from([0.0, 0.3, 0.8]),
    lam=st.sampled_from([0.3, 0.5, 0.7]),
    seed=st.integers(0, 2**31 - 1),
    d=invertible,
    scalar=nonzero,
    c=nonzero,
    e=invertible,
    g=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_invariances_of_every_variant(t, rho, lam, seed, d, scalar, c, e, g):
    # x -> x D (a nonzero scalar at m = 1), y -> c y, z -> z E and
    # y -> y + z g leave every F variant's K and statistics; a t statistic
    # turns with the sign of the scalar or of c. About 1 s for the 25
    # examples on a 2-core Xeon VM, the laws simulated once per lambda.
    y, x = simulate_dgp(DgpSpec(t=t, rho=rho), RngStream(seed, 0))
    z = RngStream(seed, 1).normals(2 * t).reshape(t, 2)  # no constant: x has one
    slope = x[:, 1:]
    base = _signed_reports(y, x, slope, z, lam)
    for changed in (
        _signed_reports(y, x @ d, scalar * slope, z, lam, np.sign(scalar)),
        _signed_reports(c * y, x, slope, z, lam, np.sign(c)),
        _signed_reports(y, x, slope, z @ e, lam),
        _signed_reports(y + z @ np.array(g), x, slope, z, lam),
    ):
        for name, (k, raw, decision) in base.items():
            assert changed[name][0] == k
            assert changed[name][1:] == pytest.approx((raw, decision), rel=1e-8), name
