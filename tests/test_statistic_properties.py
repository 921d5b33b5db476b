"""Property tests of the statistic core's invariances on generated data.

At one restriction each t variant is the signed root of its F twin's Wald
statistic, so ``t^2`` equals that statistic and the two decide alike; and
rescaling the response leaves every raw statistic unchanged. Examples are
derandomized and no example database is kept, so the suite is
deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from harchow.chowtest import run_test  # noqa: E402
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
