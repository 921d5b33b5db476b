"""Property tests: the array upper tail is the scalar one, bit for bit.

``dist_sf`` on an array of points, and on a law whose degrees of freedom are
arrays, runs the scalar loops on all entries at once. Over random laws of
all four families, with degrees of freedom from 1 to 10^4, one per entry or
shared, and points at 0, below 0, barely above 0 and far enough out that
the tail underflows to 0, every entry equals the scalar ``dist_sf`` bitwise.
Examples are derandomized and no example database is kept, so the suite is
deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from harchow.numkit import (  # noqa: E402
    chi_square, dist_sf, fisher_f, normal, student_t,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)

MAKERS = {
    "normal": lambda df1, df2: normal(),
    "chi-square": lambda df1, df2: chi_square(df1),
    "student-t": lambda df1, df2: student_t(df1),
    "fisher-f": fisher_f,
}

dfs = st.one_of(
    st.integers(1, 10_000).map(float),
    st.floats(1.0, 10_000.0),
    st.sampled_from([1.0, 2.0, 3.0, 97.0, 10_000.0]),
)
points = st.one_of(
    st.just(0.0),
    st.floats(-1e3, 0.0),
    st.floats(1e-300, 1e-6),
    st.floats(0.0, 60.0),
    st.floats(1e3, 1e300),
)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _scalar_tails(family, df1s, df2s, xs):
    return [
        dist_sf(MAKERS[family](float(a), float(b)), float(x))
        for a, b, x in zip(df1s, df2s, xs)
    ]


@SETTINGS
@given(
    family=st.sampled_from(sorted(MAKERS)),
    df1=dfs, df2=dfs,
    xs=st.lists(points, min_size=1, max_size=12),
)
def test_array_tail_is_the_scalar_tail(family, df1, df2, xs):
    law = MAKERS[family](df1, df2)
    tails = dist_sf(law, np.array(xs))
    n = len(xs)
    expected = _scalar_tails(family, [df1] * n, [df2] * n, xs)
    assert np.array_equal(_bits(tails), _bits(expected))


@SETTINGS
@given(
    family=st.sampled_from(sorted(MAKERS)),
    rows=st.lists(st.tuples(dfs, dfs, points), min_size=1, max_size=12),
)
def test_per_entry_degrees_of_freedom(family, rows):
    df1s, df2s, xs = (np.array(col) for col in zip(*rows))
    law = MAKERS[family](df1s, df2s)
    tails = dist_sf(law, xs)
    assert np.array_equal(_bits(tails), _bits(_scalar_tails(family, df1s, df2s, xs)))


@pytest.mark.parametrize("family", sorted(MAKERS))
def test_far_points_underflow_on_both_paths(family):
    # the tail at 1e300 is below the smallest double for every family here
    law = MAKERS[family](2.0, 5.0)
    xs = np.array([0.0, 1e300])
    tails = dist_sf(law, xs)
    assert tails[1] == dist_sf(law, 1e300) == 0.0
    assert tails[0] == dist_sf(law, 0.0) > 0.0
