"""Property tests of the study front end: the K-policy parser, the grid
parser and the CLI's rejection paths.

Examples are derandomized and no example database is kept, so the suite is
deterministic. The CLI properties generate only inputs that must be
rejected, and a study that starts anyway fails the test at its first cell.
"""

import contextlib
import io
import math
import time
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from harchow import chowtest, cli, mcstudy  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

scalars = st.one_of(
    st.integers(),
    st.floats(),
    st.integers(-5, 100).map(float),
    st.integers(-5, 100).map(np.int64),
    st.text(max_size=4),
    st.sampled_from(["auto", "8", "8.0"]),
)
policies = st.one_of(
    scalars, st.lists(scalars, max_size=4), st.lists(scalars, max_size=4).map(tuple)
)


@SETTINGS
@given(k=policies, t=st.integers(3, 400), grid=st.booleans())
def test_k_policy_is_auto_whole_ks_in_range_or_value_error(k, t, grid):
    try:
        parsed = chowtest._k_policy(k, t, grid)
    except ValueError:
        return
    if parsed == "auto":
        assert isinstance(k, str) and k == "auto"
        return
    sequence = isinstance(k, (list, tuple))
    assert grid or not sequence
    assert parsed == (list(k) if sequence else [k])
    assert all(type(v) is int and 1 <= v <= t - 2 for v in parsed)


numbers_text = st.one_of(
    st.floats().map(repr),
    st.integers(-10**12, 10**12).map(str),
    st.sampled_from(["", "x", "1e400", "-1e400", "nan", "-inf", "infinity", "1_0"]),
)


@SETTINGS
@given(
    text=st.one_of(
        st.tuples(numbers_text, numbers_text, numbers_text).map(":".join),
        st.text(max_size=12),
    ),
    limit=st.integers(0, 1000),
)
def test_parse_range_is_bounded_finite_or_value_error(text, limit):
    start = time.perf_counter()
    try:
        grid = cli._parse_range(text, max_points=limit)
    except ValueError:
        grid = ()
    assert time.perf_counter() - start < 0.5
    assert len(grid) <= limit
    assert all(math.isfinite(g) for g in grid)


bad_number = st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "", "1:"])
small = st.integers(-100, 100).map(str)
malformed = st.text(alphabet="0123456789.:,-xn", max_size=10).filter(
    lambda s: s.count(":") != 2
)


def _with_one_bad(good):
    """``a:b:c`` grids with one part, in any place, not a finite number."""
    return st.tuples(bad_number, good, good).flatmap(st.permutations).map(":".join)


bad_k_grids = st.one_of(
    _with_one_bad(small),
    malformed,
    st.integers(-100, 0).map(lambda a: f"{a}:10:1"),  # K below 1
    st.integers(59, 10**9).map(lambda b: f"2:{b}:1"),  # K above T - 2 = 58
    st.integers(2, 50).map(lambda a: f"{a}.5:58:1"),  # not whole numbers
    st.integers(2, 50).map(lambda a: f"{a}:{a - 1}:1"),  # empty grid
    st.integers(-3, 0).map(lambda s: f"2:10:{s}"),  # step not positive
    st.floats(1e3, 1e300).map(lambda b: f"2:{b!r}:1"),  # too many points
)
bad_deltas = st.one_of(
    _with_one_bad(small),
    malformed,
    st.integers(-3, 0).map(lambda s: f"0:1:{s}"),
)
bad_cells = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0:nan", "0:inf", "x", ",", "0:1:2"]),
    st.floats(1.0, 1e300).map(repr),  # |rho| >= 1
    st.floats(-1e300, -1.0).map(lambda r: f"0.3,{r!r}:0"),
    st.text(alphabet="xyz#", min_size=1, max_size=5),
)


def _main_rejects(argv):
    """``cli.main`` exit code and stderr, with any study start an error."""
    err = io.StringIO()
    started = AssertionError("a study started on an input it must reject")
    with mock.patch.object(mcstudy, "_run_cell", side_effect=started):
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--T", "60", "--reps", "500"])
    return code, err.getvalue()


def _assert_one_validation_line(code, err):
    assert code == 2
    assert err.startswith("validation error") and err.count("\n") == 1
    assert "Traceback" not in err


@SETTINGS
@given(value=bad_k_grids)
def test_bad_k_grid_exits_2(value):
    _assert_one_validation_line(
        *_main_rejects(["mc-size", "--preset", "figure", f"--k-grid={value}"])
    )


@SETTINGS
@given(value=bad_deltas)
def test_bad_deltas_exit_2(value):
    _assert_one_validation_line(*_main_rejects(["mc-power", f"--deltas={value}"]))


@SETTINGS
@given(value=bad_cells)
def test_bad_cells_exit_2(value):
    _assert_one_validation_line(*_main_rejects(["mc-size", f"--cells={value}"]))
