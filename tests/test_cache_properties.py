"""Property test of the simulated-law cache file: any one changed byte and
any truncation of a saved file is seen, or leaves the same law.

A 1000-draw ``F_star_inf`` law (p = 1, K = 4, grid 100) is saved once; each
example damages a copy of its bytes in the cache directory, and a fresh
cache must return a law equal to a fresh simulation in its draws, its redraw
count, its kind and its spec. Half the changed bytes fall in the header
line, a small part of the file, and half the new bytes are ones that can
keep its JSON valid. Examples are derandomized and no
example database is kept; the test takes about 1 s.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from harchow.fixedlimit import (  # noqa: E402
    F_STAR_INF,
    CriticalValueCache,
    LimitSpec,
    _cache_filename,
)

SPEC = LimitSpec(p=1, k=4, lam=0.4, grid_n=100, replications=1000)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The cache directory, the law's file there, its bytes, and the law,
    simulated afresh into the empty directory."""
    directory = tmp_path_factory.mktemp("cache")
    law = CriticalValueCache(str(directory)).get(SPEC, F_STAR_INF)
    path = directory / _cache_filename(SPEC, F_STAR_INF)
    return directory, path, path.read_bytes(), law


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_changed_byte_or_a_truncation_never_loads_another_law(saved, data):
    directory, path, raw, law = saved
    header = raw.index(b"\n") + 1
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(
            st.one_of(st.integers(0, header - 1), st.integers(0, len(raw) - 1)),
            label="position",
        )
        # digits, space and number marks often keep the header's JSON valid
        byte = data.draw(
            st.one_of(st.sampled_from(b'0123456789 .-e"'), st.integers(0, 255))
            .filter(lambda b: b != raw[at]),
            label="new byte",
        )
        damaged = raw[:at] + bytes([byte]) + raw[at + 1 :]
    path.write_bytes(damaged)
    got = CriticalValueCache(str(directory)).get(SPEC, F_STAR_INF)
    assert np.array_equal(got.draws, law.draws)
    assert (got.redraws, got.kind, got.spec) == (law.redraws, law.kind, law.spec)
