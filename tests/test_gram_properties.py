"""Property tests: the regime-sum kernel Gram is the dense one.

``series_basis`` and ``series_sums`` factor the ``K x K`` Gram built from the
regime-one Fourier sums; the dense Gram ``Phi' C_T Phi / T^2`` of the
``T x T`` kernel is the reference. Over random ``(T, lambda, K)``, including
non-integer ``lambda T`` and ``K`` at the cap ``T - 2``, the two Grams agree
to 1e-12, the basis and the sums keep the same K, and the basis is the
dense transform's to 1e-9. Examples are derandomized and no example
database is kept, so the suite is deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from harchow import bases  # noqa: E402
from harchow.errors import NotPositiveDefinite  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def geometries(draw):
    """``(T, lambda, K)`` with at least two points in each regime; lambda T
    falls anywhere in ``[k*, k* + 0.99]``."""
    t = draw(st.integers(6, 160))
    k_star = draw(st.integers(2, t - 2))
    lam = (k_star + draw(st.floats(0.0, 0.99))) / t
    k = draw(st.one_of(st.integers(1, t - 2), st.just(t - 2)))
    return t, lam, k


@SETTINGS
@given(geometry=geometries())
def test_regime_sum_gram_is_the_dense_gram(geometry):
    t, lam, k = geometry
    raw = bases.fourier_matrix(t, k, lam)
    dense = bases.gram_matrix(raw, bases.kernel_matrix(t, lam))
    gram = bases._kernel_gram(bases._regime_sums(t, k, lam))
    assert np.max(np.abs(gram - dense)) <= 1e-12 * np.max(np.abs(dense))
    series = np.ones((t, 1))
    try:
        kept = bases.series_basis(t, k, lam, bases.FOURIER_TRANSFORMED).k
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            bases.series_sums(series, k, lam, bases.FOURIER_TRANSFORMED)
        return
    _, norms = bases.series_sums(series, k, lam, bases.FOURIER_TRANSFORMED)
    assert len(norms) == kept


@SETTINGS
@given(geometry=geometries())
def test_series_basis_is_the_dense_transform(geometry):
    t, lam, k = geometry
    raw = bases.fourier_matrix(t, k, lam)
    kern = bases.kernel_matrix(t, lam)
    try:
        kept = bases.feasible_k(raw, kern)
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            bases.series_basis(t, k, lam, bases.FOURIER_TRANSFORMED)
        return
    star = bases.series_basis(t, k, lam, bases.FOURIER_TRANSFORMED)
    dense = bases.gram_transform(bases.fourier_matrix(t, kept, lam), kern)
    assert star.k == kept
    assert star.matrix.flags.c_contiguous
    gap = np.max(np.abs(star.matrix - dense.matrix))
    assert gap <= 1e-9 * np.max(np.abs(dense.matrix))
