"""Property tests: the regime-sum kernel Gram is the dense one.

``oracles.series_basis`` and ``series_sums`` factor the ``K x K`` Gram built from the
regime-one Fourier sums; the dense Gram ``Phi' C_T Phi / T^2`` of the
``T x T`` kernel is the reference. Over random ``(T, lambda, K)``, including
non-integer ``lambda T`` and ``K`` at the cap ``T - 2``, the two Grams agree
to 1e-12, the basis and the sums keep the same K, and the basis is the
dense transform's to 1e-9. The limit simulator's root, ``series_root``,
reproduces the dense demeaned Gram to 1e-12. Examples are derandomized and
no example database is kept, so the suite is deterministic.

Hypothesis seeds a derandomized run from the test's source, so the bodies
keep the names they had when the library defined the dense basis: here
``bases`` is ``harchow.bases`` plus ``oracles.series_basis`` and
``oracles.phi_tilde_matrix``, and each test draws the examples it drew then.
"""

from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from harchow import bases as library_bases  # noqa: E402
from harchow.errors import NotPositiveDefinite  # noqa: E402
from oracles import pivot_factor_unblocked  # noqa: E402

bases = SimpleNamespace(
    **vars(library_bases), series_basis=oracles.series_basis,
    phi_tilde_matrix=oracles.phi_tilde_matrix,
)

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
    sums = bases._regime_sums(t, k, lam)
    gram = bases._kernel_gram(sums, sums.c_kernel)
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


@SETTINGS
@given(geometry=geometries())
def test_series_root_is_the_dense_demeaned_gram(geometry):
    # the root keeps the vectors that the trim rule keeps on the dense Gram
    # of the family's vectors, and R R' is that Gram; it is compared in the
    # raw columns' coordinates, where for the transformed vectors Phi U^{-1}
    # (U'U the kernel Gram) U' R R' U is the raw demeaned Gram
    t, lam, k = geometry
    tilde = bases.phi_tilde_matrix(bases.fourier_matrix(t, k, lam).matrix, lam, t)
    dense = tilde.T @ tilde / t
    sums = bases._regime_sums(t, k, lam)
    for family in (bases.FOURIER_RAW, bases.FOURIER_TRANSFORMED):
        try:
            basis = bases.series_basis(t, k, lam, family)
        except NotPositiveDefinite:
            with pytest.raises(NotPositiveDefinite):
                bases.series_root(t, k, lam, family)
            continue
        tilde_v = bases.phi_tilde_matrix(basis.matrix, lam, t)
        kept = pivot_factor_unblocked(tilde_v.T @ tilde_v / t, 1e-8)[1]
        root, norms = bases.series_root(t, k, lam, family)
        assert len(norms) == len(root) == kept
        u = np.eye(kept)
        if family == bases.FOURIER_TRANSFORMED:
            u = bases._kernel_factor(bases._kernel_gram(sums, sums.c_kernel))
            u = u[:kept, :kept]
        gap = u.T @ root @ root.T @ u - dense[:kept, :kept]
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(dense))
        assert np.allclose(norms, basis.norms[:kept], rtol=0, atol=1e-9)
