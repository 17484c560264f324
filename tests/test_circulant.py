import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmspring.circulant import (
    Circulant,
    circulant_eigenvalues,
    circulant_eigenvector_basis,
    mirrored_distance_row,
    ring_lambda,
    ring_mode_spectrum,
)
from fbmspring.errors import NotSymmetricCirculant
from fbmspring.linalg import eigen_sym


@st.composite
def symmetric_circulants(draw, max_n=32):
    n = draw(st.integers(1, max_n))
    half = draw(
        st.lists(
            st.floats(-4, 4, allow_nan=False, allow_infinity=False),
            min_size=n // 2 + 1,
            max_size=n // 2 + 1,
        )
    )
    row = np.empty(n)
    for k in range(n):
        row[k] = half[min(k, n - k)]
    return Circulant(first_row=row)


class TestEigenvalues:
    def test_brownian_hexagon(self):
        lam = circulant_eigenvalues(Circulant(np.array([1.0, 0, 0, -1.0, 0, 0])))
        np.testing.assert_allclose(lam, [0, 2, 0, 2, 0, 2], atol=1e-14)

    def test_one_by_one(self):
        np.testing.assert_array_equal(circulant_eigenvalues(Circulant(np.array([3.5]))), [3.5])

    def test_discrete_laplacian_square(self):
        lam = circulant_eigenvalues(Circulant(np.array([2.0, -1.0, 0.0, -1.0])))
        np.testing.assert_allclose(lam, [0, 2, 4, 2], atol=1e-14)

    def test_rejects_asymmetric_row(self):
        with pytest.raises(NotSymmetricCirculant):
            circulant_eigenvalues(Circulant(np.array([0.0, 1.0, 0.0, 2.0, 0.0])))

    def test_degeneracy_is_bitwise(self):
        rng = np.random.default_rng(7)
        for n in (5, 8, 13, 24):
            half = rng.normal(size=n // 2 + 1)
            row = np.array([half[min(k, n - k)] for k in range(n)])
            lam = circulant_eigenvalues(Circulant(row))
            for m in range(1, n):
                assert lam[m] == lam[n - m]

    @given(symmetric_circulants())
    def test_multiset_matches_dense_solver(self, circ):
        lam_formula = np.sort(circulant_eigenvalues(circ))
        lam_dense = eigen_sym(circ.dense())[0]
        scale = max(np.abs(lam_formula).max(), 1e-30)
        assert np.abs(lam_formula - lam_dense).max() <= 1e-9 * scale


class TestEigenvectors:
    def test_constant_mode(self):
        circ = Circulant(np.array([2.0, -0.5, 1.0, -0.5]))
        vals, vecs = circulant_eigenvector_basis(circ)
        np.testing.assert_allclose(vecs[:, 0], np.full(4, 0.5), atol=1e-15)
        assert vals[0] == pytest.approx(circ.row_sum(), abs=1e-14)

    def test_alternating_mode_hexagon(self):
        circ = Circulant(np.array([1.0, 0, 0, -1.0, 0, 0]))
        vals, vecs = circulant_eigenvector_basis(circ)
        alt = np.array([1, -1, 1, -1, 1, -1]) / np.sqrt(6)
        # the m = N/2 column is the last one
        np.testing.assert_allclose(np.abs(vecs[:, -1]), np.abs(alt), atol=1e-14)

    def test_cos_sin_pair_share_eigenvalue(self):
        circ = Circulant(np.array([2.0, -1.0, 0.0, -1.0]))
        vals, vecs = circulant_eigenvector_basis(circ)
        lam = circulant_eigenvalues(circ)
        # columns 1 and 2 are the cos/sin pair for m = 1
        assert vals[1] == vals[2] == pytest.approx(lam[1], abs=1e-14)
        dense = circ.dense()
        for col in (1, 2):
            resid = dense @ vecs[:, col] - vals[col] * vecs[:, col]
            assert np.abs(resid).max() <= 1e-9 * max(np.abs(lam).max(), 1e-30)

    def test_basis_orthonormal_and_complete(self):
        rng = np.random.default_rng(11)
        for n in (4, 7, 12):
            half = rng.normal(size=n // 2 + 1)
            circ = Circulant(np.array([half[min(k, n - k)] for k in range(n)]))
            vals, vecs = circulant_eigenvector_basis(circ)
            assert vecs.shape == (n, n)
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-10
            dense = circ.dense()
            scale = max(np.abs(vals).max(), 1e-30)
            assert np.abs(dense @ vecs - vecs * vals).max() <= 1e-9 * scale


class TestRingModeSpectrum:
    def test_zero_mode(self):
        assert ring_lambda(np.array([1.0, -0.2, 0.0]), 6, 0) == 0.0

    def test_two_coupling_closed_form(self):
        n, g1, g2 = 12, 1.0, -0.25
        g = np.zeros(6)
        g[0], g[1] = g1, g2
        lam = ring_mode_spectrum(g, n)
        theta = 2.0 * np.pi * np.arange(n) / n
        expected = 2 * g1 * (1 - np.cos(theta)) + 2 * g2 * (1 - np.cos(2 * theta))
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    def test_quarter_ratio_gives_squared_form(self):
        # with g2 = -g1/4 the spectrum collapses to g1 (1 - cos theta)^2
        n, g1 = 12, 1.0
        g = np.zeros(6)
        g[0], g[1] = g1, -g1 / 4.0
        lam = ring_mode_spectrum(g, n)
        theta = 2.0 * np.pi * np.arange(n) / n
        np.testing.assert_allclose(lam, g1 * (1 - np.cos(theta)) ** 2, atol=1e-12)
        assert (lam[1:] > 0).all()

    def test_single_mode_accessor(self):
        g = np.array([1.0, -0.3])
        for m in range(5):
            assert ring_lambda(g, 5, m) == ring_mode_spectrum(g, 5)[m]
        with pytest.raises(ValueError):
            ring_lambda(g, 5, 5)

    def test_memory_is_linear_in_sites(self):
        g = np.zeros(2048)
        g[0], g[1] = 1.0, -0.2
        tracemalloc.start()
        try:
            ring_mode_spectrum(g, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # an N x N cosine matrix would take 128 MB

    def test_mirror_extension(self):
        np.testing.assert_array_equal(mirrored_distance_row(np.array([1.0, 2.0]), 4), [1, 2, 1])
        np.testing.assert_array_equal(mirrored_distance_row(np.array([1.0, 2.0]), 5), [1, 2, 2, 1])
        with pytest.raises(ValueError):
            mirrored_distance_row(np.array([1.0]), 5)
