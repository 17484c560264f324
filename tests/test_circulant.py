import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmspring.circulant import circulant_eigenvalues, mirrored_distance_row, ring_mode_spectrum
from fbmspring.kernels import ring_increment_row
from fbmspring.rings import check_admissible, ring_coupling_profile
from fbmspring.sampling import sample_circulant

from conftest import MIRRORED_SIZES, circulant_dense, same_bits


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
    return row


def real_fourier_basis(n):
    """Normalized cos vectors of modes 0..floor(N/2), then sin vectors of 1..ceil(N/2)-1.

    Returns (modes, columns): column i is an eigenvector of every symmetric
    N x N circulant, with eigenvalue ``circulant_eigenvalues(row)[modes[i]]``.
    """
    j = np.arange(n)
    cos_modes, sin_modes = np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)
    basis = np.column_stack([np.cos(2.0 * np.pi * j * m / n) for m in cos_modes]
                            + [np.sin(2.0 * np.pi * j * m / n) for m in sin_modes])
    return np.concatenate((cos_modes, sin_modes)), basis / np.linalg.norm(basis, axis=0)


class TestEigenvalues:
    def test_brownian_hexagon(self):
        lam = circulant_eigenvalues(np.array([1.0, 0, 0, -1.0, 0, 0]))
        np.testing.assert_allclose(lam, [0, 2, 0, 2, 0, 2], atol=1e-14)

    def test_one_by_one(self):
        np.testing.assert_array_equal(circulant_eigenvalues(np.array([3.5])), [3.5])

    def test_discrete_laplacian_square(self):
        lam = circulant_eigenvalues(np.array([2.0, -1.0, 0.0, -1.0]))
        np.testing.assert_allclose(lam, [0, 2, 4, 2], atol=1e-14)

    def test_rejects_asymmetric_row(self):
        with pytest.raises(ValueError, match=r"first row must satisfy c\[k\] == c\[N-k\] for a real spectrum"):
            circulant_eigenvalues(np.array([0.0, 1.0, 0.0, 2.0, 0.0]))

    def test_rejects_empty_or_2d_row(self):
        for row in (np.array([]), np.eye(3)):
            with pytest.raises(ValueError, match="nonempty 1-d"):
                circulant_eigenvalues(row)

    def test_degeneracy_is_bitwise(self):
        rng = np.random.default_rng(7)
        for n in (5, 8, 13, 24):
            half = rng.normal(size=n // 2 + 1)
            row = np.array([half[min(k, n - k)] for k in range(n)])
            lam = circulant_eigenvalues(row)
            for m in range(1, n):
                assert lam[m] == lam[n - m]

    @pytest.mark.parametrize("sites", MIRRORED_SIZES)
    def test_spectrum_is_the_mirrored_rfft_it_replaced(self, sites):
        row = ring_increment_row(sites, 0.3)
        half = np.fft.rfft(row).real
        assert same_bits(circulant_eigenvalues(row), np.concatenate((half, half[1 : sites - sites // 2][::-1])))

    @pytest.mark.parametrize("sites", MIRRORED_SIZES)
    def test_coupling_row_is_the_gather_it_replaced(self, sites):
        g = ring_coupling_profile(sites, 0.3)
        k = np.arange(sites)
        assert same_bits(mirrored_distance_row(g, sites), np.concatenate(([0.0], g))[np.minimum(k, sites - k)])

    @given(symmetric_circulants())
    def test_multiset_matches_dense_solver(self, row):
        lam_formula = np.sort(circulant_eigenvalues(row))
        lam_dense = np.linalg.eigvalsh(circulant_dense(row))
        scale = max(np.abs(lam_formula).max(), 1e-30)
        assert np.abs(lam_formula - lam_dense).max() <= 1e-9 * scale


class TestEigenvectors:
    """The eigenvalues come in mode order: lambda_m belongs to the mode-m cos and sin vectors."""

    def test_constant_mode(self):
        row = np.array([2.0, -0.5, 1.0, -0.5])
        _, vecs = real_fourier_basis(4)
        lam = circulant_eigenvalues(row)
        np.testing.assert_allclose(vecs[:, 0], np.full(4, 0.5), atol=1e-15)
        np.testing.assert_allclose(circulant_dense(row) @ vecs[:, 0], lam[0] * vecs[:, 0], atol=1e-14)
        assert lam[0] == pytest.approx(row.sum(), abs=1e-14)

    def test_alternating_mode_hexagon(self):
        row = np.array([1.0, 0, 0, -1.0, 0, 0])
        modes, vecs = real_fourier_basis(6)
        alt = np.array([1, -1, 1, -1, 1, -1]) / np.sqrt(6)
        # the m = N/2 cosine is the last cos column
        assert modes[3] == 3
        np.testing.assert_allclose(vecs[:, 3], alt, atol=1e-14)
        lam = circulant_eigenvalues(row)
        np.testing.assert_allclose(circulant_dense(row) @ alt, lam[3] * alt, atol=1e-14)

    def test_cos_sin_pair_share_eigenvalue(self):
        row = np.array([2.0, -1.0, 0.0, -1.0])
        modes, vecs = real_fourier_basis(4)
        lam = circulant_eigenvalues(row)
        # columns 1 and 3 are the cos/sin pair for m = 1, which shares lambda_1 == lambda_3
        assert modes[1] == modes[3] == 1 and lam[1] == lam[3]
        dense = circulant_dense(row)
        for col in (1, 3):
            resid = dense @ vecs[:, col] - lam[1] * vecs[:, col]
            assert np.abs(resid).max() <= 1e-9 * max(np.abs(lam).max(), 1e-30)

    def test_basis_orthonormal_and_complete(self):
        rng = np.random.default_rng(11)
        for n in (4, 7, 12):
            half = rng.normal(size=n // 2 + 1)
            row = np.array([half[min(k, n - k)] for k in range(n)])
            modes, vecs = real_fourier_basis(n)
            assert vecs.shape == (n, n)
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-10
            vals = circulant_eigenvalues(row)[modes]
            scale = max(np.abs(vals).max(), 1e-30)
            assert np.abs(circulant_dense(row) @ vecs - vecs * vals).max() <= 1e-9 * scale


class TestRingModeSpectrum:
    def test_zero_mode(self):
        assert ring_mode_spectrum(np.array([1.0, -0.2, 0.0]), 6)[0] == 0.0

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
        # the whole first row c_0..c_{N-1}, c_0 = 0 on the diagonal
        np.testing.assert_array_equal(mirrored_distance_row(np.array([1.0, 2.0]), 4), [0, 1, 2, 1])
        np.testing.assert_array_equal(mirrored_distance_row(np.array([1.0, 2.0]), 5), [0, 1, 2, 2, 1])
        with pytest.raises(ValueError):
            mirrored_distance_row(np.array([1.0]), 5)


class TestOverflow:
    """2 sum|c| bounds every |mu_0 - mu_m|: a row whose bound overflows is rejected before the FFT runs."""

    @pytest.mark.parametrize("call", [
        lambda: circulant_eigenvalues(np.array([0.0, 1e308, 1e308])),
        lambda: ring_mode_spectrum(np.array([6e307]), 3),
        lambda: ring_mode_spectrum(np.array([1e308]), 3),
        lambda: check_admissible(np.array([6e307]), 3),
        lambda: sample_circulant(np.array([1e308, -6e307, -6e307]), 1, 0),
    ], ids=["eigenvalues", "ring-spectrum-inf", "ring-spectrum-nan", "admissible", "sample"])
    def test_overflowing_row_is_rejected_without_warnings(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call()
        assert str(info.value) == "the circulant spectrum overflows: 2 * sum|c_k| over its first row is inf"

    def test_largest_finite_bound_passes(self):
        # 2 sum|c| = 1.6e308: every eigenvalue, and the tolerance, stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = ring_mode_spectrum(np.array([4e307]), 3)
            report = check_admissible(np.array([4e307]), 3)
        assert lam.tolist() == [0.0, 1.2e308, 1.2e308]
        assert report.admissible and report.lambda_min_nonzero == 1.2e308
