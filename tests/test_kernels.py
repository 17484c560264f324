import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmspring.circulant import _half_spectrum
from fbmspring.kernels import (
    _chain_increments,
    _chain_index,
    _mirror,
    chain_increment_row,
    ring_increment_row,
    toeplitz_view,
)
from fbmspring.linalg import default_tol_pd

from conftest import (
    MIRRORED_SIZES,
    circulant_dense,
    exact_chain_row,
    exact_ring_row,
    geodesic_lags,
    ring_position_cov,
    same_bits,
    toeplitz_dense,
    ulps_off,
)

#: Hurst indices of the accuracy tests: both sides of 1/2, near 0 and near 1.
ACCURACY_HURSTS = (0.05, 0.3, 0.5, 0.7, 0.9, 0.95)


class TestChainCov:
    """The chain's Toeplitz covariance, through its first row."""

    def test_brownian_is_identity(self):
        np.testing.assert_array_equal(chain_increment_row(4, 0.5), [1.0, 0.0, 0.0, 0.0])

    def test_ballistic_is_all_ones(self):
        # at H = 1: ((d+1)^2 + (d-1)^2)/2 - d^2 = 1 for every lag
        np.testing.assert_allclose(chain_increment_row(3, 1.0), np.ones(3), atol=1e-14)

    def test_antipersistent_first_lag(self):
        r = chain_increment_row(2, 0.3)
        assert r[1] == pytest.approx(2.0**0.6 / 2.0 - 1.0, abs=1e-12)
        assert r[1] == pytest.approx(-0.24214, abs=5e-6)

    @pytest.mark.parametrize("hurst", ACCURACY_HURSTS)
    def test_row_within_4_ulps_of_mpmath(self, hurst):
        # the formula as written cancels about log10(d^2) digits: 4.9e-10 relative at d = 1023, H = 0.7
        row = chain_increment_row(1024, hurst)
        assert ulps_off(row, exact_chain_row(1024, hurst)).max() <= 4
        for n in (1, 2, 3, 17, 1000):  # every shorter row is the same bits
            assert np.array_equal(chain_increment_row(n, hurst), row[:n])

    def test_unit_diagonal_exact(self):
        for hurst in (0.01, 0.37, 0.5, 0.71, 1.0):
            assert chain_increment_row(9, hurst)[0] == 1.0

    def test_toeplitz_exact(self):
        # the dense oracle the tests compare with, and the sample report's reference, gather row[|i - k|]
        row = chain_increment_row(8, 0.71)
        r = toeplitz_dense(row)
        for i in range(8):
            for k in range(8):
                assert r[i, k] == row[abs(i - k)]
        assert np.array_equal(r, r.T)

    def test_model_validation(self):
        # the row builder checks n, then hurst
        with pytest.raises(ValueError, match="chain needs at least one increment"):
            chain_increment_row(0, 0.5)
        with pytest.raises(ValueError, match="chain needs at least one increment"):
            chain_increment_row(0, 1.2)
        with pytest.raises(ValueError, match=r"hurst must be in \(0, 1\], got 0.0"):
            chain_increment_row(4, 0.0)
        with pytest.raises(ValueError, match=r"hurst must be in \(0, 1\], got 1.2"):
            chain_increment_row(4, 1.2)


class TestChainRules:
    """One owner each for a chain's size, its default center and an index on it."""

    def test_size_and_increments(self):
        assert _chain_increments(2) == 1 and _chain_increments(61) == 60
        for monomers in (1, 0, -5):
            with pytest.raises(ValueError, match="^a chain needs at least 2 monomers$"):
                _chain_increments(monomers)

    @pytest.mark.parametrize("monomers, middle", [(2, 0), (3, 1), (61, 30), (62, 30)])
    def test_default_center_is_the_middle(self, monomers, middle):
        assert _chain_index(monomers, None) == middle

    def test_index_on_the_chain(self):
        assert [_chain_index(61, i) for i in (0, 60)] == [0, 60]
        with pytest.raises(IndexError, match=r"^center 61 outside 0\.\.60$"):
            _chain_index(61, 61)
        with pytest.raises(IndexError, match=r"^partner -1 outside 0\.\.60$"):
            _chain_index(61, -1, "partner")


class TestMirror:
    """``_mirror``, the one layout c_k = half[min(k, N - k)] of a symmetric circulant row."""

    def test_equals_a_per_index_loop(self):
        rng = np.random.default_rng(5)
        for size in range(1, 11):
            half = rng.normal(size=size // 2 + 1)
            assert same_bits(_mirror(half, size), [half[min(k, size - k)] for k in range(size)]), size

    @pytest.mark.parametrize("sites", MIRRORED_SIZES)
    def test_ring_row_is_the_gather_it_replaced(self, sites):
        row = ring_increment_row(sites, 0.3)
        j = np.arange(sites)
        assert same_bits(row, row[: sites // 2 + 1][np.minimum(j, sites - j)])


class TestToeplitzView:
    """The one dense matrix of a first row: the read-only view row[|i - j|]."""

    @pytest.mark.parametrize("row", [chain_increment_row(1, 0.3), chain_increment_row(9, 0.7),
                                     ring_increment_row(8, 0.3), ring_increment_row(9, 0.45)],
                             ids=["chain-1", "chain-9", "ring-8", "ring-9"])
    def test_view_is_the_dense_toeplitz(self, row):
        view = toeplitz_view(row)
        assert same_bits(view, toeplitz_dense(row))
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0

    def test_ring_view_is_the_circulant(self):
        # a ring row is symmetric, so row[|i - j|] is row[(j - i) mod N] too
        row = ring_increment_row(12, 0.3)
        assert same_bits(toeplitz_view(row), circulant_dense(row))

    @pytest.mark.parametrize("row", [[], [[1.0, 0.0], [0.0, 1.0]]], ids=["empty", "matrix"])
    def test_rejects_non_row(self, row):
        with pytest.raises(ValueError, match=r"^first_row must be a nonempty 1-d array, got shape"):
            toeplitz_view(row)


class TestGeodesic:
    """The geodesic distance of integer lags behind the oracle row in conftest."""

    def test_antipodal(self):
        assert geodesic_lags(6, np.array([3, -3])).tolist() == [3, 3]

    def test_wraparound(self):
        assert geodesic_lags(6, np.array([5, -1])).tolist() == [1, 1]

    def test_odd_ring(self):
        assert geodesic_lags(7, np.array([1 - 5, 5 - 1])).tolist() == [3, 3]

    def test_out_of_range(self):
        # lags of a full turn or more wrap around
        assert geodesic_lags(6, np.array([6, 7, -9, 12])).tolist() == [0, 1, 3, 0]

    @given(n=st.integers(3, 40), i=st.integers(0, 39), k=st.integers(0, 39))
    def test_metric_properties(self, n, i, k):
        i, k = i % n, k % n
        d, d_back, d_self = geodesic_lags(n, np.array([i - k, k - i, 0]))
        assert 0 <= d <= n // 2
        assert d == d_back == min(abs(i - k), n - abs(i - k))
        assert d_self == 0


class TestRingPositionCov:
    def test_diagonal_is_structure_function(self):
        cov = ring_position_cov(7, 0.4)
        for k in range(7):
            assert cov[k, k] == pytest.approx(min(k, 7 - k) ** 0.8, rel=1e-14)

    def test_hand_evaluated_entries(self):
        cov4 = ring_position_cov(4, 0.5)
        assert cov4[1, 2] == pytest.approx(1.0, abs=1e-14)  # (1 + 2 - 1)/2
        cov6 = ring_position_cov(6, 0.5)
        assert cov6[1, 4] == pytest.approx(0.0, abs=1e-14)  # (1 + 2 - 3)/2

    def test_pinned_row_zero(self):
        cov = ring_position_cov(9, 0.31)
        assert np.array_equal(cov[0], np.zeros(9))
        assert np.array_equal(cov[:, 0], np.zeros(9))

    def test_exactly_symmetric(self):
        cov = ring_position_cov(11, 0.47)
        assert np.array_equal(cov, cov.T)


class TestRingIncrementCov:
    """The ring's circulant covariance, through its first row."""

    def test_model_validation(self):
        # sites first, then hurst
        with pytest.raises(ValueError, match="a ring needs at least 3 sites"):
            ring_increment_row(2, 0.5)
        with pytest.raises(ValueError, match="a ring needs at least 3 sites"):
            ring_increment_row(2, 1.5)
        with pytest.raises(ValueError, match=r"hurst must be in \(0, 1\], got 1.5"):
            ring_increment_row(6, 1.5)

    def test_brownian_hexagon_row(self):
        np.testing.assert_array_equal(
            ring_increment_row(6, 0.5), [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]
        )

    def test_row_is_the_chain_row_folded(self):
        # bit for bit away from the fold lag N // 2 (and its mirror N - N // 2)
        sizes = [*range(3, 300), 511, 512, 1000, 1023, 1024, 4095, 4096, 65536, 65537]
        for sites in sizes:
            lag = np.minimum(np.arange(sites), sites - np.arange(sites))
            for hurst in np.linspace(0.01, 1.0, 15).tolist():
                folded = chain_increment_row(sites // 2 + 1, hurst)[lag]
                row = ring_increment_row(sites, hurst)
                away = lag != sites // 2
                assert np.array_equal(row[away], folded[away]), (sites, hurst)

    @pytest.mark.parametrize("hurst", ACCURACY_HURSTS)
    def test_row_within_4_ulps_of_the_geodesic_formula(self, hurst):
        for sites in [*range(3, 65), 1023, 1024, 4095, 4096]:
            ulps = ulps_off(ring_increment_row(sites, hurst), exact_ring_row(sites, hurst))
            assert ulps.max() <= 4, (sites, ulps.argmax())

    def test_unit_diagonal(self):
        for sites in (3, 4, 5, 64, 65):
            assert ring_increment_row(sites, 0.5)[0] == 1.0

    def test_circulant_exact(self):
        # the row is exactly symmetric, so the sample report's gather row[|i - k|] is the circulant row[(k - i) mod N]
        for sites in (3, 4, 7, 8, 9, 64, 65):
            for hurst in (0.05, 0.42, 0.5, 0.9, 1.0):
                row = ring_increment_row(sites, hurst)
                assert np.array_equal(row[1:], row[:0:-1])
                assert same_bits(toeplitz_dense(row), circulant_dense(row)), (sites, hurst)

    def test_row_sums_vanish(self):
        # every row of a circulant sums to its first row's sum
        for sites, hurst in [(5, 0.2), (12, 0.5), (31, 0.45), (64, 0.9)]:
            assert abs(ring_increment_row(sites, hurst).sum()) <= 1e-12

    def test_low_hurst_is_semidefinite(self):
        # one zero mode, mode 0, in the package's circulant tolerance; every other eigenvalue above it
        row = ring_increment_row(8, 0.3)
        mu, tol = _half_spectrum(row)
        assert abs(mu[0]) <= tol < mu[1:].min()
        assert np.linalg.eigvalsh(circulant_dense(row))[0] >= -tol

    def test_second_difference_of_position_cov(self):
        # increment covariance == cyclic second difference of the position
        # covariance, exact to rounding on small rings
        for sites in (4, 5, 7, 8):
            for hurst in (0.3, 0.5, 0.8):
                pos = ring_position_cov(sites, hurst)
                inc = circulant_dense(ring_increment_row(sites, hurst))
                ext = np.empty((sites + 1, sites + 1))
                ext[:sites, :sites] = pos
                # site N coincides with site 0 on the closed ring
                ext[sites, :sites] = pos[0]
                ext[:sites, sites] = pos[:, 0]
                ext[sites, sites] = pos[0, 0]
                second = ext[1:, 1:] - ext[1:, :-1] - ext[:-1, 1:] + ext[:-1, :-1]
                np.testing.assert_allclose(inc, second, atol=1e-12)


class TestAdmissibilityFrontier:
    """The periodic model exists iff H <= 1/2 in the continuum; on a finite
    grid the boundary is exact for even rings, while small odd rings stay
    positive semidefinite on (1/2, H_c(N)] with H_c(5) ~ 0.694 and
    H_c(7) ~ 0.583 (on the 0.05 grid the last PSD points are 0.65 and 0.55).
    The tests encode the actual discrete behavior.
    """

    @staticmethod
    def _is_psd(sites, hurst):
        row = ring_increment_row(sites, hurst)
        return np.linalg.eigvalsh(circulant_dense(row))[0] >= -default_tol_pd(row)

    def test_psd_for_low_hurst(self):
        for sites in range(4, 33):
            for hurst in np.arange(0.05, 0.501, 0.05):
                assert self._is_psd(sites, float(hurst)), (sites, hurst)

    def test_indefinite_above_half_except_small_odd_rings(self):
        known_psd_above_half = {(5, 0.55), (5, 0.60), (5, 0.65), (7, 0.55)}
        for sites in range(4, 33):
            for hurst in np.arange(0.55, 0.951, 0.05):
                hurst = round(float(hurst), 2)
                expected_psd = (sites, hurst) in known_psd_above_half
                assert self._is_psd(sites, hurst) == expected_psd, (sites, hurst)
