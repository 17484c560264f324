import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmspring.kernels import (
    chain_increment_cov,
    chain_increment_row,
    ring_increment_cov,
    ring_increment_row,
)
from fbmspring.linalg import Definiteness, classify_definiteness

from conftest import exact_chain_row, exact_ring_row, geodesic_lags, ring_position_cov, ulps_off

#: Hurst indices of the accuracy tests: both sides of 1/2, near 0 and near 1.
ACCURACY_HURSTS = (0.05, 0.3, 0.5, 0.7, 0.9, 0.95)


class TestChainCov:
    def test_brownian_is_identity(self):
        np.testing.assert_array_equal(chain_increment_cov(4, 0.5), np.eye(4))

    def test_ballistic_is_all_ones(self):
        # at H = 1: ((d+1)^2 + (d-1)^2)/2 - d^2 = 1 for every lag
        np.testing.assert_allclose(chain_increment_cov(3, 1.0), np.ones((3, 3)), atol=1e-14)

    def test_antipersistent_first_lag(self):
        r = chain_increment_cov(2, 0.3)
        assert r[0, 1] == pytest.approx(2.0**0.6 / 2.0 - 1.0, abs=1e-12)
        assert r[0, 1] == pytest.approx(-0.24214, abs=5e-6)

    @pytest.mark.parametrize("hurst", ACCURACY_HURSTS)
    def test_row_within_4_ulps_of_mpmath(self, hurst):
        # the formula as written cancels about log10(d^2) digits: 4.9e-10 relative at d = 1023, H = 0.7
        row = chain_increment_row(1024, hurst)
        assert ulps_off(row, exact_chain_row(1024, hurst)).max() <= 4
        for n in (1, 2, 3, 17, 1000):  # every shorter row is the same bits
            assert np.array_equal(chain_increment_row(n, hurst), row[:n])

    def test_unit_diagonal_exact(self):
        r = chain_increment_cov(9, 0.37)
        assert np.array_equal(np.diag(r), np.ones(9))

    def test_toeplitz_exact(self):
        r = chain_increment_cov(8, 0.71)
        for i in range(8):
            for k in range(8):
                assert r[i, k] == r[0, abs(i - k)]
        assert np.array_equal(r, r.T)

    def test_model_validation(self):
        # the row builder checks n, then hurst; the dense builder goes through it
        for build in (chain_increment_row, chain_increment_cov):
            with pytest.raises(ValueError, match="chain needs at least one increment"):
                build(0, 0.5)
            with pytest.raises(ValueError, match="chain needs at least one increment"):
                build(0, 1.2)
            with pytest.raises(ValueError, match=r"hurst must be in \(0, 1\], got 0.0"):
                build(4, 0.0)
            with pytest.raises(ValueError, match=r"hurst must be in \(0, 1\], got 1.2"):
                build(4, 1.2)


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
    def test_model_validation(self):
        # sites first, then hurst, for the row and the dense matrix alike
        for build in (ring_increment_row, ring_increment_cov):
            with pytest.raises(ValueError, match="a ring needs at least 3 sites"):
                build(2, 0.5)
            with pytest.raises(ValueError, match="a ring needs at least 3 sites"):
                build(2, 1.5)
            with pytest.raises(ValueError, match=r"hurst must be in \(0, 1\], got 1.5"):
                build(6, 1.5)

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
        cov = ring_increment_cov(5, 0.5)
        assert np.array_equal(np.diag(cov), np.ones(5))

    def test_circulant_exact(self):
        cov = ring_increment_cov(9, 0.42)
        row = cov[0]
        for i in range(9):
            for k in range(9):
                assert cov[i, k] == row[(k - i) % 9]
        assert np.array_equal(cov, cov.T)

    def test_row_sums_vanish(self):
        for sites, hurst in [(5, 0.2), (12, 0.5), (31, 0.45), (64, 0.9)]:
            cov = ring_increment_cov(sites, hurst)
            assert np.abs(cov.sum(axis=1)).max() <= 1e-12

    def test_low_hurst_is_semidefinite(self):
        verdict = classify_definiteness(ring_increment_cov(8, 0.3))
        assert verdict.kind is Definiteness.POSITIVE_SEMIDEFINITE

    def test_second_difference_of_position_cov(self):
        # increment covariance == cyclic second difference of the position
        # covariance, exact to rounding on small rings
        for sites in (4, 5, 7, 8):
            for hurst in (0.3, 0.5, 0.8):
                pos = ring_position_cov(sites, hurst)
                inc = ring_increment_cov(sites, hurst)
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
        verdict = classify_definiteness(ring_increment_cov(sites, hurst))
        return verdict.kind is not Definiteness.INDEFINITE

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
