import math
import tracemalloc

import numpy as np
import pytest

from fbmspring.circulant import _half_spectrum, circulant_eigenvalues, mirrored_distance_row, ring_mode_spectrum
from fbmspring.couplings import couplings_from_energy
from fbmspring.errors import MissingRingModes, NotPositiveDefinite
from fbmspring.kernels import ring_increment_row
from fbmspring.linalg import default_tol_pd
from fbmspring.rings import (
    check_admissible,
    power_law_ring,
    ring_coupling_profile,
    ring_energy_eigenvalues,
    single_distance_bound,
    stiff_sufficient_bound,
    zeta_minus_one_tail,
)

from conftest import MIRRORED_SIZES, circulant_dense, ring_laplacian_circulant, same_bits


def two_coupling_model(sites, g1, g2):
    """Couplings by distance of a ring with springs at distances 1 and 2 only."""
    g = np.zeros(sites // 2)
    g[0], g[1] = g1, g2
    return g


class TestBuilders:
    """The energy matrix g*I - G of a ring model, a circulant of its mirrored couplings."""

    def test_distance_circulant_even(self):
        row = ring_laplacian_circulant(np.array([1.0, 2.0]), 4)
        np.testing.assert_array_equal(row, [4, -1, -2, -1])

    def test_distance_circulant_odd(self):
        row = ring_laplacian_circulant(np.array([1.0, 2.0]), 5)
        np.testing.assert_array_equal(row, [6, -1, -2, -2, -1])

    def test_two_coupling_structure(self):
        g1, g2 = 0.7, -0.1
        np.testing.assert_allclose(
            ring_laplacian_circulant(two_coupling_model(6, g1, g2), 6),
            [2 * (g1 + g2), -g1, -g2, 0, -g2, -g1],
            atol=1e-15,
        )

    def test_laplacian_zero_profile(self):
        np.testing.assert_array_equal(circulant_dense(ring_laplacian_circulant(np.zeros(3), 6)), np.zeros((6, 6)))

    def test_laplacian_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        for sites in (5, 8, 17, 32):
            dense = circulant_dense(ring_laplacian_circulant(rng.normal(size=sites // 2), sites))
            scale = max(np.abs(dense).max(), 1e-30)
            # exact zero up to reordered-summation rounding
            assert np.abs(dense.sum(axis=1)).max() <= 1e-13 * sites * scale

    def test_laplacian_spectrum_three_ways(self):
        rng = np.random.default_rng(4)
        # with g = (1, -1) mode 4 of 12 comes out at +1.1e-16, inside the tolerance, so it violates
        models = [(sites, rng.normal(size=sites // 2)) for sites in (6, 13, 24)] + [(12, two_coupling_model(12, 1, -1))]
        for sites, g in models:
            row = ring_laplacian_circulant(g, sites)
            lam_formula = ring_mode_spectrum(g, sites)
            lam_circ = circulant_eigenvalues(row)
            np.testing.assert_allclose(lam_formula, lam_circ, atol=1e-10 * max(1, np.abs(lam_circ).max()))
            lam_dense = np.linalg.eigvalsh(circulant_dense(row))
            scale = max(np.abs(lam_dense).max(), 1e-30)
            assert np.abs(np.sort(lam_formula) - lam_dense).max() <= 1e-9 * scale
            # the admissibility sweep reads the same modes, and the tolerance of the same row
            report, half = check_admissible(g, sites), lam_formula[1 : sites // 2 + 1]
            assert same_bits(report["lambda_min"], half.min())
            tol = _half_spectrum(mirrored_distance_row(g, sites))[1]
            assert report["violating_modes"] == (np.flatnonzero(half <= tol) + 1).tolist()

    def test_model_validation(self):
        # every function that unpacks a (g, sites) pair checks it in mirrored_distance_row
        for consume in (mirrored_distance_row, ring_mode_spectrum, check_admissible):
            with pytest.raises(ValueError, match="a ring needs at least 3 sites"):
                consume(np.array([1.0]), 2)
            with pytest.raises(ValueError, match=r"need floor\(N/2\) = 4 couplings, got shape \(1,\)"):
                consume(np.array([1.0]), 8)
            with pytest.raises(ValueError, match=r"need floor\(N/2\) = 4 couplings, got shape \(2, 2\)"):
                consume(np.zeros((2, 2)), 8)


class TestAdmissibility:
    def test_boundary_ratio_admissible(self):
        report = check_admissible(two_coupling_model(12, 1.0, -0.25), 12)
        assert report["admissible"]
        assert report["lambda_min"] > 0
        assert report["violating_modes"] == []

    def test_below_boundary_inadmissible(self):
        # lambda_1 = 2(1 - cos(pi/6)) - 0.6(1 - cos(pi/3)) = -0.032...
        report = check_admissible(two_coupling_model(12, 1.0, -0.30), 12)
        assert not report["admissible"]
        assert 1 in report["violating_modes"]
        expected = 2 * (1 - math.cos(math.pi / 6)) - 0.6 * (1 - math.cos(math.pi / 3))
        assert report["lambda_min"] == pytest.approx(expected, abs=1e-12)

    def test_nan_coupling_violates_every_mode(self):
        # nan reaches every mode's lambda_m and the default tolerance alike
        report = check_admissible(np.array([math.nan, 0.1, 0.0, 0.0]), 8)
        assert not report["admissible"]
        assert report["violating_modes"] == [1, 2, 3, 4]

    def test_nearest_neighbor_ring(self):
        assert check_admissible(np.array([1.0, 0.0, 0.0, 0.0]), 8)["admissible"]

    def test_large_nearest_neighbor_ring(self):
        # lambda_1 = 2 (1 - cos(2 pi / N)) = 9.19e-09 at 65536 sites, far above the
        # FFT's rounding on the row (0, 1, 0, ..., 0, 1), 4.55e-13, though below
        # 1e-12 N max|g| = 6.55e-08
        sites = 65536
        g = np.zeros(sites // 2)
        g[0] = 1.0
        report = check_admissible(g, sites)
        assert report["admissible"] and report["violating_modes"] == []
        assert report["lambda_min"] == pytest.approx(2.0 * (1.0 - math.cos(2.0 * math.pi / sites)), rel=1e-6)
        assert _half_spectrum(mirrored_distance_row(g, sites))[1] < 1e-12

    def test_design_with_negative_modes_stays_inadmissible(self):
        report = check_admissible(power_law_ring(sites=64, g1=1.0, c=2.0, gamma=4.0)["g_by_distance"], 64)
        assert not report["admissible"]
        assert report["violating_modes"] == [1, 2, 3]
        assert report["lambda_min"] < 0

    def test_two_coupling_family_boundary(self):
        """The ratio -1/4 is admissible for every size; below it the smallest
        mode goes negative once the ring is large enough for the long-wave
        expansion to bite (N >= 12 at ratio -0.27)."""
        for sites in range(8, 65):
            assert check_admissible(two_coupling_model(sites, 1.0, -0.25), sites)["admissible"], sites
            report = check_admissible(two_coupling_model(sites, 1.0, -0.27), sites)
            assert report["admissible"] == (sites < 12), sites

    def test_sufficient_bound_soundness(self):
        # whenever the summed bound holds the exact sweep must pass
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            sites = int(rng.integers(4, 65))
            g = np.zeros(sites // 2)
            g[0] = float(rng.uniform(0.5, 3.0))
            reach = int(rng.integers(2, sites // 2 + 1))
            g[1:reach] = -(10.0 ** rng.uniform(-4, -0.5, size=reach - 1))
            if stiff_sufficient_bound(g):
                checked += 1
                assert check_admissible(g, sites)["admissible"]
        assert checked > 30  # the sweep actually exercised the bound

    def test_bound_not_applicable_for_attractive_tails(self):
        g = np.array([1.0, 0.2, 0.0, 0.0])
        assert stiff_sufficient_bound(g) is None

    def test_cosine_sandwich_inequalities(self):
        # (x/pi)^2 <= 1 - cos x <= x^2/2 on [0, pi]; these back the summed
        # sufficient bound. Note the (x/2)^2 variant sometimes quoted as the
        # upper bound is false near 0 (1 - cos x ~ x^2/2 > x^2/4), so the
        # stated bound g1 > pi^2 sum k^2 |g_k| overshoots the necessary
        # pi^2/2 factor and is sufficient a fortiori.
        x = np.linspace(0.0, math.pi, 10_000)
        one_minus_cos = 1.0 - np.cos(x)
        assert ((x / math.pi) ** 2 <= one_minus_cos).all()
        assert (one_minus_cos <= x**2 / 2.0).all()
        assert 1.0 - math.cos(0.1) > (0.1 / 2.0) ** 2  # the quoted variant fails


class TestSingleDistanceBound:
    def test_boundary_true(self):
        assert single_distance_bound(2, 1.0, -0.25) is True

    def test_violation(self):
        assert single_distance_bound(3, 1.0, -0.2) is False

    def test_zero_coupling(self):
        assert single_distance_bound(5, 1.0, 0.0) is True

    def test_requires_positive_g1(self):
        with pytest.raises(ValueError, match="nearest-neighbor coupling must be positive, got 0.0"):
            single_distance_bound(2, 0.0, -0.1)

    def test_requires_distance_at_least_two(self):
        with pytest.raises(ValueError):
            single_distance_bound(1, 1.0, -0.1)


class TestZetaTail:
    def test_basel_value(self):
        assert zeta_minus_one_tail(2.0) == pytest.approx(math.pi**2 / 6 - 1, rel=1e-12)

    def test_fourth_power_value(self):
        assert zeta_minus_one_tail(4.0) == pytest.approx(math.pi**4 / 90 - 1, rel=1e-12)

    def test_large_s_leading_term(self):
        assert zeta_minus_one_tail(50.0) == pytest.approx(2.0**-50, rel=1e-8)

    def test_against_library_zeta(self):
        special = pytest.importorskip("scipy.special")
        for s in (1.5, 2.5, 3.25, 7.3, 12.0):
            assert zeta_minus_one_tail(s) == pytest.approx(float(special.zeta(s)) - 1.0, rel=1e-12)

    def test_divergent(self):
        with pytest.raises(ValueError, match="series diverges for s <= 1, got s = 1.0"):
            zeta_minus_one_tail(1.0)


class TestPowerLawRing:
    def test_guaranteed_design(self):
        threshold = math.pi**2 * (math.pi**2 / 6 - 1)  # ~6.3653 at gamma = 4, c = 1
        design = power_law_ring(sites=32, g1=7.0, c=1.0, gamma=4.0, infinite_guarantee=True)
        assert 7.0 > threshold
        assert design["zeta_bound"] is True
        assert design["finite_bound"] is True
        for sites in range(4, 65):
            g = power_law_ring(sites=sites, g1=7.0, c=1.0, gamma=4.0)["g_by_distance"]
            assert check_admissible(g, sites)["admissible"], sites

    def test_coupling_values(self):
        np.testing.assert_allclose(
            power_law_ring(sites=10, g1=2.0, c=0.5, gamma=4.0)["g_by_distance"],
            [2.0, -0.5 * 2.0**-4, -0.5 * 3.0**-4, -0.5 * 4.0**-4, -0.5 * 5.0**-4],
            atol=1e-15,
        )

    def test_zero_repulsion_trivially_admissible(self):
        design = power_law_ring(sites=16, g1=1.0, c=0.0, gamma=5.0)
        assert design["finite_bound"] is True
        assert check_admissible(design["g_by_distance"], 16)["admissible"]
        # k^2000 overflows, and -0 * inf would be nan: every g_k is still -0.0
        overflowing = power_law_ring(sites=16, g1=1.0, c=0.0, gamma=-2000.0)["g_by_distance"]
        assert same_bits(overflowing, power_law_ring(sites=16, g1=1.0, c=0.0, gamma=4.0)["g_by_distance"])

    def test_slow_decay_needs_no_guarantee(self):
        design = power_law_ring(sites=16, g1=1.0, c=0.05, gamma=2.5)
        assert design["zeta_bound"] is None

    def test_slow_decay_rejected_with_guarantee(self):
        with pytest.raises(ValueError, match="size-independent guarantee needs gamma > 3, got gamma = 2.5"):
            power_law_ring(sites=16, g1=1.0, c=0.05, gamma=2.5, infinite_guarantee=True)

    def test_finite_bound_is_sufficient_not_necessary(self):
        # push c just past the summed bound: the bound fails but the exact
        # sweep still passes, showing the gap between bound and boundary
        sites, gamma = 16, 3.5
        k = np.arange(2, sites // 2 + 1, dtype=float)
        c_at_bound = 1.0 / (math.pi**2 * float((k**2 * k**-gamma).sum()))
        design = power_law_ring(sites=sites, g1=1.0, c=1.05 * c_at_bound, gamma=gamma)
        assert design["finite_bound"] is False
        assert check_admissible(design["g_by_distance"], sites)["admissible"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            power_law_ring(sites=8, g1=0.0, c=1.0, gamma=4.0)
        with pytest.raises(ValueError):
            power_law_ring(sites=8, g1=1.0, c=-1.0, gamma=4.0)

    def test_nan_parameters_rejected(self):
        with pytest.raises(ValueError, match="g1"):
            power_law_ring(sites=8, g1=math.nan, c=1.0, gamma=4.0)
        with pytest.raises(ValueError, match="repulsion"):
            power_law_ring(sites=8, g1=1.0, c=math.nan, gamma=4.0)
        with pytest.raises(ValueError, match="size-independent guarantee needs gamma > 3, got gamma = nan"):
            power_law_ring(sites=8, g1=7.0, c=1.0, gamma=math.nan, infinite_guarantee=True)


class TestRingCouplingProfile:
    def test_periodic_low_hurst_profile(self):
        g = ring_coupling_profile(61, 0.3)
        assert g.shape == (30,)
        # short- and mid-range couplings attract; only the antipodal one flips
        assert (g[:29] > 0).all()
        assert g[29] < 0
        # frozen regression anchors from the distance-reduced inversion
        assert g[0] == pytest.approx(0.3269833, rel=1e-5)
        assert g[1] == pytest.approx(0.05475034, rel=1e-5)

    def test_large_ring_attracts_at_every_distance_short_of_the_antipode(self):
        # a cancelling fold and row once made 2760 of these couplings <= 0; the antipode's
        # sign is left open, it needs an extended-precision oracle of its own
        assert (ring_coupling_profile(65536, 0.45)[:-1] > 0).all()

    def test_profile_reproduces_an_admissible_ring(self):
        report = check_admissible(ring_coupling_profile(24, 0.35), 24)
        assert report["admissible"]

    def test_inadmissible_hurst_raises(self):
        with pytest.raises(MissingRingModes):
            ring_coupling_profile(32, 0.8)

    def test_brownian_odd_ring_profile(self):
        # odd ring at H = 1/2: uniform attraction 4/N at every distance except
        # the antipodal one, which repels with -(N - 4)/N... frozen from the
        # reduced-inversion pipeline and confirmed rational at N = 9
        np.testing.assert_allclose(
            ring_coupling_profile(9, 0.5), [4 / 9, 4 / 9, 4 / 9, -5 / 9], atol=1e-12
        )

    def test_profile_laplacian_reproduces_reduced_energy(self):
        # the distance-reduced Laplacian quadratic form must equal half the
        # increment energy of the first N-1 increments, for arbitrary x
        sites, hurst = 12, 0.4
        lap = circulant_dense(ring_laplacian_circulant(ring_coupling_profile(sites, hurst), sites))
        energy = dense_inverse(circulant_dense(ring_increment_row(sites, hurst))[: sites - 1, : sites - 1])
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.normal(size=sites)
            y = np.diff(x)
            lhs = float(x @ lap @ x)
            rhs = 0.5 * float(y @ energy @ y)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_even_brownian_ring_names_missing_modes(self):
        # at H = 1/2 an even ring's increment covariance vanishes on every even mode
        with pytest.raises(MissingRingModes) as info:
            ring_coupling_profile(8, 0.5)
        assert info.value.modes == [2, 4]
        assert abs(info.value.min_eigenvalue) < 1e-12
        assert "modes 2, 4 " in str(info.value)

    @pytest.mark.parametrize("hurst, hint", [(0.7, "; above hurst = 0.5 only some odd rings have one"), (0.5, "")])
    def test_missing_modes_message_names_the_ring(self, hurst, hint):
        # the whole message the CLI prints; the admissibility hint only above H = 1/2
        with pytest.raises(MissingRingModes) as info:
            ring_coupling_profile(6, hurst)
        exc = info.value
        assert str(exc) == (
            f"no Gaussian ring model with 6 sites at hurst = {hurst}: ring increment covariance is not "
            f"positive definite: no positive weight on modes 2 (1 mode; smallest eigenvalue "
            f"{exc.min_eigenvalue:.6e}, tolerance {exc.tol:.6e}){hint}"
        )
        assert exc.modes == [2]

    def test_no_even_ring_above_half(self):
        # the hint may not promise an even ring anywhere above H = 1/2
        for sites in range(4, 257, 2):
            for hurst in np.round(np.arange(0.51, 1.0, 0.01), 2).tolist() + [1.0]:
                with pytest.raises(MissingRingModes):
                    ring_coupling_profile(sites, hurst)

    @pytest.mark.parametrize("sites, last, first_missing", [
        (3, 1.0, None), (5, 0.694, 0.695), (7, 0.582, 0.583), (9, 0.548, 0.549), (33, 0.5036, 0.5037),
    ])
    def test_odd_rings_exist_up_to_their_critical_hurst(self, sites, last, first_missing):
        # an odd ring stays Gaussian on (1/2, H_c(N)], and H_c(N) falls toward 1/2
        for hurst in np.linspace(0.5, last, 11):
            ring_coupling_profile(sites, float(hurst))
        if first_missing is not None:
            with pytest.raises(MissingRingModes, match="only some odd rings have one"):
                ring_coupling_profile(sites, first_missing)

    @pytest.mark.parametrize("sites", [6, 64, 1024, 65536])
    def test_brownian_zeros_stay_below_the_fft_tolerance(self, sites):
        # the even modes are exact zeros; rounding leaves them far under the FFT tolerance
        row = ring_increment_row(sites, 0.5)
        with pytest.raises(MissingRingModes) as info:
            ring_coupling_profile(sites, 0.5)
        assert info.value.modes == list(range(2, sites // 2 + 1, 2))
        assert info.value.tol == _half_spectrum(row)[1] > 100 * abs(info.value.min_eigenvalue)
        assert f"tolerance {info.value.tol:.6e}" in str(info.value)

    @pytest.mark.parametrize("sites", [2**15, 2**16, 2**17])
    def test_large_low_hurst_rings_exist(self, sites):
        # 1e-9 N max|c| exceeded mu_1 of these valid rings; the FFT tolerance does not
        for hurst in (0.01, 0.02, 0.05, 0.1):
            assert np.isfinite(ring_coupling_profile(sites, hurst)).all()

    def test_large_ring_couplings_invert_the_spectrum(self):
        # lambda_m mu_m = 1 - cos theta_m mode by mode, at 2^16 sites and H = 0.05; the
        # reference is 2 sin^2(theta_m/2), since 1 - cos theta_m itself loses 4.5e-9 at m = 1
        sites, hurst = 2**16, 0.05
        mu = circulant_eigenvalues(ring_increment_row(sites, hurst))
        lam = ring_mode_spectrum(ring_coupling_profile(sites, hurst), sites)
        m = np.arange(1, sites)
        assert np.abs(lam[m] * mu[m] / (2.0 * np.sin(np.pi * m / sites) ** 2) - 1.0).max() <= 1e-10

    def test_every_mode_below_zero_above_half_is_missing(self):
        for sites in (5, 6, 7, 64, 65, 4096):
            for hurst in (0.501, 0.55, 0.7, 0.95):
                mu = circulant_eigenvalues(ring_increment_row(sites, hurst))[1 : sites // 2 + 1]
                if (mu < 0).any():
                    with pytest.raises(MissingRingModes) as info:
                        ring_coupling_profile(sites, hurst)
                    assert set(info.value.modes) >= set(np.flatnonzero(mu < 0) + 1)

    def test_memory_is_linear_in_sites(self):
        tracemalloc.start()
        try:
            ring_coupling_profile(2048, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # a dense (N-1)^2 inverse alone takes 32 MB


class TestRingEnergyEigenvalues:
    """lambda_m = 2 sin^2(theta_m/2) / mu_m, computed straight from the covariance spectrum."""

    @staticmethod
    def mpmath_eigenvalues(sites, hurst):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            h2 = 2 * mp.mpf(hurst)
            dpow = [mp.mpf(min(j % sites, sites - j % sites)) ** h2 for j in range(-1, sites + 1)]
            row = [(dpow[j + 2] + dpow[j] - 2 * dpow[j + 1]) / 2 for j in range(sites)]
            theta = [2 * mp.pi * m / sites for m in range(1, sites // 2 + 1)]
            return np.array([float((1 - mp.cos(t)) / mp.fsum(c * mp.cos(t * k) for k, c in enumerate(row)))
                             for t in theta])

    @pytest.mark.parametrize("sites, hurst", [(3, 0.45), (5, 0.6), (9, 0.3), (64, 0.05), (64, 0.45), (65, 0.3)])
    def test_matches_extended_precision(self, sites, hurst):
        expected = self.mpmath_eigenvalues(sites, hurst)
        assert np.abs(ring_energy_eigenvalues(sites, hurst)[1 : sites // 2 + 1] / expected - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("sites", [9, 64, 1025])
    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.45])
    def test_is_minus_one_over_the_geodesic_power_transform(self, sites, hurst):
        # mu_m = 2 sin^2(theta_m/2) (-s_m) with s the cosine transform of d_j^{2H}
        j = np.arange(sites)
        s = np.fft.rfft(np.minimum(j, sites - j).astype(float) ** (2.0 * hurst)).real[1:]
        lam = ring_energy_eigenvalues(sites, hurst)[1 : sites // 2 + 1]
        assert np.abs(lam * -s - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("sites", [5, 8, 64, 257])
    def test_couplings_return_the_eigenvalues(self, sites):
        # ring_coupling_profile is the inverse cosine transform; the forward one gives lambda back
        lam = ring_energy_eigenvalues(sites, 0.3)
        back = ring_mode_spectrum(ring_coupling_profile(sites, 0.3), sites)
        assert np.abs(back - lam).max() <= 1e-13 * lam.max()

    @pytest.mark.parametrize("sites", MIRRORED_SIZES)
    def test_all_modes_in_mode_order(self, sites):
        # lambda_0 = 0, then modes 1..N/2 from the covariance spectrum, mirrored bitwise onto N/2..N-1
        mu = _half_spectrum(ring_increment_row(sites, 0.3))[0][1:]
        half = 2.0 * np.sin(np.pi * np.arange(1, sites // 2 + 1) / sites) ** 2 / mu
        k = np.arange(sites)
        assert same_bits(ring_energy_eigenvalues(sites, 0.3), np.concatenate(([0.0], half))[np.minimum(k, sites - k)])

    def test_missing_modes_raise(self):
        with pytest.raises(MissingRingModes) as info:
            ring_energy_eigenvalues(32, 0.8)
        with pytest.raises(MissingRingModes) as again:
            ring_coupling_profile(32, 0.8)
        assert str(info.value) == str(again.value)


def dense_inverse(a):
    """np.linalg.inv behind the package's PD check: every Cholesky pivot above default_tol_pd."""
    try:
        pivots = np.diag(np.linalg.cholesky(a)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.array([-np.inf])
    small = np.flatnonzero(pivots <= default_tol_pd(a))
    if small.size:
        raise NotPositiveDefinite(pivot_index=int(small[0]), pivot_value=float(pivots[small[0]]))
    inv = np.linalg.inv(a)
    return (inv + inv.T) / 2


def dense_ring_coupling_profile(sites, hurst):
    """Reference pipeline: invert the (N-1) increment block, take the pairwise
    couplings, and average each geodesic distance class."""
    cov = circulant_dense(ring_increment_row(sites, hurst))
    table = couplings_from_energy(dense_inverse(cov[: sites - 1, : sites - 1]))
    idx = np.arange(sites)
    return np.array([table[idx, (idx + d) % sites].mean() for d in range(1, sites // 2 + 1)])


@pytest.mark.parametrize("hurst", [0.05, 0.2, 0.3, 0.45, 0.5, 0.55, 0.6, 0.65, 0.8])
@pytest.mark.parametrize("sites", [5, 6, 7, 8, 9, 12, 24, 61, 64, 128])
def test_closed_form_matches_dense_oracle(sites, hurst):
    try:
        expected = dense_ring_coupling_profile(sites, hurst)
    except NotPositiveDefinite:  # the oracle's Cholesky pivot; the ring's own verdict names its modes
        with pytest.raises(MissingRingModes):
            ring_coupling_profile(sites, hurst)
        return
    got = ring_coupling_profile(sites, hurst)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
