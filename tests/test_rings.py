import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from fbmspring.circulant import circulant_eigenvalues, ring_mode_spectrum
from fbmspring.couplings import couplings_from_energy
from fbmspring.errors import (
    DivergentSeries,
    InvalidExponent,
    MissingRingModes,
    NonpositiveG1,
    NotPositiveDefinite,
)
from fbmspring.kernels import RingGeometry, ring_increment_cov
from fbmspring.linalg import default_tol_pd, eigen_sym
from fbmspring.rings import (
    RingModel,
    build_distance_circulant,
    check_admissible,
    power_law_ring,
    ring_coupling_profile,
    ring_laplacian_circulant,
    single_distance_bound,
    stiff_sufficient_bound,
    zeta_minus_one_tail,
)


def two_coupling_model(sites, g1, g2):
    g = np.zeros(sites // 2)
    g[0], g[1] = g1, g2
    return RingModel(sites=sites, g_by_distance=g)


class TestBuilders:
    def test_distance_circulant_even(self):
        circ = build_distance_circulant(RingModel(4, np.array([1.0, 2.0])))
        np.testing.assert_array_equal(circ.first_row, [0, 1, 2, 1])

    def test_distance_circulant_odd(self):
        circ = build_distance_circulant(RingModel(5, np.array([1.0, 2.0])))
        np.testing.assert_array_equal(circ.first_row, [0, 1, 2, 2, 1])

    def test_two_coupling_structure(self):
        g1, g2 = 0.7, -0.1
        model = two_coupling_model(6, g1, g2)
        np.testing.assert_allclose(
            build_distance_circulant(model).first_row, [0, g1, g2, 0, g2, g1], atol=1e-15
        )
        np.testing.assert_allclose(
            ring_laplacian_circulant(model).first_row,
            [2 * (g1 + g2), -g1, -g2, 0, -g2, -g1],
            atol=1e-15,
        )

    def test_laplacian_zero_profile(self):
        model = RingModel(6, np.zeros(3))
        np.testing.assert_array_equal(ring_laplacian_circulant(model).dense(), np.zeros((6, 6)))

    def test_laplacian_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        for sites in (5, 8, 17, 32):
            model = RingModel(sites, rng.normal(size=sites // 2))
            dense = ring_laplacian_circulant(model).dense()
            scale = max(np.abs(dense).max(), 1e-30)
            # exact zero up to reordered-summation rounding
            assert np.abs(dense.sum(axis=1)).max() <= 1e-13 * sites * scale

    def test_laplacian_spectrum_three_ways(self):
        rng = np.random.default_rng(4)
        for sites in (6, 13, 24):
            model = RingModel(sites, rng.normal(size=sites // 2))
            circ = ring_laplacian_circulant(model)
            lam_formula = ring_mode_spectrum(model.g_by_distance, sites)
            lam_circ = circulant_eigenvalues(circ)
            np.testing.assert_allclose(lam_formula, lam_circ, atol=1e-10 * max(1, np.abs(lam_circ).max()))
            lam_dense = eigen_sym(circ.dense())[0]
            scale = max(np.abs(lam_dense).max(), 1e-30)
            assert np.abs(np.sort(lam_formula) - lam_dense).max() <= 1e-9 * scale

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RingModel(2, np.array([1.0]))
        with pytest.raises(ValueError):
            RingModel(8, np.array([1.0]))


class TestAdmissibility:
    def test_boundary_ratio_admissible(self):
        report = check_admissible(two_coupling_model(12, 1.0, -0.25))
        assert report.admissible
        assert report.lambda_min_nonzero > 0
        assert report.violating_modes == []

    def test_below_boundary_inadmissible(self):
        # lambda_1 = 2(1 - cos(pi/6)) - 0.6(1 - cos(pi/3)) = -0.032...
        report = check_admissible(two_coupling_model(12, 1.0, -0.30))
        assert not report.admissible
        assert 1 in report.violating_modes
        expected = 2 * (1 - math.cos(math.pi / 6)) - 0.6 * (1 - math.cos(math.pi / 3))
        assert report.lambda_min_nonzero == pytest.approx(expected, abs=1e-12)

    def test_nan_coupling_violates_every_mode(self):
        # nan reaches every mode's lambda_m and the default tolerance alike
        report = check_admissible(RingModel(8, np.array([math.nan, 0.1, 0.0, 0.0])))
        assert not report.admissible
        assert report.violating_modes == [1, 2, 3, 4]

    def test_nearest_neighbor_ring(self):
        model = RingModel(8, np.array([1.0, 0.0, 0.0, 0.0]))
        assert check_admissible(model).admissible

    def test_two_coupling_family_boundary(self):
        """The ratio -1/4 is admissible for every size; below it the smallest
        mode goes negative once the ring is large enough for the long-wave
        expansion to bite (N >= 12 at ratio -0.27)."""
        for sites in range(8, 65):
            assert check_admissible(two_coupling_model(sites, 1.0, -0.25)).admissible, sites
            report = check_admissible(two_coupling_model(sites, 1.0, -0.27))
            assert report.admissible == (sites < 12), sites

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
            model = RingModel(sites, g)
            if stiff_sufficient_bound(model):
                checked += 1
                assert check_admissible(model).admissible
        assert checked > 30  # the sweep actually exercised the bound

    def test_bound_not_applicable_for_attractive_tails(self):
        model = RingModel(8, np.array([1.0, 0.2, 0.0, 0.0]))
        assert stiff_sufficient_bound(model) is None
        assert check_admissible(model).sufficient_bound_satisfied is None

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
        with pytest.raises(NonpositiveG1):
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
        for s in (1.5, 2.5, 3.25, 7.3, 12.0):
            assert zeta_minus_one_tail(s) == pytest.approx(float(scipy_zeta(s)) - 1.0, rel=1e-12)

    def test_divergent(self):
        with pytest.raises(DivergentSeries):
            zeta_minus_one_tail(1.0)


class TestPowerLawRing:
    def test_guaranteed_design(self):
        threshold = math.pi**2 * (math.pi**2 / 6 - 1)  # ~6.3653 at gamma = 4, c = 1
        design = power_law_ring(sites=32, g1=7.0, c=1.0, gamma=4.0, infinite_guarantee=True)
        assert 7.0 > threshold
        assert design.zeta_bound_satisfied is True
        assert design.finite_bound_satisfied is True
        for sites in range(4, 65):
            model = power_law_ring(sites=sites, g1=7.0, c=1.0, gamma=4.0).model
            assert check_admissible(model).admissible, sites

    def test_coupling_values(self):
        model = power_law_ring(sites=10, g1=2.0, c=0.5, gamma=4.0).model
        np.testing.assert_allclose(
            model.g_by_distance,
            [2.0, -0.5 * 2.0**-4, -0.5 * 3.0**-4, -0.5 * 4.0**-4, -0.5 * 5.0**-4],
            atol=1e-15,
        )

    def test_zero_repulsion_trivially_admissible(self):
        design = power_law_ring(sites=16, g1=1.0, c=0.0, gamma=5.0)
        assert design.finite_bound_satisfied is True
        assert check_admissible(design.model).admissible

    def test_slow_decay_needs_no_guarantee(self):
        design = power_law_ring(sites=16, g1=1.0, c=0.05, gamma=2.5)
        assert design.zeta_bound_satisfied is None

    def test_slow_decay_rejected_with_guarantee(self):
        with pytest.raises(InvalidExponent):
            power_law_ring(sites=16, g1=1.0, c=0.05, gamma=2.5, infinite_guarantee=True)

    def test_finite_bound_is_sufficient_not_necessary(self):
        # push c just past the summed bound: the bound fails but the exact
        # sweep still passes, showing the gap between bound and boundary
        sites, gamma = 16, 3.5
        k = np.arange(2, sites // 2 + 1, dtype=float)
        c_at_bound = 1.0 / (math.pi**2 * float((k**2 * k**-gamma).sum()))
        design = power_law_ring(sites=sites, g1=1.0, c=1.05 * c_at_bound, gamma=gamma)
        assert design.finite_bound_satisfied is False
        assert check_admissible(design.model).admissible

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
        with pytest.raises(InvalidExponent):
            power_law_ring(sites=8, g1=7.0, c=1.0, gamma=math.nan, infinite_guarantee=True)


class TestRingCouplingProfile:
    def test_periodic_low_hurst_profile(self):
        model = ring_coupling_profile(61, 0.3)
        assert model.g_by_distance.shape == (30,)
        # short- and mid-range couplings attract; only the antipodal one flips
        assert (model.g_by_distance[:29] > 0).all()
        assert model.g_by_distance[29] < 0
        # frozen regression anchors from the distance-reduced inversion
        assert model.g_by_distance[0] == pytest.approx(0.3269833, rel=1e-5)
        assert model.g_by_distance[1] == pytest.approx(0.05475034, rel=1e-5)

    def test_profile_reproduces_an_admissible_ring(self):
        model = ring_coupling_profile(24, 0.35)
        report = check_admissible(model)
        assert report.admissible

    def test_inadmissible_hurst_raises(self):
        with pytest.raises(NotPositiveDefinite):
            ring_coupling_profile(32, 0.8)

    def test_brownian_odd_ring_profile(self):
        # odd ring at H = 1/2: uniform attraction 4/N at every distance except
        # the antipodal one, which repels with -(N - 4)/N... frozen from the
        # reduced-inversion pipeline and confirmed rational at N = 9
        model = ring_coupling_profile(9, 0.5)
        np.testing.assert_allclose(
            model.g_by_distance, [4 / 9, 4 / 9, 4 / 9, -5 / 9], atol=1e-12
        )

    def test_profile_laplacian_reproduces_reduced_energy(self):
        # the distance-reduced Laplacian quadratic form must equal half the
        # increment energy of the first N-1 increments, for arbitrary x
        sites, hurst = 12, 0.4
        model = ring_coupling_profile(sites, hurst)
        lap = ring_laplacian_circulant(model).dense()
        energy = dense_inverse(ring_increment_cov(RingGeometry(sites), hurst)[: sites - 1, : sites - 1])
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

    def test_memory_is_linear_in_sites(self):
        tracemalloc.start()
        try:
            ring_coupling_profile(2048, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # a dense (N-1)^2 inverse alone takes 32 MB


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
    cov = ring_increment_cov(RingGeometry(sites), hurst)
    table = couplings_from_energy(dense_inverse(cov[: sites - 1, : sites - 1])).g
    idx = np.arange(sites)
    return np.array([table[idx, (idx + d) % sites].mean() for d in range(1, sites // 2 + 1)])


@pytest.mark.parametrize("hurst", [0.05, 0.2, 0.3, 0.45, 0.5, 0.55, 0.6, 0.65, 0.8])
@pytest.mark.parametrize("sites", [5, 6, 7, 8, 9, 12, 24, 61, 64, 128])
def test_closed_form_matches_dense_oracle(sites, hurst):
    try:
        expected = dense_ring_coupling_profile(sites, hurst)
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            ring_coupling_profile(sites, hurst)
        return
    got = ring_coupling_profile(sites, hurst).g_by_distance
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
