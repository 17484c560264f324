import dataclasses
import math

import numpy as np
import pytest

from fbmspring import sampling
from fbmspring.circulant import _half_spectrum
from fbmspring.errors import IndefiniteCovariance, QuadratureFailure
from fbmspring.kernels import chain_increment_row, ring_increment_row
from fbmspring.sampling import (
    TWO_PI,
    _circulant_rows,
    brownian_bridge_ring,
    covariance_bound,
    fourier_mode_energy,
    piecewise_ring_cov_matrix,
    reflected_brownian_ring,
    sample_circulant,
    sample_toeplitz,
    uniform_ring_grid,
)

from conftest import (
    circulant_dense,
    empirical_covariance,
    grid_increments,
    same_bits,
    toeplitz_dense,
    uniform_grid_increment_cov,
)


def chain_row(monomers, hurst):
    return chain_increment_row(monomers - 1, hurst)


def unit_draw_factor(sampler, row, n_modes, monkeypatch):
    """The sampler's linear map from its normals to a path, one row per normal.

    Feeding the sampler the identity matrix as its draws, one unit normal per
    path, turns each path into one row F_j of the factor, so that F.T @ F is
    the covariance the sampler draws from, with no sampling error.
    """
    monkeypatch.setattr(sampling, "_normals", lambda shape, seed: np.eye(shape[1]))
    return sampler(row, 2 * n_modes, 0).values


class TestStationarySamplers:
    """sample_circulant (ring rows) and sample_toeplitz (chain rows) against dense oracles."""

    def test_identity_covariance_recovered(self):
        row = np.array([1.0, 0.0, 0.0, 0.0])
        batch = sample_circulant(row, paths=40_000, seed=101)
        bound = covariance_bound(np.eye(4), 40_000)
        assert (np.abs(empirical_covariance(batch) - np.eye(4)) <= bound).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4096])
    def test_toeplitz_draws_are_those_of_the_concatenated_embedding(self, n):
        # the embedding (r_0..r_{n-1}, r_{n-2}..r_1) that kernels._mirror now lays out, of size 1 at n = 1
        row = chain_increment_row(n, 0.3)
        embedding = np.concatenate((row, row[-2:0:-1]))
        assert same_bits(sample_toeplitz(row, 5, 11).values, _circulant_rows(embedding, 5, 11)[:, :n])

    @pytest.mark.parametrize("sampler, row", [(sample_circulant, ring_increment_row(9, 0.3)),
                                              (sample_toeplitz, chain_row(9, 0.7))], ids=["ring", "chain"])
    def test_deterministic_per_seed(self, sampler, row):
        a = sampler(row, paths=50, seed=7)
        b = sampler(row, paths=50, seed=7)
        c = sampler(row, paths=50, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("monomers", [2, 3, 4, 9, 33])
    @pytest.mark.parametrize("hurst", [0.05, 0.5, 0.95, 1.0])
    def test_chain_factor_is_the_toeplitz_covariance(self, monkeypatch, monomers, hurst):
        n = monomers - 1
        factor = unit_draw_factor(sample_toeplitz, chain_row(monomers, hurst), max(2 * n - 2, 1) // 2 + 1, monkeypatch)
        cov = toeplitz_dense(chain_row(monomers, hurst))
        np.testing.assert_allclose(factor.T @ factor, cov, rtol=0, atol=1e-14 * n)

    @pytest.mark.parametrize("sites", [3, 4, 6, 17, 64])
    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5])
    def test_ring_factor_is_the_circulant_covariance(self, monkeypatch, sites, hurst):
        factor = unit_draw_factor(sample_circulant, ring_increment_row(sites, hurst), sites // 2 + 1, monkeypatch)
        cov = circulant_dense(ring_increment_row(sites, hurst))
        np.testing.assert_allclose(factor.T @ factor, cov, rtol=0, atol=1e-14 * sites)

    @pytest.mark.parametrize("monomers", [2, 3, 33])
    @pytest.mark.parametrize("hurst", [0.05, 0.5, 0.95])
    def test_chain_empirical_covariance_within_bound(self, monomers, hurst):
        cov = toeplitz_dense(chain_row(monomers, hurst))
        batch = sample_toeplitz(chain_row(monomers, hurst), paths=20_000, seed=monomers)
        assert batch.values.shape == (20_000, monomers - 1)
        assert (np.abs(empirical_covariance(batch) - cov) <= covariance_bound(cov, 20_000)).all()

    @pytest.mark.parametrize("sites", [3, 6, 17, 64])
    @pytest.mark.parametrize("hurst", [0.05, 0.5, 0.95])
    def test_ring_empirical_covariance_within_bound(self, sites, hurst):
        # a dense eigensolver decides whether the ring exists; above H = 1/2 most do not
        row = ring_increment_row(sites, hurst)
        cov = circulant_dense(row)
        smallest, tol = np.linalg.eigvalsh(cov)[0], _half_spectrum(row)[1]
        if smallest < -tol:
            with pytest.raises(IndefiniteCovariance) as info:
                sample_circulant(row, paths=10, seed=0)
            assert info.value.tol == tol
            assert info.value.min_eigenvalue == pytest.approx(smallest, rel=1e-12)
            return
        batch = sample_circulant(row, paths=20_000, seed=sites)
        assert (np.abs(empirical_covariance(batch) - cov) <= covariance_bound(cov, 20_000)).all()

    def test_brownian_hexagon_zero_mode_is_exact(self):
        batch = sample_circulant(ring_increment_row(6, 0.5), paths=5_000, seed=3)
        # antipodal pairs cancel: (1,0,0,1,0,0) spans a null direction
        null = np.array([1.0, 0, 0, 1.0, 0, 0]) / math.sqrt(2)
        projections = batch.values @ null
        assert np.abs(projections).max() <= 1e-15 * np.abs(batch.values).max()

    def test_samples_confined_to_covariance_range(self):
        cov = circulant_dense(ring_increment_row(8, 0.4))
        w, v = np.linalg.eigh(cov)
        batch = sample_circulant(ring_increment_row(8, 0.4), paths=2_000, seed=11)
        null_vectors = v[:, np.abs(w) <= 1e-9 * 8 * np.abs(cov).max()]
        assert null_vectors.shape[1] >= 1
        components = batch.values @ null_vectors
        assert np.abs(components).max() <= 1e-15 * np.abs(batch.values).max()

    def test_rigid_rod_moves_as_one(self):
        # at H = 1 every increment covariance is 1: each path repeats one step
        values = sample_toeplitz(chain_row(7, 1.0), paths=100, seed=4).values
        assert np.array_equal(values, np.repeat(values[:, :1], 6, axis=1))
        assert values[:, 0].std() == pytest.approx(1.0, abs=0.3)

    def test_indefinite_covariance_rejected(self):
        row = ring_increment_row(8, 0.8)
        with pytest.raises(IndefiniteCovariance) as info:
            sample_circulant(row, paths=10, seed=0)
        assert info.value.min_eigenvalue < -info.value.tol < 0
        # the FFT's rounding rule of every circulant spectrum in the package, not a matrix tolerance
        assert info.value.tol == _half_spectrum(row)[1] == 64 * 2.0**-52 * 3 * np.abs(row).sum()
        assert info.value.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(circulant_dense(row))[0], rel=1e-12)
        assert str(info.value) == (f"cannot sample: covariance is indefinite: smallest eigenvalue "
                                   f"{info.value.min_eigenvalue:.6e}, tolerance {info.value.tol:.6e}")

    def test_small_positive_modes_carry_variance(self):
        # at H = 0.01 a 65536-site ring has modes with mu_m of a few 1e-6; a matrix tolerance
        # (1e-9 N max|c| = 6.6e-5) would zero them, the FFT rounding rule keeps them
        row = ring_increment_row(65536, 0.01)
        mu, tol = _half_spectrum(row)
        assert tol < 1e-12 < mu[1] < 1e-5
        values = sample_circulant(row, paths=8, seed=0).values
        # E|rfft(x)_m|^2 = N mu_m: the mean over 8 paths is a chi-square of 16 degrees over 16
        power = np.abs(np.fft.rfft(values, axis=1)[:, 1]) ** 2 / (row.size * mu[1])
        assert 0.25 < power.mean() < 4.0

    def test_indefinite_embedding_rejected(self):
        # tridiag(0.6, 1, 0.6) is positive definite, its embedding (1, 0.6, 0, 0.6) has mode 2 at -0.2
        with pytest.raises(IndefiniteCovariance):
            sample_toeplitz(np.array([1.0, 0.6, 0.0]), paths=10, seed=0)

    @pytest.mark.parametrize("sampler, row", [
        (sample_circulant, ring_increment_row(6, 0.5)),
        (sample_circulant, ring_increment_row(64, 0.3)),
        (sample_circulant, ring_increment_row(17, 0.05)),
        (sample_toeplitz, chain_row(33, 0.7)),
        (sample_toeplitz, chain_row(2, 0.3)),
        (sample_toeplitz, chain_row(9, 1.0)),
    ], ids=["ring6", "ring64", "ring17", "chain33", "chain2", "rod9"])
    def test_last_bits_of_the_row_do_not_redraw(self, sampler, row):
        # the draws follow the row through its spectrum, with no basis chosen inside degenerate modes
        a = sampler(row, paths=200, seed=5).values
        b = sampler(row * (1.0 + 2.0**-52), paths=200, seed=5).values
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_batch_shape_and_tag(self):
        # a batch carries its values only: no seed, model tag or derived sizes
        batch = sample_toeplitz(chain_row(4, 0.3), paths=17, seed=0)
        assert batch.values.shape == (17, 3) and batch.values.flags.c_contiguous
        assert [field.name for field in dataclasses.fields(batch)] == ["values"]
        assert sample_circulant(ring_increment_row(5, 0.3), paths=17, seed=0).values.shape == (17, 5)

    def test_rows_and_paths_validated(self):
        with pytest.raises(ValueError, match=r"c\[k\] == c\[N-k\]"):
            sample_circulant(np.array([2.0, 1.0, 0.0]), paths=3, seed=0)
        for sampler in (sample_circulant, sample_toeplitz):
            with pytest.raises(ValueError, match="nonempty 1-d"):
                sampler(np.eye(3), paths=3, seed=0)
            with pytest.raises(ValueError, match="nonempty 1-d"):
                sampler(np.array([]), paths=3, seed=0)
        # every sampler draws through one normal stream, which checks the path count
        models = ((sample_circulant, np.ones(1)), (sample_toeplitz, np.ones(1)),
                  (reflected_brownian_ring, uniform_ring_grid(4)), (brownian_bridge_ring, uniform_ring_grid(4)))
        for sampler, model in models:
            for paths in (0, -1):
                with pytest.raises(ValueError, match=r"^paths must be >= 1$"):
                    sampler(model, paths=paths, seed=0)


def pair_cov(s, t):
    """Covariance of one pair of times, as the matrix on the grid (s, t) gives it."""
    return piecewise_ring_cov_matrix(np.array([s, t]))[0, 1]


class TestPiecewiseCov:
    def test_first_half_branch(self):
        assert pair_cov(1.0, 2.0) == 1.0

    def test_decorrelated_branch(self):
        assert pair_cov(2.0, 5.5) == 0.0

    def test_second_half_branch(self):
        assert pair_cov(4.0, 5.0) == pytest.approx(TWO_PI - 5.0, abs=1e-15)

    def test_straddle_branch(self):
        assert pair_cov(math.pi / 2, math.pi) == pytest.approx(math.pi / 2, abs=1e-15)
        assert pair_cov(math.pi / 2, 3 * math.pi / 2) == 0.0

    def test_symmetry_and_pinning(self):
        for s, t in [(0.3, 5.1), (2.0, 2.5), (4.4, 6.0)]:
            assert pair_cov(s, t) == pair_cov(t, s)
        grid = np.linspace(0, TWO_PI, 17)
        cov = piecewise_ring_cov_matrix(grid)
        assert np.array_equal(cov, cov.T)
        assert not cov[0].any() and not cov[:, 0].any()

    def test_matches_geodesic_polarization(self):
        # (d(s,0) + d(t,0) - d(s,t)) / 2 with the arc geodesic distance
        def arc(x):
            r = abs(x) % TWO_PI
            return min(r, TWO_PI - r)

        grid = np.linspace(0.0, TWO_PI, 25)
        polar = [[(arc(s) + arc(t) - arc(s - t)) / 2.0 for t in grid] for s in grid]
        np.testing.assert_allclose(piecewise_ring_cov_matrix(grid), polar, rtol=0, atol=1e-12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            pair_cov(-0.1, 1.0)
        with pytest.raises(ValueError):
            pair_cov(1.0, 7.0)

    def test_matrix_rejects_nan_time(self):
        with pytest.raises(ValueError, match="finite"):
            piecewise_ring_cov_matrix(np.array([1.0, math.nan, 6.0]))


class TestReflectedRing:
    def test_closes_exactly(self):
        grid = np.array([TWO_PI])
        batch = reflected_brownian_ring(grid, paths=200, seed=5)
        assert np.array_equal(batch.values, np.zeros((200, 1)))

    def test_start_pinned(self):
        batch = reflected_brownian_ring(np.array([0.0, 1.0]), paths=50, seed=5)
        assert np.array_equal(batch.values[:, 0], np.zeros(50))

    def test_empirical_covariance_matches_piecewise(self):
        grid = uniform_ring_grid(12)
        paths = 40_000
        batch = reflected_brownian_ring(grid, paths=paths, seed=2024)
        emp = empirical_covariance(batch)
        model = piecewise_ring_cov_matrix(grid)
        bound = covariance_bound(model, paths)
        assert (np.abs(emp - model) <= bound + 1e-14).all()

    def test_specific_entries(self):
        grid = np.array([math.pi / 2, math.pi, 3 * math.pi / 2])
        paths = 60_000
        batch = reflected_brownian_ring(grid, paths=paths, seed=77)
        emp = empirical_covariance(batch)
        assert emp[0, 1] == pytest.approx(math.pi / 2, abs=0.06)
        assert emp[0, 2] == pytest.approx(0.0, abs=0.06)

    def test_grid_range_validated(self):
        with pytest.raises(ValueError, match="grid out of range"):
            reflected_brownian_ring(np.array([1.0, 6.9]), paths=10, seed=0)

    @pytest.mark.parametrize("sampler", [reflected_brownian_ring, brownian_bridge_ring])
    def test_empty_grid_rejected(self, sampler):
        with pytest.raises(ValueError, match="t_grid must be a nonempty 1-d array"):
            sampler(np.array([]), paths=10, seed=0)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            reflected_brownian_ring(np.array([1.0, math.nan, 6.0]), paths=10, seed=0)

    def test_increments_match_ring_model_circulant(self):
        # stationarity on a uniform grid: the empirical lag covariance matches
        # the circulant predicted by the periodic model
        n = 12
        paths = 40_000
        batch = reflected_brownian_ring(uniform_ring_grid(n), paths=paths, seed=31)
        inc = grid_increments(batch)
        emp = inc.T @ inc / paths
        model = uniform_grid_increment_cov(n, hurst=0.5)
        bound = covariance_bound(model, paths)
        assert (np.abs(emp - model) <= bound + 1e-14).all()


class TestBridgeNegativeControl:
    def test_bridge_closes_but_has_wrong_increment_covariance(self):
        n = 16
        paths = 40_000
        grid = uniform_ring_grid(n)
        batch = brownian_bridge_ring(grid, paths=paths, seed=404)
        assert np.abs(batch.values[:, -1]).max() == 0.0  # closes exactly
        inc = grid_increments(batch)
        emp = inc.T @ inc / paths
        # consistent with its own exact covariance h*I - h^2/(2 pi)
        h = TWO_PI / n
        own = h * np.eye(n) - h * h / TWO_PI
        own_bound = covariance_bound(own, paths)
        assert (np.abs(emp - own) <= own_bound + 1e-14).all()
        # but far outside the periodic-model circulant at the antipodal lag
        model = uniform_grid_increment_cov(n, hurst=0.5)
        bound = covariance_bound(model, paths)
        assert (np.abs(emp - model) > 10.0 * bound).any()

    def test_bridge_grid_validated(self):
        with pytest.raises(ValueError, match="grid out of range"):
            brownian_bridge_ring(np.array([-0.2]), paths=5, seed=0)

    def test_bridge_nan_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            brownian_bridge_ring(np.array([1.0, math.nan, 6.0]), paths=5, seed=0)


class TestUniformGridCov:
    def test_scaling_against_integer_ring(self):
        # arc-length grid covariance is the integer-ring covariance rescaled
        # by the spacing to the power 2H
        for n, hurst in [(8, 0.5), (12, 0.3), (9, 0.45)]:
            arc_cov = uniform_grid_increment_cov(n, hurst)
            integer_cov = circulant_dense(ring_increment_row(n, hurst))
            scale = (TWO_PI / n) ** (2 * hurst)
            np.testing.assert_allclose(arc_cov, scale * integer_cov, atol=1e-12)

    def test_brownian_structure(self):
        n = 16
        cov = uniform_grid_increment_cov(n, 0.5)
        h = TWO_PI / n
        expected = np.zeros(n)
        expected[0], expected[n // 2] = h, -h
        np.testing.assert_allclose(cov[0], expected, atol=1e-13)


def _loop_wiener(stops, paths, seed):
    z = np.random.Generator(np.random.Philox(key=seed)).standard_normal((paths, stops.size))
    return np.cumsum(z * np.sqrt(np.diff(np.concatenate(([0.0], stops)))), axis=1)


def loop_reflected(t_grid, paths, seed):
    """Per-column reference for reflected_brownian_ring."""
    source = np.where(t_grid <= math.pi, t_grid, t_grid - math.pi)
    stops = np.unique(np.concatenate((source[source > 0.0], [math.pi])))
    wiener = _loop_wiener(stops, paths, seed)
    half = wiener[:, np.searchsorted(stops, math.pi)]
    values = np.empty((paths, t_grid.size))
    for j, t in enumerate(t_grid):
        if t <= math.pi:
            values[:, j] = wiener[:, np.searchsorted(stops, t)] if t > 0.0 else 0.0
        else:
            values[:, j] = half - wiener[:, np.searchsorted(stops, t - math.pi)]
    return values


def loop_piecewise_cov(s, t):
    """Per-pair reference for piecewise_ring_cov_matrix, one branch at a time."""
    s, t = min(s, t), max(s, t)
    if t <= math.pi:
        return s
    if s >= math.pi:
        return TWO_PI - t
    return max(math.pi + s - t, 0.0)


def loop_bridge(t_grid, paths, seed):
    """Per-column reference for brownian_bridge_ring."""
    stops = np.unique(np.concatenate((t_grid[t_grid > 0.0], [TWO_PI])))
    wiener = _loop_wiener(stops, paths, seed)
    values = np.empty((paths, t_grid.size))
    for j, t in enumerate(t_grid):
        base = wiener[:, np.searchsorted(stops, t)] if t > 0.0 else 0.0
        values[:, j] = base - (t / TWO_PI) * wiener[:, -1]
    return values


@pytest.mark.parametrize("n", [8, 12, 64, 256])
def test_vectorized_ring_paths_equal_loop_references(n):
    # the grid also carries t = 0, t = pi and a repeated time
    grid = np.concatenate(([0.0, math.pi], uniform_ring_grid(n), [1.0, 1.0]))
    assert np.array_equal(reflected_brownian_ring(grid, 30, n).values, loop_reflected(grid, 30, n))
    assert np.array_equal(brownian_bridge_ring(grid, 30, n).values, loop_bridge(grid, 30, n))
    loop_cov = np.array([[loop_piecewise_cov(s, t) for t in grid] for s in grid])
    assert np.array_equal(piecewise_ring_cov_matrix(grid), loop_cov)


def full_size_wiener_at(times, paths, seed):
    """``_wiener_at`` before it scaled the draws in place."""
    z = np.random.Generator(np.random.Philox(key=seed)).standard_normal((paths, times.size - 1))
    wiener = np.zeros((paths, times.size))
    np.cumsum(z * np.sqrt(np.diff(times)), axis=1, out=wiener[:, 1:])
    return wiener


def full_size_reflected(t_grid, paths, seed):
    """``reflected_brownian_ring`` before it subtracted in place: np.where over two full arrays."""
    source = np.where(t_grid <= math.pi, t_grid, t_grid - math.pi)
    times = np.unique(np.concatenate(([0.0, math.pi], source)))
    wiener = full_size_wiener_at(times, paths, seed)
    half = wiener[:, np.searchsorted(times, math.pi), None]
    at_source = wiener[:, np.searchsorted(times, source)]
    return np.where(t_grid <= math.pi, at_source, half - at_source)


@pytest.mark.parametrize("paths", [1, 7, 1000])
@pytest.mark.parametrize("n", [8, 13, 64, 256])
def test_in_place_paths_equal_full_size_formulas(n, paths):
    grid = uniform_ring_grid(n)
    times = np.unique(np.concatenate(([0.0], grid)))
    assert np.array_equal(sampling._wiener_at(times, paths, n), full_size_wiener_at(times, paths, n))
    assert np.array_equal(reflected_brownian_ring(grid, paths, n).values, full_size_reflected(grid, paths, n))


class TestFourierModeEnergy:
    def test_even_modes_vanish_at_half(self):
        for mode in (2, 4, 6, 8):
            assert abs(fourier_mode_energy(0.5, mode)) < 1e-9

    def test_fundamental_mode_closed_form(self):
        assert fourier_mode_energy(0.5, 1) == pytest.approx(8 * math.pi**2, rel=1e-12)

    def test_third_mode_closed_form(self):
        assert fourier_mode_energy(0.5, 3) == pytest.approx(8 * math.pi**2 / 81, rel=1e-12)

    def test_semi_positive_for_low_hurst(self):
        for hurst in (0.2, 0.35, 0.5):
            for mode in range(1, 21):
                assert fourier_mode_energy(hurst, mode) >= -1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_mode_energy(0.0, 1)
        with pytest.raises(ValueError):
            fourier_mode_energy(0.5, 0)

    def test_failure_reports_tolerance(self, monkeypatch):
        monkeypatch.setattr(sampling, "MODE_ENERGY_TOL", 1e-30)
        with pytest.raises(QuadratureFailure) as info:
            fourier_mode_energy(0.31, 6)
        assert info.value.tol == 1e-30 < info.value.error

    def test_closed_form_failure_reports_tolerance(self, monkeypatch):
        # the error estimate is eps times the continued fraction's weight in the value
        message = r"^Fourier mode energy error estimate .* exceeds tolerance 1\.000e-30$"
        value = fourier_mode_energy(0.31, 7)
        assert sampling.MODE_ENERGY_TOL == 1e-10
        monkeypatch.setattr(sampling, "MODE_ENERGY_TOL", 1e-30)
        with pytest.raises(QuadratureFailure, match=message) as info:
            fourier_mode_energy(0.31, 7)
        assert 1e-30 < info.value.error < 1e-10
        assert info.value.estimate == value

    @pytest.mark.parametrize("mode", [1, 2, 3, 6, 7, 8, 12, 100, 2000])
    def test_closed_form_matches_mpmath(self, mode):
        mp = pytest.importorskip("mpmath")
        for hurst in [*np.arange(1, 21) / 20, 0.001, 0.005, 0.499, 0.501, 0.999]:
            with mp.workdps(40):  # the power series of the integral, summed by mpmath's 1F2
                a = mp.mpf(2.0 * hurst)
                series = mp.hyp1f2((a + 1) / 2, 0.5, (a + 3) / 2, -((mode * mp.pi) ** 2) / 4)
                integral = mp.pi ** (a + 1) / (a + 1) * series
                expected = -4 * mp.pi**2 / mp.mpf(mode) ** (a + 1) * integral
                assert abs(fourier_mode_energy(float(hurst), mode) - expected) <= 1e-12, hurst

    def test_exhausted_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MAX_FRACTION_TERMS", 1)
        for hurst in (0.3, 0.5):  # at H = 1/2 the value is exact, but the fraction still ran out
            with pytest.raises(QuadratureFailure):
                fourier_mode_energy(hurst, 1)

    def test_closed_form_is_exact_at_integer_exponents(self):
        # H = 1/2 and H = 1: the factor a - 1 removes the continued fraction (H = 1/2), or the
        # fraction ends after its first term (H = 1)
        for mode in range(1, 40):
            assert fourier_mode_energy(0.5, mode) == pytest.approx(8 * math.pi**2 / mode**4 if mode % 2 else 0.0,
                                                                   rel=1e-15, abs=0.0)
            expected = (1 if mode % 2 else -1) * 8 * math.pi**3 / mode**5
            assert fourier_mode_energy(1.0, mode) == pytest.approx(expected, rel=1e-14)
        assert math.copysign(1.0, fourier_mode_energy(0.5, 8)) == 1.0


class TestHelpers:
    def test_uniform_grid_endpoint(self):
        grid = uniform_ring_grid(8)
        assert grid[-1] == TWO_PI
        assert grid[0] == pytest.approx(TWO_PI / 8)
        # TWO_PI * n / n rounds one ulp above 2*pi at n = 13, 26, 47, ...
        for n in range(2, 1025):
            grid = uniform_ring_grid(n)
            assert grid[-1] == TWO_PI
            assert np.array_equal(grid[:-1], TWO_PI * np.arange(1, n) / n)

    def test_covariance_bound_formula(self):
        cov = np.array([[2.0, 1.0], [1.0, 3.0]])
        bound = covariance_bound(cov, paths=100)  # five sigma
        assert bound[0, 1] == pytest.approx(5 * math.sqrt((2 * 3 + 1) / 100))
        assert bound[0, 0] == pytest.approx(5 * math.sqrt((4 + 4) / 100))


@pytest.mark.parametrize("n", [8, 13, 64, 256])
def test_sorted_unique_equals_np_unique(n):
    grid = np.concatenate(([0.0, math.pi, TWO_PI], uniform_ring_grid(n), [1.0, 1.0, math.pi]))
    source = np.where(grid <= math.pi, grid, grid - math.pi)
    for times in (np.concatenate(([0.0, math.pi], source)), np.concatenate(([0.0, TWO_PI], grid))):
        assert sampling._sorted_unique(times).tobytes() == np.unique(times).tobytes()


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("sampler", [reflected_brownian_ring, brownian_bridge_ring])
@pytest.mark.parametrize("n, chunks", [(13, [1, 6, 200, 3]), (64, [1000, 1, 77]), (256, [2, 40])])
def test_one_generator_continues_the_seeded_batch(sampler, n, chunks):
    grid = np.concatenate(([0.0, math.pi], uniform_ring_grid(n)))
    rng = philox(n)
    parts = [sampler(grid, rows, rng).values for rows in chunks]
    assert np.array_equal(np.concatenate(parts), sampler(grid, sum(chunks), n).values)


@pytest.mark.parametrize("sampler, row", [
    (sample_circulant, ring_increment_row(6, 0.5)),
    (sample_circulant, ring_increment_row(9, 0.3)),
    (sample_toeplitz, chain_row(65, 0.7)),
    (sample_toeplitz, chain_row(2, 0.3)),
], ids=["ring6", "ring9", "chain65", "chain2"])
def test_one_generator_continues_the_stationary_draws(sampler, row):
    rng = philox(11)
    parts = [sampler(row, rows, rng).values for rows in (1, 999, 38)]
    assert np.array_equal(np.concatenate(parts), sampler(row, 1038, 11).values)
