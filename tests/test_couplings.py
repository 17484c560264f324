import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmspring.couplings import (
    CouplingProfile,
    chain_coupling_matrix,
    coupling_laplacian,
    coupling_slice,
    couplings_from_energy,
    energy_from_couplings,
    position_and_increment_spectra,
)
from fbmspring.kernels import ChainModel, chain_increment_cov
from fbmspring.linalg import eigen_sym

from conftest import random_coupling_profile, random_symmetric


def forward_difference(x):
    return np.diff(x)


def pair_energy(g, x):
    """sum over ordered pairs of g_kl (x_k - x_l)^2."""
    diff = x[:, None] - x[None, :]
    return float((g * diff**2).sum())


@st.composite
def symmetric_matrices(draw, max_dim=10):
    n = draw(st.integers(1, max_dim))
    vals = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
    a = np.array(vals).reshape(n, n)
    return (a + a.T) / 2.0


class TestCouplingsFromEnergy:
    def test_single_increment(self):
        profile = couplings_from_energy(np.eye(1))
        assert profile.g[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_two_increments_identity(self):
        g = couplings_from_energy(np.eye(2)).g
        assert g[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert g[1, 2] == pytest.approx(0.5, abs=1e-15)
        assert g[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_table_exactly_symmetric_zero_diagonal(self, rng):
        profile = couplings_from_energy(random_symmetric(rng, 9))
        assert np.array_equal(profile.g, profile.g.T)
        assert np.array_equal(np.diag(profile.g), np.zeros(10))

    @given(symmetric_matrices())
    def test_ordered_sum_identity(self, a):
        n = a.shape[0]
        g = couplings_from_energy(a).g
        x = np.sin(1.0 + 3.0 * np.arange(n + 1.0))  # deterministic probe
        y = forward_difference(x)
        lhs = float(y @ a @ y)
        rhs = pair_energy(g, x)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_slices_equal_fancy_index_reference(self, rng):
        # the np.ix_ gathers that the slices replaced add the same values in the same order
        def reference(a):
            n = a.shape[0]
            padded = np.zeros((n + 2, n + 2))
            padded[1 : n + 1, 1 : n + 1] = a
            k = np.arange(n + 1)
            same = padded[np.ix_(k, k)] + padded[np.ix_(k + 1, k + 1)]
            cross = padded[np.ix_(k, k + 1)] + padded[np.ix_(k + 1, k)]
            g = -0.5 * (same - cross)
            np.fill_diagonal(g, 0.0)
            return g

        for n in (1, 2, 7, 60):
            a = random_symmetric(rng, n, scale=3.0)
            assert np.array_equal(couplings_from_energy(a).g, reference(a))

    def test_ordered_sum_identity_random_probes(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 11))
            a = random_symmetric(rng, n, scale=2.0)
            g = couplings_from_energy(a).g
            x = rng.normal(size=n + 1)
            y = forward_difference(x)
            lhs = float(y @ a @ y)
            rhs = pair_energy(g, x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestEnergyFromCouplings:
    def test_nearest_neighbor_springs(self):
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 0.5
        g[1, 2] = g[2, 1] = 0.5
        np.testing.assert_allclose(energy_from_couplings(CouplingProfile(g)), np.eye(2), atol=1e-15)

    def test_zero_profile(self):
        np.testing.assert_array_equal(
            energy_from_couplings(CouplingProfile(np.zeros((4, 4)))), np.zeros((3, 3))
        )

    def test_roundtrip_energy_to_couplings(self, rng):
        for n in (1, 2, 5, 10, 16):
            a = random_symmetric(rng, n, scale=3.0)
            back = energy_from_couplings(couplings_from_energy(a))
            assert np.abs(back - a).max() <= 1e-10

    def test_roundtrip_couplings_to_energy(self, rng):
        for size in (2, 4, 8):
            g = random_coupling_profile(rng, size)
            profile = CouplingProfile(g)
            back = couplings_from_energy(energy_from_couplings(profile))
            assert np.abs(back.g - g).max() <= 1e-10

    def test_output_exactly_symmetric(self, rng):
        a = energy_from_couplings(CouplingProfile(random_coupling_profile(rng, 7)))
        assert np.array_equal(a, a.T)


class TestCouplingLaplacian:
    def test_single_spring(self):
        g = np.array([[0.0, 0.5], [0.5, 0.0]])
        lap = coupling_laplacian(CouplingProfile(g))
        np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(eigen_sym(lap)[0], [0.0, 1.0], atol=1e-14)

    def test_zero_profile(self):
        lap = coupling_laplacian(CouplingProfile(np.zeros((3, 3))))
        np.testing.assert_array_equal(lap, np.zeros((3, 3)))

    def test_nearest_neighbor_chain_spectrum(self):
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 0.5
        g[1, 2] = g[2, 1] = 0.5
        w, _ = eigen_sym(coupling_laplacian(CouplingProfile(g)))
        np.testing.assert_allclose(w, [0.0, 0.5, 1.5], atol=1e-14)

    def test_zero_mode(self, rng):
        for size in (2, 6, 12):
            lap = coupling_laplacian(CouplingProfile(random_coupling_profile(rng, size)))
            assert np.array_equal(lap, (lap + lap.T) / 2)  # exactly symmetric, no averaging needed
            scale = max(np.abs(lap).max(), 1e-30)
            assert np.abs(lap @ np.ones(size)).max() <= 1e-10 * size * scale
            w, v = eigen_sym(lap)
            zero_idx = int(np.argmin(np.abs(w)))
            assert abs(w[zero_idx]) <= 1e-10 * size * scale
            overlap = abs(v[:, zero_idx] @ (np.ones(size) / np.sqrt(size)))
            assert overlap >= 1.0 - 1e-8

    def test_quadratic_form_is_unordered_pair_energy(self, rng):
        for _ in range(10):
            size = int(rng.integers(2, 9))
            g = random_coupling_profile(rng, size)
            lap = coupling_laplacian(CouplingProfile(g))
            x = rng.normal(size=size)
            lhs = float(x @ lap @ x)
            rhs = 0.5 * pair_energy(g, x)  # ordered sum counts each pair twice
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_half_increment_energy_bridge(self, rng):
        # with g derived from a, the position form is half the increment form
        for n in (1, 4, 9):
            a = random_symmetric(rng, n, scale=2.0)
            lap = coupling_laplacian(couplings_from_energy(a))
            x = rng.normal(size=n + 1)
            y = forward_difference(x)
            lhs = float(x @ lap @ x)
            rhs = 0.5 * float(y @ a @ y)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestCouplingSlice:
    def test_orders_partners_and_skips_center(self, rng):
        profile = CouplingProfile(random_coupling_profile(rng, 5))
        pairs = coupling_slice(profile, 2)
        assert [i for i, _ in pairs] == [0, 1, 3, 4]
        assert all(v == profile.g[2, i] for i, v in pairs)

    def test_out_of_range(self, rng):
        profile = CouplingProfile(random_coupling_profile(rng, 4))
        with pytest.raises(IndexError):
            coupling_slice(profile, 4)


class TestChainPipeline:
    def test_low_hurst_all_attractive(self):
        profile = chain_coupling_matrix(61, 0.3)
        center = 30
        values = [v for _, v in coupling_slice(profile, center)]
        assert min(values) > 0

    def test_high_hurst_nearest_attracts_second_repels(self):
        g = chain_coupling_matrix(61, 0.8).g
        assert g[30, 31] > 0
        assert g[30, 32] < 0

    def test_near_critical_third_coupling_vanishes(self):
        g = chain_coupling_matrix(61, 0.75964).g
        scale = np.abs(g).max()
        assert abs(g[30, 33]) < 1e-4 * scale
        assert abs(g[30, 27]) < 1e-4 * scale

    def test_slice_symmetric_about_center(self):
        g = chain_coupling_matrix(61, 0.7).g
        for j in range(1, 31):
            left, right = g[30, 30 - j], g[30, 30 + j]
            assert abs(left - right) <= 1e-10 * max(abs(left), abs(right), 1e-30)

    def test_brownian_chain_is_nearest_neighbor(self):
        g = chain_coupling_matrix(61, 0.5).g
        assert g[30, 31] == pytest.approx(0.5, abs=1e-10)
        assert abs(g[30, 32]) <= 1e-10

    def test_needs_no_dense_solver(self, monkeypatch):
        # the Toeplitz recursion alone, checked against a dense inverse taken beforehand
        inv = np.linalg.inv(chain_increment_cov(ChainModel(n=60, hurst=0.7)))
        expected = couplings_from_energy((inv + inv.T) / 2).g

        def fail(*args, **kwargs):
            raise AssertionError("dense solver called")

        for name in ("cholesky", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, fail)
        g = chain_coupling_matrix(61, 0.7).g
        assert np.abs(g - expected).max() <= 1e-13 * np.abs(expected).max()


class TestSpectraSideBySide:
    def test_reports_both_spectra_without_equating_them(self):
        a = np.eye(2)
        lap_spec, energy_spec = position_and_increment_spectra(a)
        np.testing.assert_allclose(lap_spec, [0.0, 0.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(energy_spec, [1.0, 1.0], atol=1e-12)


class TestProfileValidation:
    def test_rejects_nonzero_diagonal(self):
        g = np.eye(3)
        with pytest.raises(ValueError, match="zero diagonal"):
            CouplingProfile(g)

    def test_rejects_asymmetric(self):
        g = np.zeros((3, 3))
        g[0, 1] = 1.0
        with pytest.raises(ValueError):
            CouplingProfile(g)
