import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmspring.couplings import (
    chain_coupling_matrix,
    chain_coupling_rows,
    coupling_laplacian,
    coupling_slice,
    couplings_from_energy,
    energy_from_couplings,
)
from fbmspring.kernels import chain_increment_row
from fbmspring import linalg

from conftest import (
    exact_chain_row,
    extended_center_couplings,
    inverse_table,
    random_coupling_profile,
    random_symmetric,
    same_bits,
    toeplitz_dense,
)


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
        g = couplings_from_energy(np.eye(1))
        assert g[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_two_increments_identity(self):
        g = couplings_from_energy(np.eye(2))
        assert g[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert g[1, 2] == pytest.approx(0.5, abs=1e-15)
        assert g[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_table_exactly_symmetric_zero_diagonal(self, rng):
        g = couplings_from_energy(random_symmetric(rng, 9))
        assert np.array_equal(g, g.T)
        assert np.array_equal(np.diag(g), np.zeros(10))

    @given(symmetric_matrices())
    def test_ordered_sum_identity(self, a):
        n = a.shape[0]
        g = couplings_from_energy(a)
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
            assert np.array_equal(couplings_from_energy(a), reference(a))

    def test_ordered_sum_identity_random_probes(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 11))
            a = random_symmetric(rng, n, scale=2.0)
            g = couplings_from_energy(a)
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
        np.testing.assert_allclose(energy_from_couplings(g), np.eye(2), atol=1e-15)

    def test_zero_profile(self):
        np.testing.assert_array_equal(
            energy_from_couplings(np.zeros((4, 4))), np.zeros((3, 3))
        )

    def test_single_monomer_has_no_increments(self):
        assert energy_from_couplings(np.zeros((1, 1))).shape == (0, 0)

    def test_roundtrip_energy_to_couplings(self, rng):
        for n in (1, 2, 5, 10, 16):
            a = random_symmetric(rng, n, scale=3.0)
            back = energy_from_couplings(couplings_from_energy(a))
            assert np.abs(back - a).max() <= 1e-10

    def test_roundtrip_couplings_to_energy(self, rng):
        for size in (2, 4, 8):
            g = random_coupling_profile(rng, size)
            back = couplings_from_energy(energy_from_couplings(g))
            assert np.abs(back - g).max() <= 1e-10

    def test_output_exactly_symmetric(self, rng):
        a = energy_from_couplings(random_coupling_profile(rng, 7))
        assert np.array_equal(a, a.T)


class TestCouplingLaplacian:
    def test_single_spring(self):
        g = np.array([[0.0, 0.5], [0.5, 0.0]])
        lap = coupling_laplacian(g)
        np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(lap), [0.0, 1.0], atol=1e-14)

    def test_is_diag_of_row_sums_minus_the_table(self, rng):
        for size in (1, 2, 7, 64):
            g = random_coupling_profile(rng, size)
            before = g.copy()
            assert same_bits(coupling_laplacian(g), np.diag(g.sum(axis=1)) - g)
            assert same_bits(g, before)  # the caller's table is left as it was

    def test_zero_profile(self):
        lap = coupling_laplacian(np.zeros((3, 3)))
        np.testing.assert_array_equal(lap, np.zeros((3, 3)))

    def test_nearest_neighbor_chain_spectrum(self):
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 0.5
        g[1, 2] = g[2, 1] = 0.5
        w = np.linalg.eigvalsh(coupling_laplacian(g))
        np.testing.assert_allclose(w, [0.0, 0.5, 1.5], atol=1e-14)

    def test_zero_mode(self, rng):
        for size in (2, 6, 12):
            lap = coupling_laplacian(random_coupling_profile(rng, size))
            assert np.array_equal(lap, (lap + lap.T) / 2)  # exactly symmetric, no averaging needed
            scale = max(np.abs(lap).max(), 1e-30)
            assert np.abs(lap @ np.ones(size)).max() <= 1e-10 * size * scale
            w, v = np.linalg.eigh(lap)
            zero_idx = int(np.argmin(np.abs(w)))
            assert abs(w[zero_idx]) <= 1e-10 * size * scale
            overlap = abs(v[:, zero_idx] @ (np.ones(size) / np.sqrt(size)))
            assert overlap >= 1.0 - 1e-8

    def test_quadratic_form_is_unordered_pair_energy(self, rng):
        for _ in range(10):
            size = int(rng.integers(2, 9))
            g = random_coupling_profile(rng, size)
            lap = coupling_laplacian(g)
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
        g = random_coupling_profile(rng, 5)
        pairs = coupling_slice(g, 2)
        assert [i for i, _ in pairs] == [0, 1, 3, 4]
        assert all(v == g[2, i] for i, v in pairs)

    def test_out_of_range(self, rng):
        g = random_coupling_profile(rng, 4)
        with pytest.raises(IndexError):
            coupling_slice(g, 4)
        # on a 61-monomer table the kernels owner of "this index lies on the chain" words the error
        g = chain_coupling_matrix(61, 0.3)
        for center in (61, -1):
            with pytest.raises(IndexError, match=rf"^center {center} outside 0\.\.60$"):
                coupling_slice(g, center)
        assert len(coupling_slice(g, 60)) == 60


class TestChainPipeline:
    def test_low_hurst_all_attractive(self):
        g = chain_coupling_matrix(61, 0.3)
        center = 30
        values = [v for _, v in coupling_slice(g, center)]
        assert min(values) > 0

    def test_high_hurst_nearest_attracts_second_repels(self):
        g = chain_coupling_matrix(61, 0.8)
        assert g[30, 31] > 0
        assert g[30, 32] < 0

    def test_near_critical_third_coupling_vanishes(self):
        g = chain_coupling_matrix(61, 0.75964)
        scale = np.abs(g).max()
        assert abs(g[30, 33]) < 1e-4 * scale
        assert abs(g[30, 27]) < 1e-4 * scale

    def test_slice_symmetric_about_center(self):
        g = chain_coupling_matrix(61, 0.7)
        for j in range(1, 31):
            left, right = g[30, 30 - j], g[30, 30 + j]
            assert abs(left - right) <= 1e-10 * max(abs(left), abs(right), 1e-30)

    def test_brownian_chain_is_nearest_neighbor(self):
        g = chain_coupling_matrix(61, 0.5)
        assert g[30, 31] == pytest.approx(0.5, abs=1e-10)
        assert abs(g[30, 32]) <= 1e-10

    def test_needs_no_dense_solver(self, monkeypatch):
        # the Toeplitz recursion alone, checked against a dense inverse taken beforehand
        inv = np.linalg.inv(toeplitz_dense(chain_increment_row(60, 0.7)))
        expected = couplings_from_energy((inv + inv.T) / 2)

        def fail(*args, **kwargs):
            raise AssertionError("dense solver called")

        for name in ("cholesky", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, fail)
        g = chain_coupling_matrix(61, 0.7)
        assert np.abs(g - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("monomers", [3, 61, 1025])
    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.9])
    def test_chain_table_is_exactly_symmetric_with_zero_diagonal(self, monomers, hurst):
        # the pipeline checks nothing after the Gohberg-Semencul inverse; this pins what it relies on
        g = chain_coupling_matrix(monomers, hurst)
        assert g.shape == (monomers, monomers)
        assert np.array_equal(g, g.T)
        assert not np.diag(g).any()

def padded_table(a):
    """The coupling formula on a whole zero-padded energy matrix, in one step, with a zero diagonal."""
    p = np.pad(a, 1)
    g = p[:-1, :-1] + p[1:, 1:]
    g -= p[:-1, 1:] + p[1:, :-1]
    g *= -0.5
    np.fill_diagonal(g, 0.0)
    return g


def chain_coupling_row(monomers, hurst, center):
    return chain_coupling_rows(monomers, hurst, center, center + 1)[0]


class TestChainCouplingRow:
    """One row from two energy rows: the same bits as the table, without building it."""

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_every_center_of_short_chains_equals_the_table(self, hurst):
        for monomers in range(2, 41):
            g = chain_coupling_matrix(monomers, hurst)
            for center in range(monomers):
                assert same_bits(chain_coupling_row(monomers, hurst, center), g[center]), (monomers, center)

    @pytest.mark.parametrize("monomers, hurst", [(61, 0.3), (257, 0.7), (513, 0.05), (1025, 0.9)])
    def test_long_chains_equal_the_table(self, monomers, hurst):
        g = chain_coupling_matrix(monomers, hurst)
        for center in (0, 1, monomers // 3, (monomers - 1) // 2, monomers - 2, monomers - 1):
            assert same_bits(chain_coupling_row(monomers, hurst, center), g[center]), center

    @pytest.mark.parametrize("hurst, attractive", [
        (0.3, 1024), (0.5, 2), (0.55, 24), (0.7, 70), (0.9, 98), (0.95, 102),
    ])
    def test_center_signs_match_extended_precision(self, hurst, attractive):
        # every partner attracts below H = 1/2, only the nearest two at 1/2, and most repel above it;
        # the cancelling row of earlier versions got 2, 60 and 166 of the signs at 0.7, 0.9 and 0.95
        # wrong (68, 126 and 188 attractive partners)
        monomers, center = 1025, 512
        g = np.delete(chain_coupling_row(monomers, hurst, center), center)
        oracle = np.delete(extended_center_couplings(exact_chain_row(monomers - 1, hurst), center), center)
        assert np.array_equal(g > 0, oracle > 0) and np.count_nonzero(g > 0) == attractive
        assert np.array_equal(g < 0, oracle < 0)

    def test_checks_hurst_and_center(self):
        with pytest.raises(ValueError, match="chain couplings need 0 < hurst < 1"):
            chain_coupling_rows(11, 1.0, 5, 6)
        with pytest.raises(IndexError, match=r"rows 11\.\.12 outside 0\.\.11"):
            chain_coupling_rows(11, 0.4, 11, 12)
        with pytest.raises(IndexError):
            chain_coupling_rows(11, 0.4, -1, 0)
        with pytest.raises(IndexError, match=r"rows 6\.\.5 outside 0\.\.11"):
            chain_coupling_rows(11, 0.4, 6, 5)
        with pytest.raises(ValueError, match="^a chain needs at least 2 monomers$"):
            chain_coupling_rows(1, 0.4, 0, 1)


class TestChainCouplingRows:
    """Any contiguous band of rows is the same bits as those rows of the table."""

    @pytest.mark.parametrize("monomers", [*range(2, 18), 65])
    def test_every_band_equals_the_table(self, monomers):
        for hurst in (0.3, 0.7):
            g = chain_coupling_matrix(monomers, hurst)
            for start in range(monomers + 1):
                for stop in range(start, monomers + 1):
                    band = chain_coupling_rows(monomers, hurst, start, stop)
                    assert same_bits(band, g[start:stop]), (hurst, start, stop)

    @pytest.mark.parametrize("monomers, hurst", [(2, 0.5), (61, 0.3), (600, 0.7)])
    def test_streamed_table_equals_the_whole_padded_formula(self, rng, monomers, hurst):
        energy = inverse_table(chain_increment_row(monomers - 1, hurst))
        assert same_bits(chain_coupling_matrix(monomers, hurst), padded_table(energy))
        assert same_bits(couplings_from_energy(energy), padded_table(energy))
        # a dense energy matrix with no Toeplitz structure goes through the same row builder
        a = random_symmetric(rng, monomers - 1)
        assert same_bits(couplings_from_energy(a), padded_table(a))

    def test_half_band_holds_the_band_and_a_few_rows(self):
        # the leading half of a spectrum's rows; every energy row beside it is dropped once it is used
        monomers = 1025
        chain_coupling_rows(5, 0.7, 0, 3)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            band = chain_coupling_rows(monomers, 0.7, 0, monomers - monomers // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= band.nbytes + 16 * (monomers + 2) * 8, peak / 2**20


class TestSpectraSideBySide:
    def test_reports_both_spectra_without_equating_them(self):
        a = np.eye(2)
        lap_spec = np.linalg.eigvalsh(coupling_laplacian(couplings_from_energy(a)))
        np.testing.assert_allclose(lap_spec, [0.0, 0.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(a), [1.0, 1.0], atol=1e-12)


class TestProfileValidation:
    """Every function that takes a coupling table checks it: square, exactly symmetric, zero diagonal."""

    CONSUMERS = (energy_from_couplings, coupling_laplacian, lambda g: coupling_slice(g, 0))

    def test_rejects_nonzero_diagonal(self):
        for consume in self.CONSUMERS:
            with pytest.raises(ValueError, match="coupling table must have a zero diagonal"):
                consume(np.eye(3))

    def test_rejects_asymmetric(self):
        g = np.zeros((3, 3))
        g[0, 1] = 1.0
        for consume in self.CONSUMERS:
            with pytest.raises(ValueError, match=r"matrix is not symmetric \(max \|a - a.T\| = 1.000e\+00\)"):
                consume(g)
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            couplings_from_energy(g)

    def test_rejects_non_square(self):
        for consume in (*self.CONSUMERS, couplings_from_energy):
            with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
                consume(np.zeros((2, 3)))


class TestCheckedOnce:
    """Each call checks what its caller passes once, and nothing it built itself."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        require_symmetric = linalg.require_symmetric

        def counted(a):
            calls.append(np.shape(a))
            return require_symmetric(a)

        monkeypatch.setattr(linalg, "require_symmetric", counted)
        return calls

    def test_chain_pipeline_checks_nothing(self, checks):
        chain_coupling_matrix(61, 0.7)
        chain_coupling_rows(61, 0.7, 0, 31)
        assert checks == []

    @pytest.mark.parametrize("call", [
        lambda: couplings_from_energy(np.eye(5)),
        lambda: energy_from_couplings(np.zeros((5, 5))),
        lambda: coupling_laplacian(np.zeros((5, 5))),
        lambda: coupling_slice(np.zeros((5, 5)), 2),
    ], ids=["couplings_from_energy", "energy_from_couplings", "coupling_laplacian", "coupling_slice"])
    def test_one_check_per_input(self, checks, call):
        call()
        assert checks == [(5, 5)]
