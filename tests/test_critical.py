import math
import re
import tracemalloc

import numpy as np
import pytest

from fbmspring import critical
from fbmspring.couplings import chain_coupling_matrix
from fbmspring.critical import _bisect, coupling_at, find_critical_hurst
from fbmspring.errors import NoSignChange

from conftest import same_bits


class TestCouplingAt:
    def test_low_hurst_nearest_attracts(self):
        assert coupling_at(61, 0.3, None, 1) > 0

    def test_high_hurst_second_repels(self):
        assert coupling_at(61, 0.8, None, 2) < 0

    def test_brownian_chain_beyond_nearest_is_zero(self):
        assert abs(coupling_at(61, 0.5, None, 2)) <= 1e-10

    def test_hurst_domain(self):
        with pytest.raises(ValueError):
            coupling_at(61, 1.0, None, 1)

    def test_partner_in_range(self):
        with pytest.raises(IndexError):
            coupling_at(11, 0.4, 9, 3)

    def test_default_center_is_the_middle_monomer(self):
        assert coupling_at(11, 0.4, None, 3) == coupling_at(11, 0.4, 5, 3)
        assert coupling_at(12, 0.4, None, 3) == coupling_at(12, 0.4, 5, 3)

    def test_checks_before_building_a_chain(self, monkeypatch):
        # the kernels owners check the chain, the center and the partner before any row is built
        monkeypatch.setattr(critical, "chain_coupling_rows", None)
        with pytest.raises(IndexError, match=r"^partner 12 outside 0\.\.10$"):
            coupling_at(11, 0.4, 9, 3)
        with pytest.raises(IndexError, match=r"^center 11 outside 0\.\.10$"):
            coupling_at(11, 0.4, 11, -1)
        for monomers in (1, 0):
            with pytest.raises(ValueError, match="^a chain needs at least 2 monomers$"):
                coupling_at(monomers, 0.4, None, 1)


class TestCouplingAtFromTwoRows:
    """coupling_at reads two energy rows; its value is the full table's entry, bit for bit."""

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_every_center_of_short_chains_equals_the_table(self, hurst):
        for monomers in range(3, 41):
            g = chain_coupling_matrix(monomers, hurst)
            for center in range(monomers):
                partner = (center + 1 + 7 * center % (monomers - 1)) % monomers  # any other monomer
                got = coupling_at(monomers, hurst, center, partner - center)
                assert same_bits(got, g[center, partner]), (monomers, center, partner)

    def test_seeded_random_entries_equal_the_table(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            monomers = int(rng.integers(2, 2050))
            hurst = float(rng.uniform(0.01, 0.99))
            g = chain_coupling_matrix(monomers, hurst)
            centers = (0, monomers - 1, *rng.integers(0, monomers, size=3))
            for center in map(int, centers):
                for partner in (0, monomers - 1, *map(int, rng.integers(0, monomers, size=3))):
                    if partner != center:  # offsets of both signs, partners at both chain ends
                        got = coupling_at(monomers, hurst, center, partner - center)
                        assert same_bits(got, g[center, partner]), (monomers, hurst, center, partner)

    def test_memory_is_linear_in_the_chain(self):
        # the (n + 1)^2 table at 2049 monomers is 32 MB; the dense pipeline peaked at 128 MB
        tracemalloc.start()
        try:
            coupling_at(2049, 0.7, None, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSignChangeQuery:
    """find_critical_hurst checks each argument of the query before any chain is built."""

    @pytest.fixture
    def no_chain(self, monkeypatch):
        monkeypatch.setattr(critical, "chain_coupling_rows", None)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tol_must_be_positive(self, tol, no_chain):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            find_critical_hurst(tol=tol)

    def test_partner_is_checked_before_any_chain(self, no_chain):
        with pytest.raises(IndexError, match=r"^partner 12 outside 0\.\.10$"):
            find_critical_hurst(monomers=11, offset=3, center=9)
        with pytest.raises(IndexError, match=r"^partner -1 outside 0\.\.10$"):
            find_critical_hurst(monomers=11, offset=-6)  # the default center is 5

    def test_center_is_checked_before_any_chain(self, no_chain):
        for center in (-1, 61):
            with pytest.raises(IndexError, match=rf"^center {center} outside 0\.\.60$"):
                find_critical_hurst(center=center)

    @pytest.mark.parametrize("monomers", [1, 0, -3])
    def test_chain_size_is_checked_before_any_chain(self, monomers, no_chain):
        with pytest.raises(ValueError, match="^a chain needs at least 2 monomers$"):
            find_critical_hurst(monomers=monomers)

    def test_offset_zero_has_no_partner(self, no_chain):
        with pytest.raises(ValueError, match="offset 0"):
            find_critical_hurst(offset=0)
        with pytest.raises(ValueError, match="offset 0"):
            coupling_at(61, 0.3, None, 0)

    def test_plain_keyword_arguments_only(self):
        with pytest.raises(TypeError):
            find_critical_hurst(61, 3)

    def test_negative_offset_is_the_left_partner(self):
        assert coupling_at(61, 0.3, 20, -2) == coupling_at(61, 0.3, 18, 2)


class TestFindCriticalHurst:
    def test_third_neighbor_critical_point(self):
        h_star, iterations = find_critical_hurst()
        assert h_star == pytest.approx(0.75964, abs=1e-4)
        assert iterations == math.ceil(math.log2(0.3 / 1e-6))

    def test_iteration_count_follows_bracket_and_tol(self):
        _, iterations = find_critical_hurst(bracket=(0.7, 0.8), tol=1e-4)
        width = 0.8 - 0.7
        assert iterations == math.ceil(math.log2(width / 1e-4))

    def test_runs_are_bit_identical(self):
        first = find_critical_hurst(tol=1e-7)
        second = find_critical_hurst(tol=1e-7)
        assert first == second

    def test_symmetric_offsets_agree(self):
        plus = find_critical_hurst(offset=3, tol=1e-9)[0]
        minus = find_critical_hurst(offset=-3, tol=1e-9)[0]
        assert abs(plus - minus) <= 1e-9

    def test_nearest_neighbor_has_no_sign_change(self):
        with pytest.raises(NoSignChange, match=r"^coupling has no sign change over \(0\.55, 0\.95\): g\(0\.55\) = "):
            find_critical_hurst(offset=1, bracket=(0.55, 0.95))

    def test_tolerance_below_the_floor_is_rejected(self, monkeypatch):
        # adjacent floats bound the bracket width away from 0; the call fails before any chain is built
        monkeypatch.setattr(critical, "chain_coupling_rows", None)
        for tol in (1e-300, 1e-17, 1.11e-16, 2.22e-16, math.nextafter(4 * math.ulp(0.9), 0.0)):
            with pytest.raises(ValueError, match=r"tol .* below the floor 4\.441e-16 \(4 ulps"):
                find_critical_hurst(monomers=11, offset=3, bracket=(0.6, 0.9), tol=tol)

    @pytest.mark.parametrize("bracket", [(0.6, 0.9), (0.7, 0.8), (0.01, 0.99), (0.3, 0.31), (1e-9, 2e-9)])
    def test_iteration_count_is_exact_down_to_the_floor(self, bracket):
        # _bisect owns the count and the floor for every caller; a linear function shows both
        lo, hi = bracket
        width, floor = hi - lo, critical.TOL_FLOOR_ULPS * math.ulp(hi)
        root = lo + 0.3141592653589793 * width
        midpoints = []

        def linear(h):
            midpoints.append(h)
            return h - root

        # width / 2**j is where a loop on the bracket width misses the count by one
        tols = [floor, 1.5 * floor] + [width / 2**j for j in range(1, 70) if width / 2**j >= floor]
        for tol in tols:
            midpoints.clear()
            h_star, iterations = _bisect(linear, lo, hi, tol)
            assert iterations == math.ceil(math.log2(width / tol))
            assert len(set(midpoints)) == iterations + 2  # every halving is strict
            assert abs(h_star - root) <= 0.5 * tol + math.ulp(hi)
        midpoints.clear()
        with pytest.raises(ValueError, match="below the floor"):
            _bisect(linear, lo, hi, math.nextafter(floor, 0.0))
        assert midpoints == []  # the floor is checked before f is called

    def test_tolerance_at_least_the_width_takes_no_step(self):
        assert _bisect(lambda h: h - 0.7, 0.6, 0.9, 0.5) == (0.75, 0)
        assert find_critical_hurst(bracket=(0.6, 0.9), tol=0.5) == (0.75, 0)

    def test_bracket_validation(self, monkeypatch):
        monkeypatch.setattr(critical, "chain_coupling_rows", None)  # rejected before any chain is built
        for bracket in ((0.9, 0.6), (0.0, 0.9), (0.6, 1.0), (0.7, 0.7)):
            message = re.escape(f"bracket must satisfy 0 < lo < hi < 1, got {bracket}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                find_critical_hurst(bracket=bracket)
        with pytest.raises(ValueError):
            find_critical_hurst(tol=0.0)

    def test_shorter_chain_shifts_the_critical_point(self):
        # the sign-change location is length dependent; both must still lie
        # inside the bracket and pin their own root
        h61 = find_critical_hurst(monomers=61, tol=1e-8)[0]
        h21 = find_critical_hurst(monomers=21, tol=1e-8)[0]
        assert h61 != h21
        for monomers, h_star in ((61, h61), (21, h21)):
            center = (monomers - 1) // 2
            below = coupling_at(monomers, h_star - 1e-4, center, 3)
            above = coupling_at(monomers, h_star + 1e-4, center, 3)
            assert (below < 0) and (above > 0)
