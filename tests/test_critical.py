import math

import pytest

from fbmspring.critical import SignChangeQuery, coupling_at, find_critical_hurst
from fbmspring.errors import MaxIterations, NoSignChange


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


class TestSignChangeQuery:
    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SignChangeQuery(tol=tol)


class TestFindCriticalHurst:
    def test_third_neighbor_critical_point(self):
        h_star, iterations = find_critical_hurst(SignChangeQuery())
        assert h_star == pytest.approx(0.75964, abs=1e-4)
        assert iterations == math.ceil(math.log2(0.3 / 1e-6))

    def test_iteration_count_follows_bracket_and_tol(self):
        query = SignChangeQuery(bracket=(0.7, 0.8), tol=1e-4)
        _, iterations = find_critical_hurst(query)
        width = 0.8 - 0.7
        assert iterations == math.ceil(math.log2(width / 1e-4))

    def test_runs_are_bit_identical(self):
        first = find_critical_hurst(SignChangeQuery(tol=1e-7))
        second = find_critical_hurst(SignChangeQuery(tol=1e-7))
        assert first == second

    def test_symmetric_offsets_agree(self):
        plus = find_critical_hurst(SignChangeQuery(offset=3, tol=1e-9))[0]
        minus = find_critical_hurst(SignChangeQuery(offset=-3, tol=1e-9))[0]
        assert abs(plus - minus) <= 1e-9

    def test_nearest_neighbor_has_no_sign_change(self):
        query = SignChangeQuery(offset=1, bracket=(0.55, 0.95))
        with pytest.raises(NoSignChange):
            find_critical_hurst(query)

    def test_unreachable_tolerance(self):
        # adjacent floats bound the bracket width away from 0
        query = SignChangeQuery(monomers=11, offset=3, bracket=(0.6, 0.9), tol=1e-300)
        with pytest.raises(MaxIterations):
            find_critical_hurst(query)

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            SignChangeQuery(bracket=(0.9, 0.6))
        with pytest.raises(ValueError):
            SignChangeQuery(bracket=(0.0, 0.9))
        with pytest.raises(ValueError):
            SignChangeQuery(tol=0.0)

    def test_shorter_chain_shifts_the_critical_point(self):
        # the sign-change location is length dependent; both must still lie
        # inside the bracket and pin their own root
        h61 = find_critical_hurst(SignChangeQuery(monomers=61, tol=1e-8))[0]
        h21 = find_critical_hurst(SignChangeQuery(monomers=21, tol=1e-8))[0]
        assert h61 != h21
        for monomers, h_star in ((61, h61), (21, h21)):
            center = (monomers - 1) // 2
            below = coupling_at(monomers, h_star - 1e-4, center, 3)
            above = coupling_at(monomers, h_star + 1e-4, center, 3)
            assert (below < 0) and (above > 0)
