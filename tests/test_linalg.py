import numpy as np
import pytest

from fbmspring.errors import NoConvergence, NotPositiveDefinite
from fbmspring.kernels import ChainModel, RingGeometry, chain_increment_cov, ring_increment_cov
from fbmspring.linalg import (
    Definiteness,
    cholesky,
    classify_definiteness,
    default_tol_pd,
    eigen_sym,
    invert,
    require_symmetric,
    symmetrize,
)

from conftest import random_spd, random_symmetric


def loop_cholesky(a, tol_pd):
    """Python-loop factorization that ``cholesky`` replaced, kept as the reference."""
    n = a.shape[0]
    low = np.zeros((n, n))
    for i in range(n):
        pivot = a[i, i] - np.dot(low[i, :i], low[i, :i])
        if pivot <= tol_pd:
            raise NotPositiveDefinite(pivot_index=i, pivot_value=float(pivot))
        low[i, i] = np.sqrt(pivot)
        if i + 1 < n:
            low[i + 1 :, i] = (a[i + 1 :, i] - low[i + 1 :, :i] @ low[i, :i]) / low[i, i]
    return low


def factor_or_error(factor, a, tol_pd):
    try:
        return factor(a, tol_pd)
    except NotPositiveDefinite as exc:
        return exc


def pivot_error_bound(a, k):
    """Forward error scale of the Schur complement a_kk - a[:k, k] A_k^-1 a[:k, k]."""
    if k == 0:
        return 4 * np.finfo(float).eps * abs(a[0, 0])
    block = a[:k, :k]
    quad = a[:k, k] @ np.linalg.solve(block, a[:k, k])
    return 4 * np.finfo(float).eps * k * np.linalg.cond(block) * (abs(a[k, k]) + abs(quad))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_expanded_2x2(self):
        # [[4,2],[2,5]]: l00 = 2, l10 = 2/2 = 1, l11 = sqrt(5 - 1) = 2
        low = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_chain_covariance_is_pd(self):
        # oracle: all eigenvalues of the 6x6 are positive (independent solver)
        r = chain_increment_cov(ChainModel(n=6, hurst=0.6))
        assert np.linalg.eigvalsh(r).min() > 0
        low = cholesky(r)
        np.testing.assert_allclose(low @ low.T, r, atol=1e-12)

    def test_reconstruction_tolerance(self, rng):
        for n in (2, 5, 17, 40):
            m = random_spd(rng, n)
            low = cholesky(m)
            tol = 1e-10 * n * np.abs(m).max()
            assert np.abs(low @ low.T - m).max() <= tol

    def test_not_positive_definite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert info.value.pivot_index == 1
        assert info.value.pivot_value <= 0

    def test_semidefinite_matrix_rejected(self):
        ones = np.ones((3, 3))
        with pytest.raises(NotPositiveDefinite):
            cholesky(ones)


class TestCholeskyAgainstLoop:
    def test_random_symmetric_matrices(self, rng):
        # shifts straddle the smallest eigenvalue: about half the cases fail
        failures = 0
        for _ in range(400):
            n = int(rng.integers(1, 40))
            m = random_spd(rng, n, jitter=0.0)
            m = symmetrize(m - rng.uniform(-2.0, 2.0) * np.eye(n) - np.linalg.eigvalsh(m)[0] * np.eye(n))
            tol = default_tol_pd(m)
            expected = factor_or_error(loop_cholesky, m, tol)
            got = factor_or_error(cholesky, m, tol)
            if isinstance(expected, NotPositiveDefinite):
                failures += 1
                assert isinstance(got, NotPositiveDefinite)
                assert got.pivot_index == expected.pivot_index
                k = expected.pivot_index
                assert abs(got.pivot_value - expected.pivot_value) <= pivot_error_bound(m, k)
            else:
                assert not isinstance(got, NotPositiveDefinite)
                assert np.abs(got @ got.T - m).max() <= 1e-14 * n * np.abs(m).max()
        assert 100 < failures < 300

    @pytest.mark.parametrize(
        "small_at, negative_at, expected_index",
        [(4, None, 4), (None, 8, 8), (4, 8, 4)],
        ids=["small-pivot-lapack-succeeds", "lapack-fails", "small-pivot-before-lapack-failure"],
    )
    def test_pivot_cases(self, rng, small_at, negative_at, expected_index):
        # a = U D U.T with unit lower U has Cholesky pivots D
        d = np.ones(12)
        if small_at is not None:
            d[small_at] = 1e-10
        if negative_at is not None:
            d[negative_at] = -1.0
        unit = np.tril(rng.normal(scale=0.3, size=(12, 12)), -1) + np.eye(12)
        a = symmetrize((unit * d) @ unit.T)
        tol = default_tol_pd(a)
        try:
            np.linalg.cholesky(a)
            lapack_fails = False
        except np.linalg.LinAlgError:
            lapack_fails = True
        assert lapack_fails == (negative_at is not None)
        expected = factor_or_error(loop_cholesky, a, tol)
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(a)
        assert info.value.pivot_index == expected.pivot_index == expected_index
        assert info.value.pivot_value == pytest.approx(expected.pivot_value, rel=1e-6)
        assert info.value.pivot_value == pytest.approx(d[expected_index], rel=1e-6)
        if small_at is not None:
            assert 0.0 < info.value.pivot_value <= tol


class TestInvert:
    def test_identity(self):
        np.testing.assert_array_equal(invert(np.eye(5)), np.eye(5))

    def test_diagonal(self):
        np.testing.assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15)

    def test_chain_residual(self):
        # the residual against the identity is the oracle here
        r = chain_increment_cov(ChainModel(n=5, hurst=0.3))
        a = invert(r)
        assert np.abs(a @ r - np.eye(5)).max() <= 1e-8 * 5

    def test_double_inverse_is_identity_map(self, rng):
        for n in (2, 7, 19, 32):
            m = random_spd(rng, n)
            assert np.abs(invert(invert(m)) - m).max() <= 1e-7

    def test_output_exactly_symmetric(self, rng):
        a = invert(random_spd(rng, 12))
        assert np.array_equal(a, a.T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            invert(np.array([[1.0, 3.0], [3.0, 1.0]]))


class TestEigenSym:
    def test_diagonal_sorted(self):
        w, _ = eigen_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial of [[1,-1],[-1,1]]: (1-l)^2 - 1 -> {0, 2}
        w, _ = eigen_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-14)

    def test_brownian_ring_dense_spectrum(self):
        cov = ring_increment_cov(RingGeometry(6), hurst=0.5)
        w, _ = eigen_sym(cov)
        np.testing.assert_allclose(w, [0, 0, 0, 2, 2, 2], atol=1e-12)

    def test_residual_and_orthonormality(self, rng):
        m = random_symmetric(rng, 14, scale=3.0)
        w, v = eigen_sym(m)
        assert np.abs(m @ v - v * w).max() <= 1e-8 * np.abs(w).max()
        assert np.abs(v.T @ v - np.eye(14)).max() <= 1e-10

    def test_eigenvalue_sum_matches_trace(self, rng):
        for n in (3, 9, 24):
            m = random_symmetric(rng, n, scale=2.0)
            w, _ = eigen_sym(m)
            assert abs(w.sum() - np.trace(m)) <= 1e-9 * n * np.abs(m).max()

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence, match="LAPACK eigh did not converge"):
            eigen_sym(np.eye(3))


class TestClassify:
    def test_identity_positive_definite(self):
        verdict = classify_definiteness(np.eye(4))
        assert verdict.kind is Definiteness.POSITIVE_DEFINITE
        assert verdict.zero_mode_count == 0

    def test_brownian_ring_semidefinite(self):
        cov = ring_increment_cov(RingGeometry(6), hurst=0.5)
        verdict = classify_definiteness(cov)
        assert verdict.kind is Definiteness.POSITIVE_SEMIDEFINITE
        assert verdict.zero_mode_count == 3

    def test_ring_above_half_indefinite(self):
        # brute-force eigenvalues of the 8x8 circulant go negative at H = 0.8
        cov = ring_increment_cov(RingGeometry(8), hurst=0.8)
        verdict = classify_definiteness(cov)
        assert verdict.kind is Definiteness.INDEFINITE
        assert verdict.min_eigenvalue < 0

    def test_consistent_with_cholesky_on_random_matrices(self, rng):
        # random spectra have no exact zeros, so: PD <=> cholesky succeeds
        for n in (2, 5, 9, 16):
            for _ in range(10):
                m = random_symmetric(rng, n, scale=1.5)
                if rng.random() < 0.5:
                    m = m + (abs(np.linalg.eigvalsh(m).min()) + 1.0) * np.eye(n)
                verdict = classify_definiteness(m)
                try:
                    cholesky(m)
                    factored = True
                except NotPositiveDefinite:
                    factored = False
                assert factored == (verdict.kind is Definiteness.POSITIVE_DEFINITE)
                if verdict.kind is Definiteness.INDEFINITE:
                    assert not factored

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            classify_definiteness(np.eye(2), tol_pd=-1.0)


class TestGuards:
    def test_require_symmetric_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            require_symmetric(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_require_symmetric_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            require_symmetric(np.zeros((2, 3)))

    def test_symmetrize_is_exactly_symmetric(self, rng):
        s = symmetrize(rng.normal(size=(9, 9)))
        assert np.array_equal(s, s.T)

    def test_default_tol_scales(self):
        assert default_tol_pd(np.eye(4)) == pytest.approx(4e-9)
        assert default_tol_pd(10.0 * np.eye(4)) == pytest.approx(4e-8)
