import numpy as np
import pytest

from fbmspring.errors import NoConvergence, NotPositiveDefinite
from fbmspring.kernels import (
    ChainModel,
    RingGeometry,
    chain_increment_cov,
    chain_increment_row,
    ring_increment_cov,
)
from fbmspring.linalg import (
    Definiteness,
    classify_definiteness,
    default_tol_pd,
    eigen_sym,
    require_symmetric,
    toeplitz_inverse,
)

from conftest import random_symmetric


def loop_cholesky(a, tol_pd):
    """Python-loop Cholesky factorization, the reference for the Toeplitz pivots."""
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


def toeplitz(row):
    idx = np.arange(len(row))
    return np.asarray(row, dtype=float)[np.abs(np.subtract.outer(idx, idx))]


def random_spd_row(rng, n):
    """First row of a random symmetric positive definite Toeplitz matrix, lambda_min = 1."""
    row = rng.normal(size=n) / (1.0 + np.arange(n))
    row[0] -= np.linalg.eigvalsh(toeplitz(row))[0] - 1.0
    return row


class TestCholesky:
    """The Durbin prediction errors of ``toeplitz_inverse`` are the Cholesky pivots."""

    def test_identity(self):
        # every pivot of the identity is 1: a tolerance of 1 stops at the first
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse([1.0, 0.0, 0.0], tol_pd=1.0)
        assert (info.value.pivot_index, info.value.pivot_value) == (0, 1.0)
        inv = toeplitz_inverse([1.0, 0.0, 0.0], tol_pd=np.nextafter(1.0, 0.0))
        np.testing.assert_array_equal(inv, np.eye(3))

    def test_hand_expanded_2x2(self):
        # [[4,2],[2,4]]: l00^2 = 4, l10 = 2/2 = 1, l11^2 = 4 - 1 = 3
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse([4.0, 2.0], tol_pd=3.0)
        assert (info.value.pivot_index, info.value.pivot_value) == (1, 3.0)
        # inverse [[4,-2],[-2,4]] / (4 * 4 - 2 * 2)
        inv = toeplitz_inverse([4.0, 2.0], tol_pd=2.9)
        np.testing.assert_allclose(inv, [[1 / 3, -1 / 6], [-1 / 6, 1 / 3]], atol=1e-15)

    def test_chain_covariance_is_pd(self):
        # oracle: all eigenvalues of the 6x6 are positive (independent solver)
        model = ChainModel(n=6, hurst=0.6)
        r = chain_increment_cov(model)
        assert np.linalg.eigvalsh(r).min() > 0
        inv = toeplitz_inverse(chain_increment_row(model))
        np.testing.assert_allclose(inv @ r, np.eye(6), atol=1e-12)

    def test_reconstruction_tolerance(self, rng):
        for n in (2, 5, 17, 40):
            row = random_spd_row(rng, n)
            m = toeplitz(row)
            inv = toeplitz_inverse(row)
            assert np.abs(inv @ m - np.eye(n)).max() <= 1e-15 * n * np.linalg.cond(m)

    def test_not_positive_definite_reports_pivot(self):
        # second pivot of [[1,2],[2,1]]: 1 - 2 * 2 / 1
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse([1.0, 2.0])
        assert info.value.pivot_index == 1
        assert info.value.pivot_value == -3.0

    def test_semidefinite_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse([1.0, 1.0, 1.0])
        assert info.value.pivot_index == 1


class TestCholeskyAgainstLoop:
    """Pivot index and value of ``toeplitz_inverse`` against ``loop_cholesky``."""

    def test_random_symmetric_matrices(self, rng):
        # random symmetric Toeplitz rows whose diagonal shifts straddle the
        # smallest eigenvalue: about half the cases fail
        failures = 0
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            row = rng.normal(size=n) / (1.0 + np.arange(n))
            row[0] -= np.linalg.eigvalsh(toeplitz(row))[0] + rng.uniform(-2.0, 2.0)
            m = toeplitz(row)
            tol = default_tol_pd(m)
            assert default_tol_pd(row) == tol
            expected = factor_or_error(loop_cholesky, m, tol)
            got = factor_or_error(toeplitz_inverse, row, tol)
            if isinstance(expected, NotPositiveDefinite):
                failures += 1
                assert isinstance(got, NotPositiveDefinite)
                assert got.pivot_index == expected.pivot_index
                k = expected.pivot_index
                assert abs(got.pivot_value - expected.pivot_value) <= pivot_error_bound(m, k)
            else:
                assert not isinstance(got, NotPositiveDefinite)
                assert np.array_equal(got, got.T)
                assert np.abs(got @ m - np.eye(n)).max() <= 1e-15 * n * np.linalg.cond(m)
        assert 800 < failures < 1200

    # 12-point rows with reflection coefficients 0 except at lag 4 (rho) and lag 8:
    # pivots 0..3 are 1, pivot 4 is 1 - rho^2
    RHO = -np.sqrt(1.0 - 1e-10)

    @pytest.mark.parametrize(
        "lags, expected_index, lapack_fails",
        [({4: RHO, 8: RHO * RHO}, 4, False), ({8: 1.5}, 8, True), ({4: RHO}, 4, True)],
        ids=["small-pivot-lapack-succeeds", "lapack-fails", "small-pivot-before-lapack-failure"],
    )
    def test_pivot_cases(self, lags, expected_index, lapack_fails):
        # the first pivot <= tol_pd is reported whether or not a dense Cholesky
        # of the same matrix would break down, and at whatever index it does
        row = np.zeros(12)
        row[0] = 1.0
        for lag, value in lags.items():
            row[lag] = value
        a = toeplitz(row)
        tol = default_tol_pd(a)
        try:
            np.linalg.cholesky(a)
            dense_fails = False
        except np.linalg.LinAlgError:
            dense_fails = True
        assert dense_fails == lapack_fails
        expected = factor_or_error(loop_cholesky, a, tol)
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse(row)
        assert info.value.pivot_index == expected.pivot_index == expected_index
        assert info.value.pivot_value == pytest.approx(expected.pivot_value, rel=1e-6)
        if expected_index == 4:
            assert info.value.pivot_value == pytest.approx(1.0 - self.RHO**2, rel=1e-6)
            assert 0.0 < info.value.pivot_value <= tol
        else:
            # 1 - 1.5^2, exact in binary
            assert info.value.pivot_value == -1.25


class TestInvert:
    """``toeplitz_inverse`` as an inverse."""

    def test_identity(self):
        np.testing.assert_array_equal(toeplitz_inverse([1.0, 0.0, 0.0, 0.0, 0.0]), np.eye(5))

    def test_diagonal(self):
        # a diagonal Toeplitz matrix is a multiple of the identity
        np.testing.assert_array_equal(toeplitz_inverse([2.0, 0.0]), np.diag([0.5, 0.5]))
        np.testing.assert_allclose(toeplitz_inverse([4.0, 0.0, 0.0]), 0.25 * np.eye(3), atol=1e-15)

    def test_chain_residual(self):
        # the residual against the identity is the oracle here
        row = chain_increment_row(ChainModel(n=6, hurst=0.6))
        assert np.linalg.eigvalsh(toeplitz(row)).min() > 0
        assert np.abs(toeplitz_inverse(row) @ toeplitz(row) - np.eye(6)).max() <= 1e-14

    def test_double_inverse_is_identity_map(self, rng):
        # the inverse of a Toeplitz matrix is not Toeplitz, so the second
        # inversion is a dense solve
        for n in (2, 7, 19, 32):
            row = random_spd_row(rng, n)
            back = np.linalg.solve(toeplitz_inverse(row), np.eye(n))
            assert np.abs(back - toeplitz(row)).max() <= 1e-7

    def test_output_exactly_symmetric(self, rng):
        a = toeplitz_inverse(random_spd_row(rng, 12))
        assert np.array_equal(a, a.T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            toeplitz_inverse([1.0, 3.0])


class TestToeplitzInverse:
    def test_hand_expanded_3x3(self):
        # tridiagonal [[2,-1,0],[-1,2,-1],[0,-1,2]]: inverse [[3,2,1],[2,4,2],[1,2,3]] / 4
        inv = toeplitz_inverse([2.0, -1.0, 0.0])
        np.testing.assert_allclose(inv, np.array([[3, 2, 1], [2, 4, 2], [1, 2, 3]]) / 4, atol=1e-15)

    def test_first_pivot_checked(self):
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse([0.0, 0.5])
        assert (info.value.pivot_index, info.value.pivot_value) == (0, 0.0)

    def test_default_tolerance(self):
        # second pivot 1 - (1 - 1e-12)^2 ~ 2e-12 lies below 1e-9 * 2 * 1
        row = np.array([1.0, 1.0 - 1e-12])
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse(row)
        assert 0.0 < info.value.pivot_value <= default_tol_pd(row) == default_tol_pd(toeplitz(row))
        inv = toeplitz_inverse(row, tol_pd=0.0)
        assert np.abs(inv @ toeplitz(row) - np.eye(2)).max() <= 1e-3

    def test_nan_is_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            toeplitz_inverse([1.0, np.nan, 0.0])

    @pytest.mark.parametrize("row", [[], [[1.0, 0.0], [0.0, 1.0]]], ids=["empty", "matrix"])
    def test_rejects_non_row(self, row):
        with pytest.raises(ValueError, match="first row"):
            toeplitz_inverse(row)


@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.7, 0.95, 0.999])
@pytest.mark.parametrize("n", [1, 2, 60, 512, 2048])
def test_chain_inverse_matches_dense_oracle(n, hurst):
    row = chain_increment_row(ChainModel(n=n, hurst=hurst))
    m = toeplitz(row)
    expected = np.linalg.inv(m)
    w = np.linalg.eigvalsh(m)
    cond = w[-1] / w[0]
    got = toeplitz_inverse(row)
    assert np.array_equal(got, got.T)
    assert np.abs(got - expected).max() <= 1e-15 * cond * np.abs(expected).max()


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
                outcome = factor_or_error(loop_cholesky, m, default_tol_pd(m))
                factored = not isinstance(outcome, NotPositiveDefinite)
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

    def test_default_tol_scales(self):
        assert default_tol_pd(np.eye(4)) == pytest.approx(4e-9)
        assert default_tol_pd(10.0 * np.eye(4)) == pytest.approx(4e-8)
