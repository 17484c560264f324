import numpy as np
import pytest

from fbmspring.errors import FbmSpringError, NotPositiveDefinite
from fbmspring.kernels import chain_increment_row
from fbmspring import linalg
from fbmspring.couplings import chain_coupling_matrix, chain_coupling_rows, coupling_laplacian
from fbmspring.linalg import (
    centrosymmetric_eigenvalues,
    default_tol_pd,
    require_symmetric,
    toeplitz_inverse_rows,
)

from conftest import (
    chain_laplacian_rows,
    full_matrix_split,
    inverse_table,
    random_symmetric,
    same_bits,
    toeplitz_dense,
)


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


def factor_or_error(factor, *args):
    try:
        return factor(*args)
    except NotPositiveDefinite as exc:
        return exc


def pivot_error_bound(a, k):
    """Forward error scale of the Schur complement a_kk - a[:k, k] A_k^-1 a[:k, k]."""
    if k == 0:
        return 4 * np.finfo(float).eps * abs(a[0, 0])
    block = a[:k, :k]
    quad = a[:k, k] @ np.linalg.solve(block, a[:k, k])
    return 4 * np.finfo(float).eps * k * np.linalg.cond(block) * (abs(a[k, k]) + abs(quad))


def outer_product_inverse(row):
    """Gohberg-Semencul table from two outer products and one in-place diagonal sum over rows."""
    a, e = linalg._durbin(row)
    b = np.concatenate(([0.0], a[:0:-1]))
    inv = np.multiply.outer(a, a)
    inv -= np.multiply.outer(b, b)
    for i in range(1, a.size):
        inv[i, 1:] += inv[i - 1, :-1]
    return inv / e


def random_spd_row(rng, n):
    """First row of a random symmetric positive definite Toeplitz matrix, lambda_min = 1."""
    row = rng.normal(size=n) / (1.0 + np.arange(n))
    row[0] -= np.linalg.eigvalsh(toeplitz_dense(row))[0] - 1.0
    return row


class TestCholesky:
    """The Durbin prediction errors of ``toeplitz_inverse_rows`` are the Cholesky pivots."""

    def test_identity(self, monkeypatch):
        # every pivot of the identity is 1: a tolerance of 1 stops at the first
        monkeypatch.setattr(linalg, "default_tol_pd", lambda row: 1.0)
        with pytest.raises(NotPositiveDefinite) as info:
            inverse_table([1.0, 0.0, 0.0])
        assert (info.value.pivot_index, info.value.pivot_value) == (0, 1.0)
        monkeypatch.setattr(linalg, "default_tol_pd", lambda row: np.nextafter(1.0, 0.0))
        inv = inverse_table([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(inv, np.eye(3))

    def test_hand_expanded_2x2(self, monkeypatch):
        # [[4,2],[2,4]]: l00^2 = 4, l10 = 2/2 = 1, l11^2 = 4 - 1 = 3
        monkeypatch.setattr(linalg, "default_tol_pd", lambda row: 3.0)
        with pytest.raises(NotPositiveDefinite) as info:
            inverse_table([4.0, 2.0])
        assert (info.value.pivot_index, info.value.pivot_value) == (1, 3.0)
        # inverse [[4,-2],[-2,4]] / (4 * 4 - 2 * 2)
        monkeypatch.setattr(linalg, "default_tol_pd", lambda row: 2.9)
        inv = inverse_table([4.0, 2.0])
        np.testing.assert_allclose(inv, [[1 / 3, -1 / 6], [-1 / 6, 1 / 3]], atol=1e-15)

    def test_chain_covariance_is_pd(self):
        # oracle: all eigenvalues of the 6x6 are positive (independent solver)
        r = toeplitz_dense(chain_increment_row(6, 0.6))
        assert np.linalg.eigvalsh(r).min() > 0
        inv = inverse_table(chain_increment_row(6, 0.6))
        np.testing.assert_allclose(inv @ r, np.eye(6), atol=1e-12)

    def test_reconstruction_tolerance(self, rng):
        for n in (2, 5, 17, 40):
            row = random_spd_row(rng, n)
            m = toeplitz_dense(row)
            inv = inverse_table(row)
            assert np.abs(inv @ m - np.eye(n)).max() <= 1e-15 * n * np.linalg.cond(m)

    def test_not_positive_definite_reports_pivot(self):
        # second pivot of [[1,2],[2,1]]: 1 - 2 * 2 / 1
        with pytest.raises(NotPositiveDefinite) as info:
            inverse_table([1.0, 2.0])
        assert info.value.pivot_index == 1
        assert info.value.pivot_value == -3.0

    def test_semidefinite_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite) as info:
            inverse_table([1.0, 1.0, 1.0])
        assert info.value.pivot_index == 1


class TestCholeskyAgainstLoop:
    """Pivot index and value of ``toeplitz_inverse_rows`` against ``loop_cholesky``."""

    def test_random_symmetric_matrices(self, rng):
        # random symmetric Toeplitz rows whose diagonal shifts straddle the
        # smallest eigenvalue: about half the cases fail
        failures = 0
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            row = rng.normal(size=n) / (1.0 + np.arange(n))
            row[0] -= np.linalg.eigvalsh(toeplitz_dense(row))[0] + rng.uniform(-2.0, 2.0)
            m = toeplitz_dense(row)
            tol = default_tol_pd(m)
            assert default_tol_pd(row) == tol
            expected = factor_or_error(loop_cholesky, m, tol)
            got = factor_or_error(inverse_table, row)
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
        a = toeplitz_dense(row)
        tol = default_tol_pd(a)
        try:
            np.linalg.cholesky(a)
            dense_fails = False
        except np.linalg.LinAlgError:
            dense_fails = True
        assert dense_fails == lapack_fails
        expected = factor_or_error(loop_cholesky, a, tol)
        with pytest.raises(NotPositiveDefinite) as info:
            inverse_table(row)
        assert info.value.pivot_index == expected.pivot_index == expected_index
        assert info.value.pivot_value == pytest.approx(expected.pivot_value, rel=1e-6)
        if expected_index == 4:
            assert info.value.pivot_value == pytest.approx(1.0 - self.RHO**2, rel=1e-6)
            assert 0.0 < info.value.pivot_value <= tol
        else:
            # 1 - 1.5^2, exact in binary
            assert info.value.pivot_value == -1.25


class TestInvert:
    """The stacked rows of ``toeplitz_inverse_rows`` as an inverse."""

    def test_identity(self):
        np.testing.assert_array_equal(inverse_table([1.0, 0.0, 0.0, 0.0, 0.0]), np.eye(5))

    def test_diagonal(self):
        # a diagonal Toeplitz matrix is a multiple of the identity
        np.testing.assert_array_equal(inverse_table([2.0, 0.0]), np.diag([0.5, 0.5]))
        np.testing.assert_allclose(inverse_table([4.0, 0.0, 0.0]), 0.25 * np.eye(3), atol=1e-15)

    def test_chain_residual(self):
        # the residual against the identity is the oracle here
        row = chain_increment_row(6, 0.6)
        assert np.linalg.eigvalsh(toeplitz_dense(row)).min() > 0
        assert np.abs(inverse_table(row) @ toeplitz_dense(row) - np.eye(6)).max() <= 1e-14

    def test_double_inverse_is_identity_map(self, rng):
        # the inverse of a Toeplitz matrix is not Toeplitz, so the second
        # inversion is a dense solve
        for n in (2, 7, 19, 32):
            row = random_spd_row(rng, n)
            back = np.linalg.solve(inverse_table(row), np.eye(n))
            assert np.abs(back - toeplitz_dense(row)).max() <= 1e-7

    def test_output_exactly_symmetric(self, rng):
        a = inverse_table(random_spd_row(rng, 12))
        assert np.array_equal(a, a.T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            inverse_table([1.0, 3.0])


class TestToeplitzInverse:
    def test_hand_expanded_3x3(self):
        # tridiagonal [[2,-1,0],[-1,2,-1],[0,-1,2]]: inverse [[3,2,1],[2,4,2],[1,2,3]] / 4
        inv = inverse_table([2.0, -1.0, 0.0])
        np.testing.assert_allclose(inv, np.array([[3, 2, 1], [2, 4, 2], [1, 2, 3]]) / 4, atol=1e-15)

    def test_first_pivot_checked(self):
        with pytest.raises(NotPositiveDefinite) as info:
            inverse_table([0.0, 0.5])
        assert (info.value.pivot_index, info.value.pivot_value) == (0, 0.0)

    def test_default_tolerance(self, monkeypatch):
        # second pivot 1 - (1 - 1e-12)^2 ~ 2e-12 lies below 1e-9 * 2 * 1
        row = np.array([1.0, 1.0 - 1e-12])
        with pytest.raises(NotPositiveDefinite) as info:
            inverse_table(row)
        assert 0.0 < info.value.pivot_value <= default_tol_pd(row) == default_tol_pd(toeplitz_dense(row))
        with pytest.raises(TypeError):  # the tolerance is not a parameter
            toeplitz_inverse_rows(row, tol_pd=0.0)
        monkeypatch.setattr(linalg, "default_tol_pd", lambda row: 0.0)
        inv = inverse_table(row)
        assert np.abs(inv @ toeplitz_dense(row) - np.eye(2)).max() <= 1e-3

    def test_nan_is_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            inverse_table([1.0, np.nan, 0.0])

    @pytest.mark.parametrize("row", [[], [[1.0, 0.0], [0.0, 1.0]]], ids=["empty", "matrix"])
    def test_rejects_non_row(self, row):
        with pytest.raises(ValueError, match=r"^first_row must be a nonempty 1-d array, got shape"):
            inverse_table(row)


@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.7, 0.95, 0.999])
@pytest.mark.parametrize("n", [1, 2, 60, 512, 2048])
def test_chain_inverse_matches_dense_oracle(n, hurst):
    row = chain_increment_row(n, hurst)
    m = toeplitz_dense(row)
    expected = np.linalg.inv(m)
    w = np.linalg.eigvalsh(m)
    cond = w[-1] / w[0]
    got = inverse_table(row)
    assert np.array_equal(got, got.T)
    assert np.abs(got - expected).max() <= 1e-15 * cond * np.abs(expected).max()


class TestInverseRows:
    """``toeplitz_inverse_rows`` streams the table's own row recurrence, one row per pull."""

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 3, 60, 513])
    def test_table_equals_outer_product_form(self, n, hurst):
        row = chain_increment_row(n, hurst)
        assert same_bits(inverse_table(row), outer_product_inverse(row))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
    def test_rows_are_the_table_rows(self, rng, n):
        row = random_spd_row(rng, n)
        table = outer_product_inverse(row)
        rows = list(toeplitz_inverse_rows(row))
        assert len(rows) == n
        for i, streamed in enumerate(rows):
            assert same_bits(streamed, table[i]), i

    def test_raises_at_the_call(self):
        with pytest.raises(NotPositiveDefinite) as info:
            toeplitz_inverse_rows([1.0, 2.0, 0.0])  # not iterated: the Durbin recursion runs at the call
        assert info.value.pivot_index == 1

    @pytest.mark.parametrize("start, stop, pulled", [(0, 0, 0), (0, 1, 1), (10, 12, 12), (30, 31, 31),
                                                     (59, 60, 60), (60, 61, 60), (0, 61, 60)])
    def test_an_early_stop_pulls_only_the_rows_it_needs(self, monkeypatch, start, stop, pulled):
        # coupling rows start..stop-1 of 61 monomers read energy rows up to stop - 1, of the 60 there are
        seen = []
        stream = linalg.toeplitz_inverse_rows
        monkeypatch.setattr(linalg, "toeplitz_inverse_rows",
                            lambda first_row: (seen.append(i) or row for i, row in enumerate(stream(first_row))))
        band = chain_coupling_rows(61, 0.7, start, stop)
        assert seen == list(range(pulled))
        assert same_bits(band, chain_coupling_matrix(61, 0.7)[start:stop])


def centrosymmetric(a):
    """a + JaJ: exactly symmetric and centrosymmetric when ``a`` is exactly symmetric."""
    return a + a[::-1, ::-1]


def leading_rows(a):
    """The first ceil(n/2) rows of an n x n matrix, the input of the reflection split."""
    return a[: a.shape[0] - a.shape[0] // 2]


class TestCentrosymmetricEigenvalues:
    """The reflection split from leading rows against one dense ``eigh`` of the whole matrix."""

    @pytest.mark.parametrize("hurst", [0.05, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("monomers", [2, 3, 4, 5, 16, 17, 64, 65, 256, 257])
    def test_chain_spectra_match_dense(self, monomers, hurst):
        laplacian = coupling_laplacian(chain_coupling_matrix(monomers, hurst))
        covariance = toeplitz_dense(chain_increment_row(monomers - 1, hurst))
        for rows, a in ((chain_laplacian_rows(monomers, hurst), laplacian), (leading_rows(covariance), covariance)):
            dense = np.linalg.eigh(a)[0]
            split = centrosymmetric_eigenvalues(rows)
            assert split.shape == dense.shape
            assert np.all(np.diff(split) >= 0.0)
            assert np.abs(split - dense).max() <= 1e-14 * np.abs(dense).max()
        # a Toeplitz matrix's mirrored block is exactly symmetric, so (M + M.T)/2 is M
        assert same_bits(centrosymmetric_eigenvalues(leading_rows(covariance)), full_matrix_split(covariance))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40, 41])
    def test_random_matrices_match_dense(self, rng, n):
        a = centrosymmetric(random_symmetric(rng, n, scale=2.0))
        dense = np.linalg.eigh(a)[0]
        assert np.abs(centrosymmetric_eigenvalues(leading_rows(a)) - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_middle_row_joins_the_even_block(self):
        # [[1, x, 0], [x, m, x], [0, x, 1]]: odd mode 1, even modes of [[1, sqrt(2) x], [sqrt(2) x, m]]
        rows = np.array([[1.0, 3.0, 0.0], [3.0, 2.0, 3.0]])
        root = np.sqrt(0.25 + 18.0)
        np.testing.assert_allclose(centrosymmetric_eigenvalues(rows), [1.5 - root, 1.0, 1.5 + root], rtol=1e-15)

    def test_mirrored_block_is_symmetrized(self):
        # [[2, 0, e, 1], [0, 2, 1, 0], ...]: the mirrored block [[1, e], [0, 1]] enters as [[1, e/2], [e/2, 1]]
        e = 1e-3
        rows = np.array([[2.0, 0.0, e, 1.0], [0.0, 2.0, 1.0, 0.0]])
        expected = np.concatenate([np.linalg.eigvalsh(2.0 * np.eye(2) + s * np.array([[1.0, e / 2], [e / 2, 1.0]]))
                                   for s in (1.0, -1.0)])
        np.testing.assert_allclose(centrosymmetric_eigenvalues(rows), np.sort(expected), rtol=1e-15)

    def test_rejects_a_leading_block_that_is_not_symmetric(self):
        with pytest.raises(ValueError, match=r"not symmetric \(max \|a - a.T\| = 1.000e-01\)"):
            centrosymmetric_eigenvalues(np.array([[1.0, 0.5, 0.0, 0.0], [0.4, 1.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4), (2, 5), (4,), (0, 0)])
    def test_rejects_anything_but_the_leading_rows(self, shape):
        with pytest.raises(ValueError, match=r"expected the leading ceil\(n/2\) rows of an n x n matrix"):
            centrosymmetric_eigenvalues(np.zeros(shape))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(FbmSpringError, match="LAPACK eigvalsh did not converge"):
            centrosymmetric_eigenvalues(np.eye(4)[:2])


class TestGuards:
    def test_require_symmetric_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            require_symmetric(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_require_symmetric_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            require_symmetric(np.zeros((2, 3)))

    def test_require_symmetric_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="matrix dimension must be >= 1"):
            require_symmetric(np.zeros((0, 0)))

    def test_default_tol_scales(self):
        assert default_tol_pd(np.eye(4)) == pytest.approx(4e-9)
        assert default_tol_pd(10.0 * np.eye(4)) == pytest.approx(4e-8)
