"""Linear algebra: one Toeplitz solver and one reflection split.

Chain covariances are symmetric Toeplitz, so :func:`toeplitz_inverse_rows`
works from their first row: it runs the Durbin recursion, whose pivots give
the positive-definiteness verdict, then streams the rows of the inverse in
order, one O(n) row at a time, and its consumer decides how many rows to read.
Chains are also centrosymmetric, so :func:`centrosymmetric_eigenvalues`
splits their leading half of rows into two half-size blocks for ``eigvalsh``;
:func:`chain_covariance_eigenvalues` applies it to a chain's covariance.
Dense inputs must be *exactly* symmetric (``a[i, k] == a[k, i]`` bitwise);
builders elsewhere construct them so, and :func:`require_symmetric` is the
guard at every entry point. Ring verdicts come from the circulant spectrum
(``rings.check_admissible``), not from here.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import FbmSpringError, NotPositiveDefinite
from .kernels import _chain_increments, _first_row, chain_increment_row, toeplitz_view

#: Relative scale of the default positive-definiteness tolerance.
DEFAULT_PD_SCALE = 1e-9


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate that ``a`` is a square, exactly symmetric float matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.array_equal(a, a.T):
        dev = float(np.abs(a - a.T).max())
        raise ValueError(f"matrix is not symmetric (max |a - a.T| = {dev:.3e})")
    return a


def default_tol_pd(a: np.ndarray) -> float:
    """Positive-definiteness tolerance of a Toeplitz first row, the Durbin pivots' floor: 1e-9 n max|a|.

    A whole matrix gives the same number as its first row.
    """
    a = np.asarray(a, dtype=float)
    return DEFAULT_PD_SCALE * a.shape[0] * float(np.abs(a).max(initial=0.0))


def _durbin(first_row: np.ndarray) -> tuple[np.ndarray, float]:
    """Predictor ``a`` (``a_0 = 1``) and last prediction error ``e`` of a Toeplitz first row.

    The Durbin recursion (Durbin 1960) runs in O(n^2) time and O(n) memory. Its
    prediction-error variances ``e_k`` are the Cholesky pivots: the first
    ``e_k <=`` :func:`default_tol_pd` of the row raises NotPositiveDefinite.
    """
    row = _first_row(first_row)
    tol_pd = default_tol_pd(row)
    a, e = np.zeros(row.size), row[0]
    a[0] = 1.0
    for k in range(row.size):
        if k:
            kappa = -(a[:k] @ row[k:0:-1]) / e
            a[: k + 1] = a[: k + 1] + kappa * a[k::-1]
            e = e * (1.0 - kappa * kappa)
        if not e > tol_pd:
            raise NotPositiveDefinite(pivot_index=k, pivot_value=float(e))
    return a, e


def toeplitz_inverse_rows(first_row: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of the inverse of the SPD Toeplitz matrix with ``first_row``, one at a time, in order.

    The inverse is the Gohberg-Semencul (1972) sum
    (L(a) L(a).T - L(b) L(b).T) / e with ``a``, ``e`` from the Durbin recursion,
    b = (0, a_{n-1}, ..., a_1) and L(v) lower-triangular Toeplitz of first
    column v. Its undivided row i is a_i a - b_i b plus row i - 1 shifted one
    place right, so the iterator holds one undivided row and computes the next
    only when it is asked for; a consumer that stops early stops the
    recurrence. The Durbin recursion runs at the call, in O(n^2) time, and
    raises NotPositiveDefinite there.
    """
    a, e = _durbin(first_row)
    b = np.concatenate(([0.0], a[:0:-1]))

    def rows() -> Iterator[np.ndarray]:
        for i in range(a.size):
            row = a[i] * a
            row -= b[i] * b
            # Diagonal sums: entry (i, j) adds the terms of (i - k, j - k) in the same
            # order as entry (j, i) does, so the table is exactly symmetric.
            if i:
                row[1:] += previous[:-1]
            previous = row
            yield row / e

    return rows()


def centrosymmetric_eigenvalues(rows: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric centrosymmetric n x n matrix from its first ceil(n/2) rows.

    The basis (x ± Jx)/sqrt(2) splits it into the half-size blocks A ± CJ
    (Cantoni & Butler 1976), with A the leading block and C the block to its
    right; an odd size's middle row joins the even block, scaled by sqrt(2).
    The rows' leading square block must be exactly symmetric. CJ enters as
    (CJ + (CJ).T)/2, the same bits for a Toeplitz matrix. The two blocks share
    one n^2/4 array; ``eigvalsh`` on them costs a quarter of one dense solve.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1]
    half = n // 2
    if rows.ndim != 2 or n < 1 or rows.shape[0] != n - half:
        raise ValueError(f"expected the leading ceil(n/2) rows of an n x n matrix, got shape {rows.shape}")
    leading, mirrored = rows[:half, :half], rows[:half, : -half - 1 : -1]  # mirrored[i, j] = a[i, n-1-j]
    block = require_symmetric(rows[:, : n - half]).copy()  # the even block, then its leading part the odd one
    block[half:, :half] *= math.sqrt(2.0)  # an odd size's middle row and column
    block[:half, half:] *= math.sqrt(2.0)
    part = block[:half, :half]
    spectra = []
    try:
        for scale, matrix in ((0.5, block), (-0.5, part)):
            np.add(mirrored, mirrored.T, out=part)
            part *= scale
            part += leading
            spectra.append(np.linalg.eigvalsh(matrix))
    except np.linalg.LinAlgError as exc:
        raise FbmSpringError(f"LAPACK eigvalsh did not converge: {exc}") from exc
    return np.sort(np.concatenate(spectra))


def chain_covariance_eigenvalues(monomers: int, hurst: float) -> np.ndarray:
    """Ascending eigenvalues of a chain's n x n increment covariance, n = monomers - 1.

    The split of its leading ceil(n/2) rows, a read-only :func:`~fbmspring.kernels.toeplitz_view`
    of the first row: about 4 m^2 bytes, in O(m^3) time, the same bits as the
    split of the whole matrix.
    """
    n = _chain_increments(monomers)
    return centrosymmetric_eigenvalues(toeplitz_view(chain_increment_row(n, hurst))[: n - n // 2])
