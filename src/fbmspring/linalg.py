"""Linear algebra: one Toeplitz solver, and numpy's LAPACK ``eigh`` elsewhere.

Chain covariances are symmetric Toeplitz, so :func:`toeplitz_inverse` works
from their first row in O(n^2) time; symmetric matrices without such structure
go through ``eigh``. Dense inputs must be *exactly* symmetric (``a[i, k] ==
a[k, i]`` bitwise); builders elsewhere construct them so, and
:func:`require_symmetric` is the guard at every entry point. What this layer
adds to numpy is the package's positive-definiteness tolerance and its errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite

#: Relative scale of the default positive-definiteness tolerance.
DEFAULT_PD_SCALE = 1e-9


class Definiteness(str, Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Classification of a symmetric matrix ``a`` at tol_pd = :func:`default_tol_pd` of ``a``.

    ``positive_definite``      min eigenvalue >  tol_pd
    ``positive_semidefinite``  |min eigenvalue| <= tol_pd (at least one zero mode)
    ``indefinite``             min eigenvalue < -tol_pd
    """

    kind: Definiteness
    min_eigenvalue: float
    zero_mode_count: int


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
    """Default PD tolerance of a matrix or of a Toeplitz first row: 1e-9 n max|a|."""
    a = np.asarray(a, dtype=float)
    return DEFAULT_PD_SCALE * a.shape[0] * float(np.abs(a).max(initial=0.0))


def toeplitz_inverse(first_row: np.ndarray, tol_pd: float | None = None) -> np.ndarray:
    """Inverse of the symmetric positive definite Toeplitz matrix with ``first_row``.

    The Durbin recursion (Durbin 1960) gives the predictor ``a`` (``a_0 = 1``)
    and the prediction-error variances ``e_k``, which are the Cholesky pivots:
    the first ``e_k <= tol_pd`` (default :func:`default_tol_pd`) raises
    NotPositiveDefinite. The inverse is the Gohberg-Semencul (1972) sum
    (L(a) L(a).T - L(b) L(b).T) / e_{n-1} with b = (0, a_{n-1}, ..., a_1) and
    L(v) lower-triangular Toeplitz of first column v; it is exactly symmetric.
    """
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise ValueError(f"expected a nonempty first row, got shape {row.shape}")
    tol_pd = default_tol_pd(row) if tol_pd is None else tol_pd
    a, e = np.zeros(row.size), row[0]
    a[0] = 1.0
    for k in range(row.size):
        if k:
            kappa = -(a[:k] @ row[k:0:-1]) / e
            a[: k + 1] = a[: k + 1] + kappa * a[k::-1]
            e = e * (1.0 - kappa * kappa)
        if not e > tol_pd:
            raise NotPositiveDefinite(pivot_index=k, pivot_value=float(e))
    b = np.concatenate(([0.0], a[:0:-1]))
    inv = np.multiply.outer(a, a)
    inv -= np.multiply.outer(b, b)
    # Diagonal sums of the two products; row and column 0 stay as they are, so
    # (i, j) and (j, i) add the same numbers in the same order.
    for i in range(1, row.size):
        inv[i, 1:] += inv[i - 1, :-1]
    return np.divide(inv, e, out=inv)


def eigen_sym(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of ``a``."""
    a = require_symmetric(a)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh did not converge: {exc}") from exc


def classify_definiteness(a: np.ndarray) -> DefinitenessVerdict:
    """Classify ``a`` as PD / PSD / indefinite at tolerance tol_pd = :func:`default_tol_pd`."""
    w, _ = eigen_sym(a)
    tol_pd = default_tol_pd(a)
    min_eig = float(w[0])
    zero_modes = int(np.count_nonzero(np.abs(w) <= tol_pd))
    if min_eig > tol_pd:
        kind = Definiteness.POSITIVE_DEFINITE
    elif min_eig >= -tol_pd:
        kind = Definiteness.POSITIVE_SEMIDEFINITE
    else:
        kind = Definiteness.INDEFINITE
    return DefinitenessVerdict(kind=kind, min_eigenvalue=min_eig, zero_mode_count=zero_modes)
