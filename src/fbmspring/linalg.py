"""Dense symmetric linear algebra: factorization, inversion, eigensolution,
and definiteness classification, as a thin layer over numpy's LAPACK.

All functions operate on plain ``numpy`` arrays that are *exactly* symmetric
(``a[i, k] == a[k, i]`` bitwise). Builders elsewhere in the package construct
matrices so this holds by construction; :func:`require_symmetric` is the guard
at every entry point. What this layer adds to LAPACK is the package's
positive-definiteness tolerance and its error types.
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
    """Classification of a symmetric matrix relative to a tolerance ``tol_pd``.

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


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric average (a + a.T) / 2."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def default_tol_pd(a: np.ndarray) -> float:
    """Default PD tolerance, scaling with dimension and magnitude."""
    a = np.asarray(a, dtype=float)
    return DEFAULT_PD_SCALE * a.shape[0] * float(np.abs(a).max(initial=0.0))


def cholesky(a: np.ndarray, tol_pd: float | None = None) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == a.

    Raises
    ------
    NotPositiveDefinite
        When a pivot falls at or below ``tol_pd``. Cheap probe for whether a
        matrix is a valid (nondegenerate) covariance.
    """
    a = require_symmetric(a)
    if tol_pd is None:
        tol_pd = default_tol_pd(a)
    try:
        low = np.linalg.cholesky(a)
        pivots = np.diag(low) ** 2
    except np.linalg.LinAlgError:
        # LAPACK does not say where it stopped: bisect (O(log n) calls) for the longest leading
        # block it factors; the next pivot is that block's Schur complement a_kk - |L^-1 a_k|^2.
        ok, bad, low = 0, a.shape[0], np.zeros((0, 0))
        while bad - ok > 1:
            mid = (ok + bad) // 2
            try:
                low, ok = np.linalg.cholesky(a[:mid, :mid]), mid
            except np.linalg.LinAlgError:
                bad = mid
        w = np.linalg.solve(low, a[:ok, ok])
        low, pivots = None, np.append(np.diag(low) ** 2, a[ok, ok] - w @ w)
    small = np.flatnonzero(pivots <= tol_pd)
    if small.size or low is None:
        i = int(small[0]) if small.size else pivots.size - 1
        raise NotPositiveDefinite(pivot_index=i, pivot_value=float(pivots[i]))
    return low


def invert(a: np.ndarray, tol_pd: float | None = None) -> np.ndarray:
    """Inverse of a positive definite symmetric matrix, via Cholesky.

    The result is exactly symmetric. Raises :class:`NotPositiveDefinite`
    when the input is not PD at tolerance ``tol_pd``.
    """
    linv = np.linalg.inv(cholesky(a, tol_pd=tol_pd))
    return symmetrize(linv.T @ linv)


def eigen_sym(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of ``a``."""
    a = require_symmetric(a)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh did not converge: {exc}") from exc


def classify_definiteness(a: np.ndarray, tol_pd: float | None = None) -> DefinitenessVerdict:
    """Classify ``a`` as PD / PSD / indefinite at tolerance ``tol_pd``."""
    a = require_symmetric(a)
    if tol_pd is None:
        tol_pd = default_tol_pd(a)
    if tol_pd < 0:
        raise ValueError("tol_pd must be nonnegative")
    w, _ = eigen_sym(a)
    min_eig = float(w[0])
    zero_modes = int(np.count_nonzero(np.abs(w) <= tol_pd))
    if min_eig > tol_pd:
        kind = Definiteness.POSITIVE_DEFINITE
    elif min_eig >= -tol_pd:
        kind = Definiteness.POSITIVE_SEMIDEFINITE
    else:
        kind = Definiteness.INDEFINITE
    return DefinitenessVerdict(kind=kind, min_eigenvalue=min_eig, zero_mode_count=zero_modes)
