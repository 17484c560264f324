"""Circulant matrices: closed-form spectra and real eigenvector bases.

A circulant matrix is determined by its first row c_0..c_{N-1}; every further
row is a cyclic shift. A real circulant is symmetric iff c_k == c_{N-k} for
k > 0, and then its eigenvalues are the real cosine transform of the first row,

    lambda_m = sum_k c_k cos(2 pi k m / N),  m = 0..N-1,

with the degeneracy lambda_m == lambda_{N-m}. The implementation takes the
real FFT (``np.fft.rfft``) over modes 0..floor(N/2) and mirrors it onto
N/2..N-1, which makes that degeneracy bitwise exact and costs O(N log N) time
and O(N) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricCirculant


@dataclass(frozen=True)
class Circulant:
    """Circulant matrix stored as its first row."""

    first_row: np.ndarray

    def __post_init__(self):
        row = np.asarray(self.first_row, dtype=float)
        if row.ndim != 1 or row.size < 1:
            raise ValueError("first_row must be a nonempty 1-d array")
        object.__setattr__(self, "first_row", row)

    @property
    def n(self) -> int:
        return self.first_row.size

    @property
    def is_symmetric(self) -> bool:
        row = self.first_row
        return bool(np.array_equal(row[1:], row[1:][::-1]))

    def dense(self) -> np.ndarray:
        idx = np.arange(self.n)
        return self.first_row[(idx[None, :] - idx[:, None]) % self.n]

    def row_sum(self) -> float:
        return float(self.first_row.sum())


def _require_symmetric(c: Circulant) -> Circulant:
    if not c.is_symmetric:
        raise NotSymmetricCirculant(
            "first row must satisfy c[k] == c[N-k] for a real spectrum"
        )
    return c


def _cosine_transform(row: np.ndarray) -> np.ndarray:
    """sum_k row_k cos(2 pi k m / N), m = 0..N-1, of a symmetric row: rfft, mirrored."""
    n = row.size
    half = np.fft.rfft(row).real
    return np.concatenate((half, half[1 : n - n // 2][::-1]))


def circulant_eigenvalues(c: Circulant) -> np.ndarray:
    """All N eigenvalues in natural mode order m = 0..N-1."""
    _require_symmetric(c)
    return _cosine_transform(c.first_row)


def circulant_eigenvector_basis(c: Circulant) -> tuple[np.ndarray, np.ndarray]:
    """Real orthonormal eigenbasis, as (eigenvalues, column matrix).

    Column order: the constant mode, then for each m = 1..floor(N/2) the
    cosine vector and (when 2m != N) the sine vector, each normalized. The
    eigenvalue array is aligned with the columns.
    """
    _require_symmetric(c)
    n = c.n
    lam = circulant_eigenvalues(c)
    j = np.arange(n)
    cols: list[np.ndarray] = []
    vals: list[float] = []
    for m in range(0, n // 2 + 1):
        u = np.cos(2.0 * np.pi * j * m / n)
        cols.append(u / np.linalg.norm(u))
        vals.append(float(lam[m]))
        if m != 0 and 2 * m != n:
            v = np.sin(2.0 * np.pi * j * m / n)
            cols.append(v / np.linalg.norm(v))
            vals.append(float(lam[m]))
    return np.array(vals), np.column_stack(cols)


def mirrored_distance_row(g_by_distance: np.ndarray, sites: int) -> np.ndarray:
    """Couplings by lag k = 1..N-1, mirroring g_k := g_{N-k} beyond N/2.

    For even N the antipodal coupling g_{N/2} maps onto itself and therefore
    appears once per row.
    """
    g = np.asarray(g_by_distance, dtype=float)
    if g.size != sites // 2:
        raise ValueError(
            f"need floor(N/2) = {sites // 2} distance couplings, got {g.size}"
        )
    k = np.arange(1, sites)
    return g[np.minimum(k, sites - k) - 1]


def ring_mode_spectrum(g_by_distance: np.ndarray, sites: int) -> np.ndarray:
    """Energy eigenvalues of a distance-coupled ring, all modes m = 0..N-1.

    lambda_m = sum_{k=1}^{N-1} g_k (1 - cos(2 pi k m / N)) over the mirrored
    coupling row, i.e. F_0 - F_m with F the cosine transform of (0, row); the
    m = 0 value is the structural zero of the Laplacian, exactly 0.0.
    """
    f = _cosine_transform(np.concatenate(([0.0], mirrored_distance_row(g_by_distance, sites))))
    return f[0] - f


def ring_lambda(g_by_distance: np.ndarray, sites: int, mode: int) -> float:
    """Single ring energy eigenvalue at ``mode`` (0 <= mode < N)."""
    if not 0 <= mode < sites:
        raise ValueError(f"mode must lie in [0, {sites}), got {mode}")
    return float(ring_mode_spectrum(g_by_distance, sites)[mode])
