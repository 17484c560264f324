"""Circulant spectra from the first row, by one real FFT.

A circulant matrix is determined by its first row c_0..c_{N-1}; every further
row is a cyclic shift. A real circulant is symmetric iff c_k == c_{N-k} for
k > 0, and then its eigenvalues are the real cosine transform of the first row,

    lambda_m = sum_k c_k cos(2 pi k m / N),  m = 0..N-1,

with the degeneracy lambda_m == lambda_{N-m}. ``_half_spectrum`` is the one
forward FFT (``np.fft.rfft``), over modes 0..floor(N/2); ``kernels._mirror``
mirrors it onto N/2..N-1, which makes that degeneracy bitwise exact and costs
O(N log N) time and O(N) memory. Its rounding error is about
eps log2(N) sum_k |c_k|, which ``_half_spectrum`` turns into the one
tolerance, for ring verdicts and samples alike, at or below which a computed
eigenvalue cannot be told apart from zero.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import _EPS, _first_row, _mirror, _ring_half

#: Safety factor of the spectrum tolerance over the rfft error scale
#: eps log2(N) sum|c|. The smallest ring increment-covariance eigenvalue is at
#: least 3.2e7 scales for N = 2^3..2^20 and H = 0.01..0.45, and at least 5.5e7
#: scales below zero whenever one is negative above H = 1/2 (N <= 2^16 + 1); the
#: exact zeros of the even Brownian rings (N = 6..2^16) come out at 0.51 scales
#: at most, a ring's mode 0 at 0.36 scales at most (N = 3..2^20), and the zero
#: modes of a rigid rod's (H = 1) Davies-Harte embedding at 1.2e-3 of the
#: tolerance at most (2..300, 1025, 4097 and 16385 monomers).
SPECTRUM_TOL_SAFETY = 64


def _half_spectrum(row: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues mu_0..mu_{N//2} of the circulant with a symmetric ``row``, and the tolerance on them.

    The tolerance is SPECTRUM_TOL_SAFETY * eps * log2(N) * sum|c|: an
    eigenvalue at or below it may be zero. Private, so that a caller on the
    sampling route reaches no public function of this module.
    """
    tol = SPECTRUM_TOL_SAFETY * _EPS * math.log2(row.size) * float(np.abs(row).sum())
    return np.fft.rfft(row).real, tol


def _symmetric_row(first_row: np.ndarray) -> np.ndarray:
    """The row as a float array, after checking it is 1-d, nonempty and symmetric (c[k] == c[N-k] bitwise)."""
    row = _first_row(first_row)
    if not np.array_equal(row[1:], row[:0:-1]):
        raise ValueError("first row must satisfy c[k] == c[N-k] for a real spectrum")
    return row


def circulant_eigenvalues(first_row: np.ndarray) -> np.ndarray:
    """All N eigenvalues of the circulant with ``first_row``, in mode order m = 0..N-1: its rfft, mirrored.

    The row must be 1-d, nonempty and symmetric (c[k] == c[N-k] bitwise).
    """
    row = _symmetric_row(first_row)
    return _mirror(_half_spectrum(row)[0], row.size)


def mirrored_distance_row(g_by_distance: np.ndarray, sites: int) -> np.ndarray:
    """The whole first row c_0..c_{N-1} of a ring's coupling circulant: c_0 = 0, c_k = g_{min(k, N-k)}.

    Needs N >= 3 and one coupling per distance 1..floor(N/2). For even N the
    antipodal coupling g_{N/2} maps onto itself and therefore appears once per
    row.
    """
    half = _ring_half(sites)
    g = np.asarray(g_by_distance, dtype=float)
    if g.ndim != 1 or g.size != half:
        raise ValueError(f"need floor(N/2) = {half} couplings, got shape {g.shape}")
    return _mirror(np.concatenate(([0.0], g)), sites)


def ring_mode_spectrum(g_by_distance: np.ndarray, sites: int) -> np.ndarray:
    """Energy eigenvalues of a distance-coupled ring, all modes m = 0..N-1.

    lambda_m = sum_{k=1}^{N-1} g_k (1 - cos(2 pi k m / N)) over the mirrored
    coupling row, i.e. F_0 - F_m with F the circulant eigenvalues of that row;
    the m = 0 value is the structural zero of the Laplacian, exactly 0.0.
    """
    f = circulant_eigenvalues(mirrored_distance_row(g_by_distance, sites))
    return f[0] - f
