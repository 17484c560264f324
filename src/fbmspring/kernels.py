"""Covariance builders for discretized fractional Brownian chains and rings.

Conventions
-----------
A chain with ``monomers`` positions x_0..x_n has ``n = monomers - 1`` unit-step
increments y_k = x_{k+1} - x_k. The increment covariance of fractional
Brownian motion with Hurst index H is stationary,

    r(d) = (|d+1|^{2H} + |d-1|^{2H}) / 2 - |d|^{2H},

so the chain covariance is Toeplitz with unit diagonal and first row
:func:`chain_increment_row`.

A ring has ``N`` sites at integer positions on a circle of circumference N;
the metric is the geodesic distance d(m) = min(|m| mod N, N - |m| mod N). The
periodic process is pinned at site 0 and its structure function is d^{2H}.
Sites N and 0 coincide (d(N) = 0), so the N increments around the ring sum to
zero and the increment covariance is a singular circulant for every H. Its
first row is the chain row folded at floor(N/2), the one lag with its own term.

Both covariances are stationary, so the pipelines work from their first rows
(:func:`chain_increment_row`, :func:`ring_increment_row`): chain couplings
through the Toeplitz solver in ``linalg``, ring spectra and couplings through
the FFT in ``circulant``, and the chain covariance spectrum from a view of
the first row. Sampling, the one dense consumer left, gathers the matrices,
entry (i, j) = row[|j - i|] or row[(j - i) mod N].

The builders take plain scalars and check them where the row is built: a
chain needs n >= 1 increments, a ring N >= 3 sites, and H may lie anywhere in
(0, 1]. Whether a covariance is actually positive semidefinite is a runtime
verdict, not an input check.
"""

from __future__ import annotations

import numpy as np


def chain_increment_cov(n: int, hurst: float) -> np.ndarray:
    """Toeplitz increment covariance of an open chain of ``n`` increments, shape (n, n)."""
    row = chain_increment_row(n, hurst)
    idx = np.arange(n)
    return row[np.abs(idx[:, None] - idx[None, :])]


def chain_increment_row(n: int, hurst: float) -> np.ndarray:
    """First row r(0), ..., r(n - 1) of :func:`chain_increment_cov`; needs n >= 1."""
    if n < 1:
        raise ValueError("chain needs at least one increment")
    if not 0.0 < hurst <= 1.0:
        raise ValueError(f"hurst must be in (0, 1], got {hurst}")
    h2 = 2.0 * hurst
    d = np.arange(n, dtype=float)
    return 0.5 * np.abs(d + 1.0) ** h2 + 0.5 * np.abs(d - 1.0) ** h2 - d**h2


def ring_increment_cov(sites: int, hurst: float) -> np.ndarray:
    """Circulant increment covariance of the periodic process, shape (N, N).

    First row c_j = (d(j+1)^{2H} + d(j-1)^{2H} - 2 d(j)^{2H}) / 2. Row sums
    vanish (the increments around a closed ring sum to zero), so the matrix is
    singular for every H; for H > 1/2 it generally stops being positive
    semidefinite altogether.
    """
    row = ring_increment_row(sites, hurst)
    idx = np.arange(sites)
    return row[(idx[None, :] - idx[:, None]) % sites]


def ring_increment_row(sites: int, hurst: float) -> np.ndarray:
    """First row of :func:`ring_increment_cov` (length N), the chain row folded at N // 2; needs N >= 3."""
    if sites < 3:
        raise ValueError("a ring needs at least 3 sites")
    half = sites // 2
    row = chain_increment_row(half + 1, hurst)
    near, at = np.array([half - 1, half], dtype=float) ** (2.0 * hurst)
    far = near if sites % 2 == 0 else at  # lag N // 2 + 1 wraps back to N/2 - 1 or (N - 1)/2
    row[half] = 0.5 * ((far + near) - 2.0 * at)
    j = np.arange(sites)
    return row[np.minimum(j, sites - j)]
