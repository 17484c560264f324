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
zero and the increment covariance is a singular circulant for every H.

Both covariances are stationary, so the pipelines work from their first rows
(:func:`chain_increment_row`, :func:`ring_increment_row`): chain couplings
through the Toeplitz solver in ``linalg``, ring spectra and couplings through
the FFT in ``circulant``. The dense matrices are gathered from those rows,
entry (i, j) = row[|j - i|] or row[(j - i) mod N], for the dense consumers:
sampling and the chain covariance spectrum.

H is accepted anywhere in (0, 1] at construction time; whether a covariance
is actually positive semidefinite is a runtime verdict, not a type constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChainModel:
    """Open chain of ``n`` unit-step increments (n + 1 monomers)."""

    n: int
    hurst: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("chain needs at least one increment")
        if not 0.0 < self.hurst <= 1.0:
            raise ValueError(f"hurst must be in (0, 1], got {self.hurst}")


@dataclass(frozen=True)
class RingGeometry:
    """``sites`` equidistant positions on a circle of circumference ``sites``."""

    sites: int

    def __post_init__(self):
        if self.sites < 3:
            raise ValueError("a ring needs at least 3 sites")


def chain_increment_cov(model: ChainModel) -> np.ndarray:
    """Toeplitz increment covariance of the open chain, shape (n, n)."""
    idx = np.arange(model.n)
    return chain_increment_row(model)[np.abs(idx[:, None] - idx[None, :])]


def chain_increment_row(model: ChainModel) -> np.ndarray:
    """First row r(0), ..., r(n - 1) of :func:`chain_increment_cov` (length n)."""
    h2 = 2.0 * model.hurst
    d = np.arange(model.n, dtype=float)
    return 0.5 * np.abs(d + 1.0) ** h2 + 0.5 * np.abs(d - 1.0) ** h2 - d**h2


def _geodesic_array(sites: int, m: np.ndarray) -> np.ndarray:
    """Geodesic distance for (possibly negative) integer lags, vectorized."""
    r = np.abs(m) % sites
    return np.minimum(r, sites - r)


def ring_increment_cov(geom: RingGeometry, hurst: float) -> np.ndarray:
    """Circulant increment covariance of the periodic process, shape (N, N).

    First row c_j = (d(j+1)^{2H} + d(j-1)^{2H} - 2 d(j)^{2H}) / 2. Row sums
    vanish (the increments around a closed ring sum to zero), so the matrix is
    singular for every H; for H > 1/2 it generally stops being positive
    semidefinite altogether.
    """
    idx = np.arange(geom.sites)
    return ring_increment_row(geom, hurst)[(idx[None, :] - idx[:, None]) % geom.sites]


def ring_increment_row(geom: RingGeometry, hurst: float) -> np.ndarray:
    """First row of :func:`ring_increment_cov` (length N)."""
    if not 0.0 < hurst <= 1.0:
        raise ValueError(f"hurst must be in (0, 1], got {hurst}")
    n = geom.sites
    j = np.arange(-1, n + 1)
    dpow = _geodesic_array(n, j).astype(float) ** (2.0 * hurst)
    return 0.5 * ((dpow[2:] + dpow[:-2]) - 2.0 * dpow[1:-1])
