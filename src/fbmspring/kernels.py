"""Covariance builders for discretized fractional Brownian chains and rings.

Conventions
-----------
A chain with ``monomers`` positions x_0..x_n has ``n = monomers - 1`` unit-step
increments y_k = x_{k+1} - x_k. The increment covariance of fractional
Brownian motion with Hurst index H is stationary,

    r(d) = (|d+1|^{2H} + |d-1|^{2H}) / 2 - |d|^{2H},

so the chain covariance is Toeplitz with unit diagonal and first row
:func:`chain_increment_row`. Each term is about d^{2H} while r(d) is about
H(2H-1) d^{2H-2}, so the formula as written loses about log10(d^2) digits.
For d >= 2 the row uses the even binomial series instead,

    r(d) = d^{2H} sum_{j>=1} C(2H, 2j) d^{-2j},

whose terms share one sign and shrink at least fourfold per step.

A ring has ``N`` sites at integer positions on a circle of circumference N;
the metric is the geodesic distance d(m) = min(|m| mod N, N - |m| mod N). The
periodic process is pinned at site 0 and its structure function is d^{2H}.
Sites N and 0 coincide (d(N) = 0), so the N increments around the ring sum to
zero and the increment covariance is a singular circulant for every H. Its
first row is the chain row folded at floor(N/2), the one lag with its own term:
(h-1)^{2H} - h^{2H} at h = N/2, computed as h^{2H} expm1(2H log1p(-1/h)), and
half of it at h = (N-1)/2 for odd N.

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

_EPS = float(np.finfo(float).eps)


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
    row = 0.5 * np.abs(d + 1.0) ** h2 + 0.5 * np.abs(d - 1.0) ** h2 - d**h2  # exact enough at d <= 1
    far = d[2:]
    if far.size:
        row[2:] = far**h2 * _even_binomial_sum(far, h2) / (far * far)
    return row


def _even_binomial_sum(d: np.ndarray, h2: float) -> np.ndarray:
    """sum_{j>=1} C(h2, 2j) d^{2-2j} for lags d >= 2, so that r(d) = d^{h2-2} times it.

    The coefficients follow C(h2, 2j) = C(h2, 2j-2) (h2-2j+2)(h2-2j+1) / ((2j-1) 2j).
    For 0 < h2 <= 2 they share one sign, and at d = 2, the slowest lag, each
    term is at most a quarter of the one before; the series stops once that
    lag's term is below eps of its sum (25 terms at most) and is summed by
    Horner's rule from its last term, within 3 ulps of the exact row.
    """
    coefficients, coefficient, at_two = [], 1.0, 0.0
    for j in range(1, 64):
        coefficient *= (h2 - (2 * j - 2)) * (h2 - (2 * j - 1)) / ((2 * j - 1) * (2 * j))
        coefficients.append(coefficient)
        term = coefficient * 0.25**j
        at_two += term
        if not abs(term) > _EPS * abs(at_two):
            break
    u2 = 1.0 / (d * d)
    total = np.full_like(d, coefficients.pop())
    for coefficient in reversed(coefficients):
        total *= u2
        total += coefficient
    return total


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
    h2 = 2.0 * hurst
    if half > 1:
        fold = half**h2 * np.expm1(h2 * np.log1p(-1.0 / half))  # (half - 1)^{2H} - half^{2H}
    else:
        fold = (half - 1.0) ** h2 - half**h2
    # lag N // 2 + 1 wraps back to N/2 - 1, or to (N - 1)/2 and half the difference
    row[half] = fold if sites % 2 == 0 else 0.5 * fold
    j = np.arange(sites)
    return row[np.minimum(j, sites - j)]
