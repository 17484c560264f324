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
the FFT in ``circulant``, and samples by FFT from the row. A dense matrix,
where one is needed, is the read-only view :func:`toeplitz_view`, row[|j - i|];
a ring row is symmetric, so that is row[(j - i) mod N] too. ``_first_row`` is
the one check of a first row a caller passes, ``_mirror`` the one layout of a
symmetric circulant row (ring, coupling, spectrum, Davies-Harte embedding).

The builders take plain scalars and check them where the row is built: a
chain row needs n >= 1 increments, a ring N >= 3 sites (``_ring_half``, the
one check of a ring size), and H may lie anywhere in (0, 1] (``_check_hurst``).
Each chain rule has one owner, for every layer and the CLI: ``_chain_increments``
(at least 2 monomers, n = monomers - 1) and ``_chain_index`` (the middle monomer
by default, and an index on the chain). Whether a covariance is actually
positive semidefinite is a runtime verdict, not an input check.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(float).eps)


def _first_row(first_row: np.ndarray, name: str = "first_row") -> np.ndarray:
    """The row as a float array, after checking it is 1-d and nonempty; an error calls it ``name``."""
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {row.shape}")
    return row


def _check_hurst(hurst: float) -> None:
    """Reject a Hurst index outside (0, 1]."""
    if not 0.0 < hurst <= 1.0:
        raise ValueError(f"hurst must be in (0, 1], got {hurst}")


def _chain_increments(monomers: int) -> int:
    """n = monomers - 1, a chain's number of increments, after checking it has at least 2 monomers."""
    if monomers < 2:
        raise ValueError("a chain needs at least 2 monomers")
    return monomers - 1


def _chain_index(monomers: int, index: int | None, name: str = "center") -> int:
    """A 0-based monomer index (None: the middle one), after checking it lies on the chain; errors call it ``name``."""
    index = (monomers - 1) // 2 if index is None else index
    if not 0 <= index < monomers:
        raise IndexError(f"{name} {index} outside 0..{monomers - 1}")
    return index


def _ring_half(sites: int) -> int:
    """floor(N/2), a ring's number of distinct distances, after checking it has N >= 3 sites."""
    if sites < 3:
        raise ValueError("a ring needs at least 3 sites")
    return sites // 2


def _mirror(half: np.ndarray, size: int) -> np.ndarray:
    """The symmetric circulant row c_0..c_{size-1} with c_k = half[min(k, size - k)], from half[0..size // 2]."""
    k = np.arange(size)
    return half[np.minimum(k, size - k)]


def toeplitz_view(first_row: np.ndarray) -> np.ndarray:
    """Read-only n x n view row[|i - j|] of a first row: row i is a window of (r_{n-1}, ..., r_0, ..., r_{n-1})."""
    row = _first_row(first_row)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((row[:0:-1], row)), row.size)[::-1]


def chain_increment_row(n: int, hurst: float) -> np.ndarray:
    """First row r(0), ..., r(n - 1) of the Toeplitz increment covariance of n chain increments; needs n >= 1."""
    if n < 1:
        raise ValueError("chain needs at least one increment")
    _check_hurst(hurst)
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


def ring_increment_row(sites: int, hurst: float) -> np.ndarray:
    """First row c_0..c_{N-1} of an N-site ring's circulant increment covariance; needs N >= 3.

    It is the chain row folded at N // 2, exactly symmetric (c_j == c_{N-j}).
    """
    half = _ring_half(sites)
    row = chain_increment_row(half + 1, hurst)
    h2 = 2.0 * hurst
    if half > 1:
        fold = half**h2 * np.expm1(h2 * np.log1p(-1.0 / half))  # (half - 1)^{2H} - half^{2H}
    else:
        fold = (half - 1.0) ** h2 - half**h2
    # lag N // 2 + 1 wraps back to N/2 - 1, or to (N - 1)/2 and half the difference
    row[half] = fold if sites % 2 == 0 else 0.5 * fold
    return _mirror(row, sites)
