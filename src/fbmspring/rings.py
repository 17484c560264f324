"""Cyclic Gaussian spring models with distance-indexed couplings.

A ring model is a size N and an array g_by_distance of one coupling constant
per geodesic distance 1..floor(N/2); ``circulant.mirrored_distance_row``
checks the pair wherever it is unpacked. Its energy matrix is the circulant
Laplacian g*I - G, where G carries the mirrored coupling row and g is G's row
sum; the model is admissible (defines a Gaussian process) iff every energy
eigenvalue apart from the structural zero mode is positive. Besides the exact
mode sweep this module implements two sufficient stability bounds for stiff
profiles (attractive nearest neighbor, repulsive farther couplings):

* per-distance: k^2 g_k / g_1 >= -1,
* summed: g_1 > pi^2 * sum_{k>=2} k^2 |g_k|, with the power-law family
  g_k = -c k^{-gamma} admitting the size-independent form
  g_1 > c pi^2 (zeta(gamma - 2) - 1) whenever gamma > 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .circulant import _half_spectrum, mirrored_distance_row
from .errors import MissingRingModes


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the exact eigenvalue sweep over nonzero modes."""

    admissible: bool
    lambda_min_nonzero: float
    violating_modes: list[int]


@dataclass(frozen=True)
class PowerLawDesign:
    """Power-law ring model together with its two sufficient-bound verdicts."""

    g_by_distance: np.ndarray
    finite_bound_satisfied: bool
    zeta_bound_satisfied: bool | None


def check_admissible(g_by_distance: np.ndarray, sites: int) -> AdmissibilityReport:
    """Sweep all nonzero modes; admissible iff every lambda_m exceeds the FFT's rounding.

    The tolerance is that of ``circulant._half_spectrum`` on the first row
    (0, mirrored g). Degenerate pairs (m, N-m) are counted once, so violating
    modes are reported in 1..floor(N/2); a nan lambda_m violates.
    """
    f, tol = _half_spectrum(mirrored_distance_row(g_by_distance, sites))
    modes = np.arange(1, sites // 2 + 1)
    lam = f[0] - f[1:]
    violating = modes[~(lam > tol)].tolist()
    return AdmissibilityReport(
        admissible=not violating,
        lambda_min_nonzero=float(lam.min()),
        violating_modes=violating,
    )


def stiff_sufficient_bound(g_by_distance: np.ndarray) -> bool | None:
    """Summed sufficient bound g_1 > pi^2 sum k^2 |g_k|, or None if not applicable.

    Applies only to stiff profiles: positive nearest-neighbor coupling and
    nonpositive couplings at every larger distance.
    """
    g = np.asarray(g_by_distance, dtype=float)
    if g.size == 0 or g[0] <= 0.0 or np.any(g[1:] > 0.0):
        return None
    k = np.arange(2, g.size + 1, dtype=float)
    return bool(g[0] > math.pi**2 * float((k**2 * np.abs(g[1:])).sum()))


def single_distance_bound(k: int, g1: float, gk: float) -> bool:
    """Per-distance stability bound k^2 gk / g1 >= -1 for a lone repulsive coupling."""
    if k < 2:
        raise ValueError("the bound concerns distances k >= 2")
    if g1 <= 0.0:
        raise ValueError(f"nearest-neighbor coupling must be positive, got {g1}")
    return k * k * gk / g1 >= -1.0


def zeta_minus_one_tail(s: float) -> float:
    """sum_{k>=2} k^{-s}, i.e. zeta(s) - 1, by direct summation plus tail.

    The tail beyond the cutoff is folded in with an Euler-Maclaurin correction
    (integral + half endpoint + first derivative term), good to well below
    1e-12 relative for every s > 1.
    """
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1, got s = {s}")
    cutoff = 1000
    k = np.arange(2, cutoff, dtype=float)
    head = float((k**-s).sum())
    tail = cutoff ** (1.0 - s) / (s - 1.0) + 0.5 * cutoff**-s + s / 12.0 * cutoff ** (-s - 1.0)
    return head + tail


def power_law_ring(
    sites: int,
    g1: float,
    c: float,
    gamma: float,
    infinite_guarantee: bool = False,
) -> PowerLawDesign:
    """Stiff ring with g_1 = g1 and g_k = -c k^{-gamma} for k >= 2.

    When ``infinite_guarantee`` is set, gamma must exceed 3 so that the
    size-independent bound g1 > c pi^2 (zeta(gamma-2) - 1) is meaningful;
    the bound itself is evaluated whenever gamma > 3.
    """
    half = kernels._ring_half(sites)
    if not g1 > 0.0:
        raise ValueError("g1 must be positive")
    if not c >= 0.0:
        raise ValueError("repulsion amplitude c must be nonnegative")
    if infinite_guarantee and not gamma > 3.0:
        raise ValueError(f"size-independent guarantee needs gamma > 3, got gamma = {gamma}")
    g = np.empty(half)
    g[0] = g1
    k = np.arange(2, half + 1, dtype=float)
    g[1:] = -c * k**-gamma
    zeta_bound = None
    if gamma > 3.0:
        zeta_bound = bool(g1 > c * math.pi**2 * zeta_minus_one_tail(gamma - 2.0))
    return PowerLawDesign(
        g_by_distance=g,
        finite_bound_satisfied=stiff_sufficient_bound(g),
        zeta_bound_satisfied=zeta_bound,
    )


def ring_energy_eigenvalues(sites: int, hurst: float) -> np.ndarray:
    """Energy eigenvalues lambda_0..lambda_{N-1} of a periodic fractional Brownian ring, in mode order.

    The energy matrix is the inverse covariance of the first N - 1 increments,
    so lambda_m = 2 sin^2(theta_m/2) / mu_m, with mu_m the eigenvalues of the
    circulant increment covariance, theta_m = 2 pi m / N and lambda_0 = 0;
    modes 1..floor(N/2) are computed and ``kernels._mirror`` lays them out
    with lambda_m == lambda_{N-m} bitwise.
    Raises MissingRingModes naming each mode m <= N/2 with mu_m at or below
    the tolerance of ``circulant._half_spectrum``, the FFT's rounding error
    times a safety factor: then no Gaussian ring exists.
    That is every even ring at H >= 1/2, and an odd ring above its H_c(N),
    which falls from H_c(3) = 1 through H_c(5) = 0.694 and H_c(9) = 0.548
    toward 1/2.
    """
    mu, tol = _half_spectrum(kernels.ring_increment_row(sites, hurst))
    mu = mu[1:]
    modes = np.arange(1, sites // 2 + 1)
    missing = mu <= tol
    if missing.any():
        raise MissingRingModes([int(m) for m in modes[missing]], float(mu.min()), tol, sites, hurst)
    return kernels._mirror(np.concatenate(([0.0], 2.0 * np.sin(np.pi * modes / sites) ** 2 / mu)), sites)


def ring_coupling_profile(sites: int, hurst: float) -> np.ndarray:
    """Couplings g_1..g_{floor(N/2)} of a periodic fractional Brownian ring, by distance.

    g_k = -1/N sum_m lambda_m cos(theta_m k), the inverse cosine transform of
    :func:`ring_energy_eigenvalues` over all N modes; raises as it does.
    """
    return -_half_spectrum(ring_energy_eigenvalues(sites, hurst))[0][1:] / sites
