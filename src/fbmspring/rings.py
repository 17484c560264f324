"""Cyclic Gaussian spring models with distance-indexed couplings.

A ring model assigns one coupling constant per geodesic distance 1..floor(N/2).
Its energy matrix is the circulant Laplacian g*I - G, where G carries the
mirrored coupling row and g is G's row sum; the model is admissible (defines a
Gaussian process) iff every energy eigenvalue apart from the structural zero
mode is positive. Besides the exact mode sweep this module implements two
sufficient stability bounds for stiff profiles (attractive nearest neighbor,
repulsive farther couplings):

* per-distance: k^2 g_k / g_1 >= -1,
* summed: g_1 > pi^2 * sum_{k>=2} k^2 |g_k|, with the power-law family
  g_k = -c k^{-gamma} admitting the size-independent form
  g_1 > c pi^2 (zeta(gamma - 2) - 1) whenever gamma > 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .circulant import Circulant, circulant_eigenvalues, mirrored_distance_row, ring_mode_spectrum
from .errors import DivergentSeries, InvalidExponent, MissingRingModes, NonpositiveG1


@dataclass(frozen=True)
class RingModel:
    """``sites`` monomers on a ring, one coupling per geodesic distance."""

    sites: int
    g_by_distance: np.ndarray

    def __post_init__(self):
        if self.sites < 3:
            raise ValueError("a ring needs at least 3 sites")
        g = np.asarray(self.g_by_distance, dtype=float)
        if g.ndim != 1 or g.size != self.sites // 2:
            raise ValueError(
                f"need floor(N/2) = {self.sites // 2} couplings, got shape {g.shape}"
            )
        object.__setattr__(self, "g_by_distance", g)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the exact eigenvalue sweep over nonzero modes."""

    admissible: bool
    lambda_min_nonzero: float
    violating_modes: list[int]
    sufficient_bound_satisfied: bool | None


@dataclass(frozen=True)
class PowerLawDesign:
    """Power-law ring model together with its two sufficient-bound verdicts."""

    model: RingModel
    finite_bound_satisfied: bool
    zeta_bound_satisfied: bool | None


def build_distance_circulant(rm: RingModel) -> Circulant:
    """Coupling matrix G = circ(0, g_1, ..., g_2, g_1) as a circulant."""
    row = np.concatenate(([0.0], mirrored_distance_row(rm.g_by_distance, rm.sites)))
    return Circulant(first_row=row)


def ring_laplacian_circulant(rm: RingModel) -> Circulant:
    """Energy matrix g*I - G: circ(sum g_k, -g_1, ..., -g_1)."""
    g_row = mirrored_distance_row(rm.g_by_distance, rm.sites)
    return Circulant(first_row=np.concatenate(([g_row.sum()], -g_row)))


def default_admissibility_tol(rm: RingModel) -> float:
    return 1e-12 * rm.sites * float(np.abs(rm.g_by_distance).max(initial=0.0))


def check_admissible(rm: RingModel, tol: float | None = None) -> AdmissibilityReport:
    """Sweep all nonzero modes; admissible iff every lambda_m exceeds ``tol``.

    Degenerate pairs (m, N-m) are counted once, so violating modes are
    reported in 1..floor(N/2); a nan lambda_m violates.
    """
    if tol is None:
        tol = default_admissibility_tol(rm)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    spectrum = ring_mode_spectrum(rm.g_by_distance, rm.sites)
    modes = np.arange(1, rm.sites // 2 + 1)
    lam = spectrum[modes]
    violating = [int(m) for m, v in zip(modes, lam) if not v > tol]
    return AdmissibilityReport(
        admissible=not violating,
        lambda_min_nonzero=float(lam.min()),
        violating_modes=violating,
        sufficient_bound_satisfied=stiff_sufficient_bound(rm),
    )


def stiff_sufficient_bound(rm: RingModel) -> bool | None:
    """Summed sufficient bound g_1 > pi^2 sum k^2 |g_k|, or None if not applicable.

    Applies only to stiff profiles: positive nearest-neighbor coupling and
    nonpositive couplings at every larger distance.
    """
    g = rm.g_by_distance
    if g.size == 0 or g[0] <= 0.0 or np.any(g[1:] > 0.0):
        return None
    k = np.arange(2, g.size + 1, dtype=float)
    return bool(g[0] > math.pi**2 * float((k**2 * np.abs(g[1:])).sum()))


def single_distance_bound(k: int, g1: float, gk: float) -> bool:
    """Per-distance stability bound k^2 gk / g1 >= -1 for a lone repulsive coupling."""
    if k < 2:
        raise ValueError("the bound concerns distances k >= 2")
    if g1 <= 0.0:
        raise NonpositiveG1(f"nearest-neighbor coupling must be positive, got {g1}")
    return k * k * gk / g1 >= -1.0


def zeta_minus_one_tail(s: float) -> float:
    """sum_{k>=2} k^{-s}, i.e. zeta(s) - 1, by direct summation plus tail.

    The tail beyond the cutoff is folded in with an Euler-Maclaurin correction
    (integral + half endpoint + first derivative term), good to well below
    1e-12 relative for every s > 1.
    """
    if s <= 1.0:
        raise DivergentSeries(f"series diverges for s <= 1, got s = {s}")
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
    if not g1 > 0.0:
        raise ValueError("g1 must be positive")
    if not c >= 0.0:
        raise ValueError("repulsion amplitude c must be nonnegative")
    if infinite_guarantee and not gamma > 3.0:
        raise InvalidExponent(
            f"size-independent guarantee needs gamma > 3, got gamma = {gamma}"
        )
    half = sites // 2
    g = np.empty(half)
    if half > 0:
        g[0] = g1
        k = np.arange(2, half + 1, dtype=float)
        g[1:] = -c * k**-gamma
    model = RingModel(sites=sites, g_by_distance=g)
    finite = stiff_sufficient_bound(model)
    zeta_bound = None
    if gamma > 3.0:
        zeta_bound = bool(g1 > c * math.pi**2 * zeta_minus_one_tail(gamma - 2.0))
    return PowerLawDesign(
        model=model,
        finite_bound_satisfied=bool(finite) if finite is not None else True,
        zeta_bound_satisfied=zeta_bound,
    )


def ring_coupling_profile(sites: int, hurst: float) -> RingModel:
    """Distance-indexed couplings of a periodic fractional Brownian ring.

    The energy matrix is the inverse covariance of the first N - 1 increments.
    With mu_m the eigenvalues of the circulant increment covariance and
    theta_m = 2 pi m / N, the couplings are the closed form

        g_k = -1/2 IDFT[2 (1 - cos theta_m) / mu_m]_k,  k = 1..floor(N/2),

    with the m = 0 term zero. Raises MissingRingModes (a NotPositiveDefinite)
    naming each mode m <= N/2 with mu_m <= default_tol_pd(c): then no Gaussian
    ring exists (H > 1/2 apart from small odd rings; even rings at H = 1/2).
    """
    row = kernels.ring_increment_row(kernels.RingGeometry(sites=sites), hurst)
    modes = np.arange(1, sites // 2 + 1)
    mu = circulant_eigenvalues(Circulant(first_row=row))[modes]
    missing = mu <= linalg.default_tol_pd(row)
    if missing.any():
        raise MissingRingModes(modes=[int(m) for m in modes[missing]], min_eigenvalue=float(mu.min()))
    lam = (1.0 - np.cos(2.0 * np.pi * modes / sites)) / mu
    lam_row = np.concatenate(([0.0], mirrored_distance_row(lam, sites)))
    g = -circulant_eigenvalues(Circulant(first_row=lam_row))[modes] / sites
    return RingModel(sites=sites, g_by_distance=g)
