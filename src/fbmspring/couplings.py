"""Transform between increment-energy matrices and pairwise spring couplings.

A quadratic energy (y, A y) in the increments y_k = x_k - x_{k-1} of n + 1
monomer positions can always be rewritten as a sum of harmonic pair
potentials over the positions,

    (y, A y) = sum over ordered pairs (k, l) of  g_kl (x_k - x_l)^2,

with a symmetric, zero-diagonal coupling table g. Positive g_kl is an
attractive spring between monomers k and l, negative g_kl a repulsive one.
Both directions of the transform are implemented here, together with the
position-space quadratic form matrix (the weighted Laplacian of the coupling
graph) and the figure-style slice of one monomer's couplings to all others.

Sum conventions: the identity above runs over ordered pairs, so the energy
written over unordered pairs (k > l) is half of (y, A y). The Laplacian built
by :func:`coupling_laplacian` represents the unordered-pair sum, hence
``x.T @ L @ x == 0.5 * (D x, A D x)`` with D the forward-difference map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, linalg


@dataclass(frozen=True)
class CouplingProfile:
    """Symmetric pairwise couplings between ``size`` monomers, zero diagonal."""

    g: np.ndarray

    def __post_init__(self):
        g = linalg.require_symmetric(self.g)
        if np.any(np.diag(g) != 0.0):
            raise ValueError("coupling table must have a zero diagonal")
        object.__setattr__(self, "g", g)

    @property
    def size(self) -> int:
        return self.g.shape[0]


def couplings_from_energy(a: np.ndarray) -> CouplingProfile:
    """Pairwise couplings reproducing the increment energy (y, A y).

    For an n x n symmetric matrix ``a`` (indexed by increments 1..n, with
    entries taken as zero outside that range) the coupling between monomers
    k and l (0..n) is

        g_kl = -(a_{k,l} + a_{k+1,l+1} - a_{k,l+1} - a_{k+1,l}) / 2.

    The returned table is exactly symmetric with a zero diagonal.
    """
    a = linalg.require_symmetric(a)
    n = a.shape[0]
    padded = np.zeros((n + 2, n + 2))
    padded[1 : n + 1, 1 : n + 1] = a
    # Grouping (same) - (cross) keeps the table bitwise symmetric; working in
    # place holds at most the padded copy and two tables at once.
    g = padded[:-1, :-1] + padded[1:, 1:]
    cross = padded[:-1, 1:] + padded[1:, :-1]
    del padded
    g -= cross
    del cross
    g *= -0.5
    np.fill_diagonal(g, 0.0)
    return CouplingProfile(g=g)


def energy_from_couplings(profile: CouplingProfile) -> np.ndarray:
    """Increment-energy matrix recovering the couplings (inverse transform).

    For s <= t (1-based increment indices) the entry is

        a_st = 2 * sum_{i < s} sum_{k >= t} g_ik,

    mirrored to the lower triangle.
    """
    g = profile.g
    n = profile.size - 1
    if n == 0:
        return np.zeros((0, 0))
    # suffix sum over columns, then prefix sum over rows:
    # w[r, c] = sum_{i <= r} sum_{k >= c} g[i, k]
    w = np.cumsum(np.cumsum(g[:, ::-1], axis=1)[:, ::-1], axis=0)
    upper = 2.0 * w[0:n, 1 : n + 1]
    a = np.triu(upper)
    return a + np.triu(a, 1).T


def coupling_laplacian(profile: CouplingProfile) -> np.ndarray:
    """Position-space quadratic form matrix of the coupling graph.

    L = diag(row sums of g) - g, so that x.T @ L @ x equals the energy summed
    over unordered pairs. The constant vector is always a zero mode: shifting
    every monomer together costs nothing. L is exactly symmetric because g is.
    """
    g = profile.g
    return np.diag(g.sum(axis=1)) - g


def coupling_slice(profile: CouplingProfile, center: int) -> list[tuple[int, float]]:
    """Couplings of one monomer to all the others, in index order."""
    if not 0 <= center < profile.size:
        raise IndexError(f"center must lie in [0, {profile.size}), got {center}")
    return [(i, float(profile.g[center, i])) for i in range(profile.size) if i != center]


def chain_coupling_matrix(monomers: int, hurst: float) -> CouplingProfile:
    """Full coupling table of a fractional Brownian chain.

    Pipeline: Toeplitz increment covariance -> inverse (energy matrix) ->
    couplings, in O(n^2) time from the covariance's first row. ``monomers``
    counts positions, so the covariance has monomers - 1 rows.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"chain couplings need 0 < hurst < 1 (a rigid rod at 1), got hurst = {hurst}")
    model = kernels.ChainModel(n=monomers - 1, hurst=hurst)
    return couplings_from_energy(linalg.toeplitz_inverse(kernels.chain_increment_row(model)))

