"""Transform between increment-energy matrices and pairwise spring couplings.

A quadratic energy (y, A y) in the increments y_k = x_k - x_{k-1} of n + 1
monomer positions can always be rewritten as a sum of harmonic pair
potentials over the positions,

    (y, A y) = sum over ordered pairs (k, l) of  g_kl (x_k - x_l)^2,

with a symmetric, zero-diagonal coupling table g. Positive g_kl is an
attractive spring between monomers k and l, negative g_kl a repulsive one.
Both directions of the transform are implemented here, together with the
position-space quadratic form matrix (the weighted Laplacian of the coupling
graph, written by one routine for a whole table or a chain's leading band of
rows, whose spectrum :func:`chain_energy_eigenvalues` gives) and the
figure-style slice of one monomer's couplings to all others.
One builder writes any band of coupling rows from energy rows read in order,
a dense matrix's or, in :func:`chain_coupling_rows`, the chain's stream of
:func:`~fbmspring.linalg.toeplitz_inverse_rows`: it holds two energy rows and
stops reading after the band, so one monomer's couplings cost O(n) memory.

Tables and energy matrices are plain arrays. Each function checks the array
its caller passes once (square, exactly symmetric, and for a coupling table a
zero diagonal); the chain pipeline builds its symmetric inverse itself and
checks nothing after it.

Sum conventions: the identity above runs over ordered pairs, so the energy
written over unordered pairs (k > l) is half of (y, A y). The Laplacian built
by :func:`coupling_laplacian` represents the unordered-pair sum, hence
``x.T @ L @ x == 0.5 * (D x, A D x)`` with D the forward-difference map.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import kernels, linalg


def _check_table(g: np.ndarray) -> np.ndarray:
    """A coupling table as a float array, after checking it is square, symmetric and zero-diagonal."""
    g = linalg.require_symmetric(g)
    if np.any(np.diag(g) != 0.0):
        raise ValueError("coupling table must have a zero diagonal")
    return g


def _coupling_rows(energy_rows: Iterator[np.ndarray], n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start <= k < stop`` of :func:`couplings_from_energy` from an n x n energy matrix's rows, in order.

    Row k needs energy rows k - 1 and k (zero beyond the chain ends): those two
    are held, zero-padded, and nothing is read after row stop - 1. The formula
    is elementwise, so a band is the same bits as the whole table, and grouping
    (same) - (cross) keeps a whole table bitwise symmetric.
    """
    g = np.empty((stop - start, n + 1))
    previous = current = np.zeros(n + 2)  # padded energy rows k - 1 and k
    for k in range(stop):
        previous, current = current, np.zeros(n + 2)
        if k < n:
            current[1:-1] = next(energy_rows)
        if k >= start:
            row = g[k - start]
            np.add(previous[:-1], current[1:], out=row)
            row -= previous[1:] + current[:-1]
            row *= -0.5
            row[k] = 0.0
    return g


def couplings_from_energy(a: np.ndarray) -> np.ndarray:
    """Pairwise couplings reproducing the increment energy (y, A y).

    For an n x n symmetric matrix ``a`` (indexed by increments 1..n, with
    entries taken as zero outside that range) the coupling between monomers
    k and l (0..n) is

        g_kl = -(a_{k,l} + a_{k+1,l+1} - a_{k,l+1} - a_{k+1,l}) / 2.

    The returned (n + 1) x (n + 1) table is exactly symmetric with a zero
    diagonal.
    """
    a = linalg.require_symmetric(a)
    return _coupling_rows(iter(a), a.shape[0], 0, a.shape[0] + 1)


def energy_from_couplings(g: np.ndarray) -> np.ndarray:
    """Increment-energy matrix recovering the couplings (inverse transform).

    For s <= t (1-based increment indices) the entry is

        a_st = 2 * sum_{i < s} sum_{k >= t} g_ik,

    mirrored to the lower triangle.
    """
    g = _check_table(g)
    n = g.shape[0] - 1
    # suffix sum over columns, then prefix sum over rows:
    # w[r, c] = sum_{i <= r} sum_{k >= c} g[i, k]
    w = np.cumsum(np.cumsum(g[:, ::-1], axis=1)[:, ::-1], axis=0)
    upper = 2.0 * w[0:n, 1 : n + 1]
    a = np.triu(upper)
    return a + np.triu(a, 1).T


def coupling_laplacian(g: np.ndarray) -> np.ndarray:
    """Position-space quadratic form matrix of the coupling graph.

    L = diag(row sums of g) - g, so that x.T @ L @ x equals the energy summed
    over unordered pairs. The constant vector is always a zero mode: shifting
    every monomer together costs nothing. L is exactly symmetric because g is.
    """
    return _laplacian_rows(_check_table(g).copy())


def _laplacian_rows(g: np.ndarray) -> np.ndarray:
    """diag(row sums) - g in place, over leading rows 0..k of a zero-diagonal coupling table: row i's sum at (i, i)."""
    sums = g.sum(axis=1)
    np.fill_diagonal(np.subtract(0.0, g, out=g), sums)
    return g


def coupling_slice(g: np.ndarray, center: int) -> list[tuple[int, float]]:
    """Couplings of one monomer to all the others, in index order."""
    g = _check_table(g)
    center = kernels._chain_index(g.shape[0], center)
    return [(i, float(g[center, i])) for i in range(g.shape[0]) if i != center]


def chain_coupling_rows(monomers: int, hurst: float, start: int, stop: int) -> np.ndarray:
    """Couplings of monomers ``start <= k < stop`` (0-based) to every monomer: rows of the chain's table.

    The same bits as :func:`chain_coupling_matrix`'s rows, from the stream of
    energy rows (:func:`~fbmspring.linalg.toeplitz_inverse_rows`) read up to
    row stop - 1, in O(n^2) time; beside the band it holds O(n) memory.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"chain couplings need 0 < hurst < 1 (a rigid rod at 1), got hurst = {hurst}")
    n = kernels._chain_increments(monomers)
    row = kernels.chain_increment_row(n, hurst)
    if not 0 <= start <= stop <= monomers:
        raise IndexError(f"rows {start}..{stop} outside 0..{monomers}")
    return _coupling_rows(linalg.toeplitz_inverse_rows(row), n, start, stop)


def chain_coupling_matrix(monomers: int, hurst: float) -> np.ndarray:
    """Full coupling table of a fractional Brownian chain, all rows of :func:`chain_coupling_rows`.

    Pipeline: Toeplitz increment covariance -> inverse (energy matrix) ->
    couplings, in O(n^2) time from the covariance's first row. ``monomers``
    counts positions, so the covariance has monomers - 1 rows. The
    Gohberg-Semencul inverse is exactly symmetric, so nothing is checked.
    """
    return chain_coupling_rows(monomers, hurst, 0, monomers)


def chain_energy_eigenvalues(monomers: int, hurst: float) -> np.ndarray:
    """Ascending eigenvalues of a chain's coupling Laplacian, the first its structural zero mode.

    A chain read from the other end is the same chain, so the Laplacian is
    centrosymmetric: its leading ceil(m/2) rows, from that band of
    :func:`chain_coupling_rows`, hold the whole spectrum, which
    :func:`~fbmspring.linalg.centrosymmetric_eigenvalues` splits into two
    half-size blocks. About 8 m^2 bytes, in O(m^3) time.
    """
    rows = chain_coupling_rows(monomers, hurst, 0, monomers - monomers // 2)
    return linalg.centrosymmetric_eigenvalues(_laplacian_rows(rows))
