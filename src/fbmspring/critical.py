"""Bisection for the Hurst index at which a chain coupling changes sign.

For an open fractional Brownian chain the coupling between the center monomer
and a fixed neighbor is a smooth function of the Hurst index; the third
neighbor's coupling, for example, crosses from repulsive to attractive at
H = 0.75964... for a 61-monomer chain. :func:`find_critical_hurst` brackets
that root by sign and hands it to ``_bisect``, the one owner of the step count
and the tolerance floor. It halves the bracket exactly ceil(log2(width / tol))
times, so the result is deterministic and the final bracket is no wider than
the tolerance, up to the rounding of its endpoints (under one ulp of the larger
bracket end).

Rounded midpoints stop halving a bracket only a few ulps wide, so ``_bisect``
rejects a tolerance below ``TOL_FLOOR_ULPS`` ulps of the larger bracket end
before it evaluates anything. A sweep over 400 brackets in (0, 1), each with
tolerances from the floor up to the width (including every width / 2**j),
found a midpoint that did not lie strictly inside its bracket for floors of 1
and 1.5 ulps and none from 2 ulps up; the floor doubles that.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .couplings import chain_coupling_rows
from .errors import NoSignChange
from .kernels import _chain_increments, _chain_index

#: Smallest accepted ``tol``, in ulps of the larger bracket end.
TOL_FLOOR_ULPS = 4


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, int]:
    """(midpoint, halvings) for a sign change of ``f`` on lo < hi: ceil(log2(width / tol)) halvings, or 0.

    ``tol`` is checked before ``f`` is called. Raises NoSignChange unless f(lo) and f(hi) have strictly opposite signs.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    floor = TOL_FLOOR_ULPS * math.ulp(hi)
    if tol < floor:
        raise ValueError(
            f"tol {tol:.3e} is below the floor {floor:.3e} ({TOL_FLOOR_ULPS} ulps of the "
            f"bracket end {hi}): bisection cannot halve a bracket that narrow"
        )
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) == (f_hi < 0.0):
        raise NoSignChange(
            f"coupling has no sign change over {(lo, hi)}: g({lo}) = {f_lo:.6e}, g({hi}) = {f_hi:.6e}"
        )
    width = hi - lo
    iterations = math.ceil(math.log2(width / tol)) if width > tol else 0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        # A zero midpoint value counts as the far side, keeping the root bracketed.
        if f_mid != 0.0 and (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations


def _center_index(monomers: int, center: int | None, offset: int) -> int:
    """0-based center (None: the middle monomer), after checking the chain, the center and its partner."""
    _chain_increments(monomers)
    if offset == 0:
        raise ValueError("offset must be nonzero: a monomer has no coupling to itself, got offset 0")
    center = _chain_index(monomers, center)
    _chain_index(monomers, center + offset, "partner")
    return center


def coupling_at(monomers: int, hurst: float, center: int | None, offset: int) -> float:
    """One coupling constant from the chain pipeline, in O(n) memory.

    The same bits as the entry of the full coupling table. Propagates
    NotPositiveDefinite from the covariance inversion; the chain covariance is
    positive definite for H in (0, 1), so a failure signals a numerically
    ill-conditioned request rather than an invalid model.
    """
    center = _center_index(monomers, center, offset)
    return float(chain_coupling_rows(monomers, hurst, center, center + 1)[0, center + offset])


def find_critical_hurst(*, monomers: int = 61, offset: int = 3, center: int | None = None,
                        bracket: tuple[float, float] = (0.6, 0.9), tol: float = 1e-6) -> tuple[float, int]:
    """Bisect the Hurst bracket until the sign change of g(center, center + offset) is pinned.

    ``center`` is a 0-based monomer index; None selects the middle monomer.
    ``offset`` is nonzero and names a partner on the chain, left of center
    when negative. ``bracket`` must lie in (0, 1) and straddle the sign
    change; ``tol`` must be at least ``TOL_FLOOR_ULPS`` ulps of its larger
    end. Every argument is checked before any chain is built. Returns
    (h_star, iterations) from ``_bisect``: h_star is the final bracket
    midpoint. Raises NoSignChange when the endpoint couplings do not have
    strictly opposite signs.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"bracket must satisfy 0 < lo < hi < 1, got {bracket}")
    center = _center_index(monomers, center, offset)
    return _bisect(lambda h: coupling_at(monomers, h, center, offset), lo, hi, tol)
