"""Bisection for the Hurst index at which a chain coupling changes sign.

For an open fractional Brownian chain the coupling between the center monomer
and a fixed neighbor is a smooth function of the Hurst index; the third
neighbor's coupling, for example, crosses from repulsive to attractive at
H = 0.75964... for a 61-monomer chain. The search brackets that root by sign
and halves the bracket exactly ceil(log2(width / tol)) times, so the result is
deterministic and the final bracket is no wider than the tolerance, up to the
rounding of its endpoints (under one ulp of the larger bracket end).

Rounded midpoints stop halving a bracket only a few ulps wide, so a tolerance
below ``TOL_FLOOR_ULPS`` ulps of the larger bracket end is rejected before any
chain is built. A sweep over 400 brackets in (0, 1), each with tolerances from
the floor up to the width (including every width / 2**j), found a midpoint
that did not lie strictly inside its bracket for floors of 1 and 1.5 ulps and
none from 2 ulps up; the floor doubles that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .couplings import chain_coupling_rows
from .errors import NoSignChange

#: Smallest accepted ``tol``, in ulps of the larger bracket end.
TOL_FLOOR_ULPS = 4


@dataclass(frozen=True)
class SignChangeQuery:
    """Where to look for a sign change of one coupling constant.

    ``center`` is a 0-based monomer index; None selects the middle monomer.
    ``offset`` is nonzero and names a partner on the chain, left of center
    when negative; construction checks every field.
    ``bracket`` must straddle the sign change of g(center, center + offset).
    ``tol`` must be at least ``TOL_FLOOR_ULPS`` ulps of the larger bracket end.
    """

    monomers: int = 61
    offset: int = 3
    center: int | None = None
    bracket: tuple[float, float] = (0.6, 0.9)
    tol: float = 1e-6

    def __post_init__(self):
        lo, hi = self.bracket
        if not (0.0 < lo < hi < 1.0):
            raise ValueError(f"bracket must satisfy 0 < lo < hi < 1, got {self.bracket}")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        floor = TOL_FLOOR_ULPS * math.ulp(hi)
        if self.tol < floor:
            raise ValueError(
                f"tol {self.tol:.3e} is below the floor {floor:.3e} ({TOL_FLOOR_ULPS} ulps of the "
                f"bracket end {hi}): bisection cannot halve a bracket that narrow"
            )
        _center_index(self.monomers, self.center, self.offset)

    def steps(self) -> int:
        """Bisection steps, ceil(log2(width / tol)), or 0 when the bracket is narrow enough."""
        lo, hi = self.bracket
        width = hi - lo
        return math.ceil(math.log2(width / self.tol)) if width > self.tol else 0

    def resolved_center(self) -> int:
        return _center_index(self.monomers, self.center, self.offset)


def _center_index(monomers: int, center: int | None, offset: int) -> int:
    """0-based center (None: the middle monomer), after checking it and its partner lie on the chain."""
    if monomers < 2:
        raise ValueError("need at least 2 monomers")
    if offset == 0:
        raise ValueError("offset must be nonzero: a monomer has no coupling to itself, got offset 0")
    center = (monomers - 1) // 2 if center is None else center
    if not 0 <= center < monomers:
        raise IndexError(f"center {center} outside 0..{monomers - 1}")
    if not 0 <= center + offset < monomers:
        raise IndexError(f"partner {center + offset} outside 0..{monomers - 1}")
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


def find_critical_hurst(query: SignChangeQuery) -> tuple[float, int]:
    """Bisect the Hurst bracket until the sign-change location is pinned.

    Returns (h_star, iterations) with iterations = ``query.steps()``; h_star
    is the final bracket midpoint. Raises NoSignChange when the endpoint
    couplings do not have strictly opposite signs.
    """
    center = query.resolved_center()
    lo, hi = query.bracket

    def g_at(h: float) -> float:
        return coupling_at(query.monomers, h, center, query.offset)

    f_lo, f_hi = g_at(lo), g_at(hi)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) == (f_hi < 0.0):
        raise NoSignChange(
            f"coupling has no sign change over {query.bracket}: "
            f"g({lo}) = {f_lo:.6e}, g({hi}) = {f_hi:.6e}"
        )
    iterations = query.steps()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = g_at(mid)
        # A zero midpoint value counts as the far side, keeping the root bracketed.
        if f_mid != 0.0 and (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations
