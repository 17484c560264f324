"""Bisection for the Hurst index at which a chain coupling changes sign.

For an open fractional Brownian chain the coupling between the center monomer
and a fixed neighbor is a smooth function of the Hurst index; the third
neighbor's coupling, for example, crosses from repulsive to attractive at
H = 0.75964... for a 61-monomer chain. The search brackets that root by sign
and halves the bracket until it is narrower than the tolerance, so the result
is deterministic and the iteration count is exactly
ceil(log2(width / tol)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .couplings import chain_coupling_matrix
from .errors import MaxIterations, NoSignChange

MAX_BISECTION_STEPS = 200


@dataclass(frozen=True)
class SignChangeQuery:
    """Where to look for a sign change of one coupling constant.

    ``center`` is a 0-based monomer index; None selects the middle monomer.
    ``bracket`` must straddle the sign change of g(center, center + offset).
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
        if self.monomers < 2:
            raise ValueError("need at least 2 monomers")

    def resolved_center(self) -> int:
        center = (self.monomers - 1) // 2 if self.center is None else self.center
        if not 0 <= center < self.monomers:
            raise IndexError(f"center {center} outside 0..{self.monomers - 1}")
        if not 0 <= center + self.offset < self.monomers:
            raise IndexError(
                f"partner {center + self.offset} outside 0..{self.monomers - 1}"
            )
        return center


def coupling_at(monomers: int, hurst: float, center: int | None, offset: int) -> float:
    """One coupling constant from the full chain pipeline.

    Propagates NotPositiveDefinite from the covariance inversion; the chain
    covariance is positive definite for H in (0, 1), so a failure signals a
    numerically ill-conditioned request rather than an invalid model.
    """
    query = SignChangeQuery(monomers=monomers, offset=offset, center=center)
    center_idx = query.resolved_center()
    profile = chain_coupling_matrix(monomers, hurst)
    return float(profile.g[center_idx, center_idx + offset])


def find_critical_hurst(query: SignChangeQuery) -> tuple[float, int]:
    """Bisect the Hurst bracket until the sign-change location is pinned.

    Returns (h_star, iterations); h_star is the final bracket midpoint.
    Raises NoSignChange when the endpoint couplings do not have strictly
    opposite signs, MaxIterations when the tolerance is unreachable.
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
    iterations = 0
    while hi - lo > query.tol:
        if iterations >= MAX_BISECTION_STEPS:
            raise MaxIterations(iterations=iterations, width=hi - lo)
        mid = 0.5 * (lo + hi)
        f_mid = g_at(mid)
        # A zero midpoint value counts as the far side, keeping the root bracketed.
        if f_mid != 0.0 and (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        iterations += 1
    return 0.5 * (lo + hi), iterations
