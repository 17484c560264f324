"""Exception types shared across the package.

A class exists only where a caller can tell its failure apart: it carries
fields a caller reads, or the CLI gives it an exit status of its own. A class
that rejects its input or model is also a ``ValueError``; every other
rejection is a plain ``ValueError``.
"""


class FbmSpringError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(FbmSpringError):
    """A Cholesky pivot (a Durbin prediction error) fell at or below the positive-definiteness tolerance.

    ``pivot_index`` is the 0-based row at which factorization broke down.
    """

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} = {pivot_value:.6e}"
        )


class MissingRingModes(FbmSpringError, ValueError):
    """No Gaussian ring: covariance modes (in 1..floor(N/2)) without positive weight.

    ``min_eigenvalue`` is the smallest covariance eigenvalue among ``modes``
    and ``tol`` the tolerance it was compared with. Above H = 1/2 the message
    adds that only some odd rings have one.
    """

    def __init__(self, modes: list[int], min_eigenvalue: float, tol: float, sites: int, hurst: float):
        self.modes, self.min_eigenvalue, self.tol = modes, min_eigenvalue, tol
        shown = ", ".join(str(m) for m in modes[:8]) + (", ..." if len(modes) > 8 else "")
        hint = "; above hurst = 0.5 only some odd rings have one" if hurst > 0.5 else ""
        super().__init__(
            f"no Gaussian ring model with {sites} sites at hurst = {hurst}: "
            f"ring increment covariance is not positive definite: no positive weight on "
            f"modes {shown} ({len(modes)} modes; smallest eigenvalue {min_eigenvalue:.6e}, "
            f"tolerance {tol:.6e}){hint}",
        )


class NoSignChange(FbmSpringError):
    """Bisection bracket endpoints do not have strictly opposite signs."""


class IndefiniteCovariance(FbmSpringError, ValueError):
    """Requested sampling from a circulant with an eigenvalue below -tol."""

    def __init__(self, min_eigenvalue: float, tol: float):
        self.min_eigenvalue, self.tol = min_eigenvalue, tol
        super().__init__(f"cannot sample: covariance is indefinite: smallest eigenvalue "
                         f"{min_eigenvalue:.6e}, tolerance {tol:.6e}")


class QuadratureFailure(FbmSpringError):
    """A Fourier mode energy did not reach the absolute tolerance ``sampling.MODE_ENERGY_TOL``."""

    def __init__(self, estimate: float, error: float, tol: float):
        self.estimate = estimate
        self.error = error
        self.tol = tol
        super().__init__(
            f"Fourier mode energy error estimate {error:.3e} exceeds tolerance {tol:.3e}"
        )
