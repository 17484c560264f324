"""Harmonic spring-network view of discretized fractional Brownian chains and rings.

The package builds the first rows of the chain (Toeplitz) and ring
(circulant) increment covariances, and works from them: chain couplings and
spectra through one Toeplitz layer, ring spectra, couplings and admissibility
through one FFT circulant layer, and exact samples by FFT. It converts between
increment-energy matrices and pairwise coupling constants; locates the
critical Hurst index where a chain coupling changes sign; and designs stiff
ring models with controlled long-range repulsion.

``import fbmspring`` loads only ``errors`` and ``kernels``; every other layer
is imported the first time one of its names, or the layer itself, is looked
up on the package (PEP 562).
"""

__version__ = "0.11.0"

import importlib

from .errors import (
    FbmSpringError,
    IndefiniteCovariance,
    MissingRingModes,
    NoSignChange,
    NotPositiveDefinite,
    QuadratureFailure,
)
from .kernels import chain_increment_row, ring_increment_row

#: The public names of each layer, in the order of ``__all__``.
_EXPORTS = {
    "linalg": ("default_tol_pd", "require_symmetric"),
    "kernels": ("chain_increment_row", "ring_increment_row"),
    "couplings": ("chain_coupling_matrix", "coupling_laplacian", "coupling_slice", "couplings_from_energy",
                  "energy_from_couplings"),
    "circulant": ("circulant_eigenvalues", "mirrored_distance_row", "ring_mode_spectrum"),
    "rings": ("check_admissible", "power_law_ring", "ring_coupling_profile", "single_distance_bound",
              "stiff_sufficient_bound", "zeta_minus_one_tail"),
    "critical": ("coupling_at", "find_critical_hurst"),
    "sampling": ("SampleBatch", "brownian_bridge_ring", "covariance_bound", "fourier_mode_energy",
                 "piecewise_ring_cov_matrix", "reflected_brownian_ring", "sample_circulant", "sample_toeplitz",
                 "uniform_ring_grid"),
    "errors": ("FbmSpringError", "IndefiniteCovariance", "MissingRingModes", "NoSignChange", "NotPositiveDefinite",
               "QuadratureFailure"),
}
_LAYERS = (*_EXPORTS, "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """A layer, or a name of ``__all__``, imported from its layer on first access."""
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # bound like an eager import, so later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
