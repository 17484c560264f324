"""Harmonic spring-network view of discretized fractional Brownian chains and rings.

The package builds the first rows of the chain (Toeplitz) and ring
(circulant) increment covariances, and works from them: chain couplings and
spectra through one Toeplitz layer, ring spectra, couplings and admissibility
through one FFT circulant layer, and exact samples by FFT. It converts between
increment-energy matrices and pairwise coupling constants; locates the
critical Hurst index where a chain coupling changes sign; and designs stiff
ring models with controlled long-range repulsion.
"""

__version__ = "0.8.0"

from .circulant import circulant_eigenvalues, mirrored_distance_row, ring_mode_spectrum
from .couplings import (
    chain_coupling_matrix,
    coupling_laplacian,
    coupling_slice,
    couplings_from_energy,
    energy_from_couplings,
)
from .critical import SignChangeQuery, coupling_at, find_critical_hurst
from .errors import (
    FbmSpringError,
    IndefiniteCovariance,
    MissingRingModes,
    NoConvergence,
    NoSignChange,
    NotPositiveDefinite,
    QuadratureFailure,
)
from .kernels import chain_increment_row, ring_increment_row
from .linalg import default_tol_pd, require_symmetric
from .rings import (
    AdmissibilityReport,
    PowerLawDesign,
    check_admissible,
    power_law_ring,
    ring_coupling_profile,
    single_distance_bound,
    stiff_sufficient_bound,
    zeta_minus_one_tail,
)
from .sampling import (
    SampleBatch,
    brownian_bridge_ring,
    covariance_bound,
    fourier_mode_energy,
    piecewise_ring_cov_matrix,
    reflected_brownian_ring,
    sample_circulant,
    sample_toeplitz,
    uniform_ring_grid,
)

__all__ = [
    "__version__",
    # linalg
    "default_tol_pd", "require_symmetric",
    # kernels
    "chain_increment_row", "ring_increment_row",
    # couplings
    "chain_coupling_matrix", "coupling_laplacian", "coupling_slice", "couplings_from_energy",
    "energy_from_couplings",
    # circulant
    "circulant_eigenvalues", "mirrored_distance_row", "ring_mode_spectrum",
    # rings
    "AdmissibilityReport", "PowerLawDesign", "check_admissible", "power_law_ring",
    "ring_coupling_profile", "single_distance_bound", "stiff_sufficient_bound",
    "zeta_minus_one_tail",
    # critical
    "SignChangeQuery", "coupling_at", "find_critical_hurst",
    # sampling
    "SampleBatch", "brownian_bridge_ring", "covariance_bound", "fourier_mode_energy",
    "piecewise_ring_cov_matrix", "reflected_brownian_ring", "sample_circulant", "sample_toeplitz",
    "uniform_ring_grid",
    # errors
    "FbmSpringError", "IndefiniteCovariance", "MissingRingModes", "NoConvergence", "NoSignChange",
    "NotPositiveDefinite", "QuadratureFailure",
]
