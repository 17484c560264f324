"""Harmonic spring-network view of discretized fractional Brownian chains and rings.

The package converts between covariance matrices, increment-energy matrices,
and pairwise coupling constants; computes ring spectra through their circulant
structure; classifies admissibility; locates the critical Hurst index where a
chain coupling changes sign; designs stiff ring models with controlled
long-range repulsion; and samples conformations exactly.
"""

__version__ = "0.5.0"

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
    DivergentSeries,
    FbmSpringError,
    IndefiniteCovariance,
    InvalidExponent,
    MissingRingModes,
    NoConvergence,
    NonpositiveG1,
    NoSignChange,
    NotPositiveDefinite,
    NotSymmetricCirculant,
    QuadratureFailure,
)
from .kernels import (
    chain_increment_cov,
    chain_increment_row,
    ring_increment_cov,
    ring_increment_row,
)
from .linalg import (
    Definiteness,
    DefinitenessVerdict,
    classify_definiteness,
    default_tol_pd,
    eigen_sym,
    require_symmetric,
    toeplitz_inverse,
)
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
    sample_gaussian,
    uniform_ring_grid,
)

__all__ = [
    "__version__",
    # linalg
    "Definiteness", "DefinitenessVerdict", "classify_definiteness", "default_tol_pd",
    "eigen_sym", "require_symmetric", "toeplitz_inverse",
    # kernels
    "chain_increment_cov", "chain_increment_row", "ring_increment_cov", "ring_increment_row",
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
    "piecewise_ring_cov_matrix", "reflected_brownian_ring", "sample_gaussian",
    "uniform_ring_grid",
    # errors
    "FbmSpringError", "DivergentSeries", "IndefiniteCovariance", "InvalidExponent",
    "MissingRingModes", "NoConvergence", "NonpositiveG1", "NoSignChange",
    "NotPositiveDefinite", "NotSymmetricCirculant", "QuadratureFailure",
]
