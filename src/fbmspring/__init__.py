"""Harmonic spring-network view of discretized fractional Brownian chains and rings.

The package converts between covariance matrices, increment-energy matrices,
and pairwise coupling constants; computes ring spectra through their circulant
structure; classifies admissibility; locates the critical Hurst index where a
chain coupling changes sign; designs stiff ring models with controlled
long-range repulsion; and samples conformations exactly.
"""

__version__ = "0.1.0"

from .circulant import (
    Circulant,
    circulant_eigenvalues,
    circulant_eigenvector_basis,
    mirrored_distance_row,
    ring_lambda,
    ring_mode_spectrum,
)
from .couplings import (
    CouplingProfile,
    chain_coupling_matrix,
    coupling_laplacian,
    coupling_slice,
    couplings_from_energy,
    energy_from_couplings,
    position_and_increment_spectra,
)
from .critical import SignChangeQuery, coupling_at, find_critical_hurst
from .errors import (
    DivergentSeries,
    FbmSpringError,
    IndefiniteCovariance,
    InvalidExponent,
    MaxIterations,
    MissingRingModes,
    NoConvergence,
    NonpositiveG1,
    NoSignChange,
    NotPositiveDefinite,
    NotSymmetricCirculant,
    QuadratureFailure,
)
from .kernels import (
    ChainModel,
    RingGeometry,
    chain_increment_cov,
    geodesic_distance,
    ring_increment_cov,
    ring_increment_row,
    ring_position_cov,
)
from .linalg import (
    Definiteness,
    DefinitenessVerdict,
    cholesky,
    classify_definiteness,
    default_tol_pd,
    eigen_sym,
    invert,
    require_symmetric,
    symmetrize,
)
from .rings import (
    AdmissibilityReport,
    PowerLawDesign,
    RingModel,
    build_distance_circulant,
    check_admissible,
    power_law_ring,
    ring_coupling_profile,
    ring_laplacian_circulant,
    single_distance_bound,
    stiff_sufficient_bound,
    zeta_minus_one_tail,
)
from .sampling import (
    SampleBatch,
    brownian_bridge_ring,
    covariance_bound,
    empirical_covariance,
    fourier_mode_energy,
    grid_increments,
    piecewise_ring_cov,
    piecewise_ring_cov_matrix,
    reflected_brownian_ring,
    sample_gaussian,
    uniform_grid_increment_cov,
    uniform_ring_grid,
)

__all__ = [
    "__version__",
    # linalg
    "Definiteness", "DefinitenessVerdict", "cholesky", "classify_definiteness",
    "default_tol_pd", "eigen_sym", "invert", "require_symmetric", "symmetrize",
    # kernels
    "ChainModel", "RingGeometry", "chain_increment_cov", "geodesic_distance",
    "ring_increment_cov", "ring_increment_row", "ring_position_cov",
    # couplings
    "CouplingProfile", "chain_coupling_matrix", "coupling_laplacian",
    "coupling_slice", "couplings_from_energy", "energy_from_couplings",
    "position_and_increment_spectra",
    # circulant
    "Circulant", "circulant_eigenvalues", "circulant_eigenvector_basis",
    "mirrored_distance_row", "ring_lambda", "ring_mode_spectrum",
    # rings
    "AdmissibilityReport", "PowerLawDesign", "RingModel",
    "build_distance_circulant", "check_admissible", "power_law_ring",
    "ring_coupling_profile", "ring_laplacian_circulant", "single_distance_bound",
    "stiff_sufficient_bound", "zeta_minus_one_tail",
    # critical
    "SignChangeQuery", "coupling_at", "find_critical_hurst",
    # sampling
    "SampleBatch", "brownian_bridge_ring", "covariance_bound",
    "empirical_covariance", "fourier_mode_energy", "grid_increments",
    "piecewise_ring_cov", "piecewise_ring_cov_matrix", "reflected_brownian_ring",
    "sample_gaussian", "uniform_grid_increment_cov", "uniform_ring_grid",
    # errors
    "FbmSpringError", "DivergentSeries", "IndefiniteCovariance", "InvalidExponent",
    "MaxIterations", "MissingRingModes", "NoConvergence", "NonpositiveG1", "NoSignChange",
    "NotPositiveDefinite", "NotSymmetricCirculant", "QuadratureFailure",
]
