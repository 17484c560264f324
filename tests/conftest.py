import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fbmspring.circulant import mirrored_distance_row
from fbmspring.couplings import chain_coupling_matrix, coupling_laplacian
from fbmspring.kernels import ring_increment_row
from fbmspring.sampling import TWO_PI

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(scale=scale, size=(n, n))
    return (a + a.T) / 2.0


def random_spd(rng, n, jitter=0.5):
    b = rng.normal(size=(n, n))
    return (b @ b.T + b.T @ b) / 2.0 + jitter * np.eye(n)


def random_coupling_profile(rng, size, scale=1.0):
    g = random_symmetric(rng, size, scale)
    np.fill_diagonal(g, 0.0)
    return g


def same_bits(x, y):
    """Equal shapes and equal float64 bit patterns (so -0.0 differs from 0.0)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def chain_laplacian_rows(monomers, hurst):
    """Leading ceil(n/2) rows of a chain's coupling Laplacian, sliced from the whole table."""
    return coupling_laplacian(chain_coupling_matrix(monomers, hurst))[: monomers - monomers // 2]


def full_matrix_split(a):
    """Eigenvalues of an exactly centrosymmetric matrix by the reflection split, read from the whole matrix.

    The blocks A + CJ and A - CJ as ``linalg.centrosymmetric_eigenvalues``
    built them from the full matrix before it took leading rows; the oracle
    for spectra that must keep their bits.
    """
    a = np.asarray(a, dtype=float)
    assert np.array_equal(a, a.T) and np.array_equal(a, a[::-1, ::-1])
    half = a.shape[0] // 2
    leading, mirrored = a[:half, :half], a[:half, : -half - 1 : -1]
    even, odd = leading + mirrored, leading - mirrored
    if a.shape[0] % 2:
        middle = np.sqrt(2.0) * a[:half, half]
        even = np.block([[even, middle[:, None]], [middle, a[half, half]]])
    w = np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)))
    w.sort()
    return w


# Dense and Monte Carlo oracles. The package works from first rows and sums
# Gram matrices itself; these build the full objects the tests compare with.

def circulant_dense(row):
    """Dense circulant with first row ``row``: entry (i, j) is row[(j - i) mod N]."""
    row = np.asarray(row, dtype=float)
    idx = np.arange(row.size)
    return row[(idx[None, :] - idx[:, None]) % row.size]


def ring_position_cov(sites, hurst):
    """Position covariance of the pinned periodic process, shape (N, N).

    Entry (k, l) is (d(k)^{2H} + d(l)^{2H} - d(k-l)^{2H}) / 2 with d the
    geodesic distance from site 0; row and column 0 are identically zero.
    """
    lag = np.abs(np.subtract.outer(np.arange(sites), np.arange(sites)))
    dpow = np.minimum(lag, sites - lag).astype(float) ** (2.0 * hurst)
    return (dpow[0][:, None] + dpow[0][None, :] - dpow) / 2.0


def geodesic_lags(sites, m):
    """Geodesic distance min(|m| mod N, N - |m| mod N) of integer lags on an N-site ring."""
    r = np.abs(m) % sites
    return np.minimum(r, sites - r)


def ring_increment_row_geodesic(sites, hurst):
    """Ring increment row straight from geodesic distances, the oracle for the folded chain row.

    c_j = ((d(j+1)^{2H} + d(j-1)^{2H}) - 2 d(j)^{2H}) / 2, evaluated in that order.
    """
    j = np.arange(-1, sites + 1)
    dpow = geodesic_lags(sites, j).astype(float) ** (2.0 * hurst)
    return 0.5 * ((dpow[2:] + dpow[:-2]) - 2.0 * dpow[1:-1])


def ring_laplacian_circulant(g_by_distance, sites):
    """First row of the ring energy matrix g*I - G: (sum g_k, -g_1, ..., -g_1)."""
    g_row = mirrored_distance_row(g_by_distance, sites)
    return np.concatenate(([g_row.sum()], -g_row))


def uniform_grid_increment_cov(n_increments, hurst=0.5):
    """Circulant increment covariance of the periodic model on a uniform grid.

    Spacing h = 2*pi/n on the circumference-2*pi circle. Arc distances are h
    times integer-ring distances, so the first row is h^{2H} times that of the
    n-site integer ring.
    """
    scale = (TWO_PI / n_increments) ** (2.0 * hurst)
    return circulant_dense(scale * ring_increment_row(n_increments, hurst))


def grid_increments(batch):
    """Per-path increments including the step from the implicit start at 0."""
    return np.diff(batch.values, axis=1, prepend=0.0)


def empirical_covariance(batch):
    """Zero-mean covariance estimate values.T @ values / paths."""
    return batch.values.T @ batch.values / len(batch.values)
