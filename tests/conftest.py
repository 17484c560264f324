import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fbmspring.circulant import mirrored_distance_row
from fbmspring.couplings import chain_coupling_matrix, coupling_laplacian
from fbmspring.kernels import ring_increment_row
from fbmspring.linalg import toeplitz_inverse_rows
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


#: Ring sizes at which each use of ``kernels._mirror`` is checked against the expression it replaced.
MIRRORED_SIZES = (3, 4, 7, 64, 1025, 65536)


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


def toeplitz_dense(row):
    """Dense symmetric Toeplitz matrix with first row ``row``: entry (i, j) is row[|i - j|]."""
    row = np.asarray(row, dtype=float)
    idx = np.arange(row.size)
    return row[np.abs(idx[:, None] - idx[None, :])]


def inverse_table(row):
    """Every row ``linalg.toeplitz_inverse_rows`` yields, stacked: the inverse of the Toeplitz matrix of ``row``."""
    return np.array(list(toeplitz_inverse_rows(row)))


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


def exact_chain_row(n, hurst):
    """r(d) = ((d+1)^{2H} + |d-1|^{2H}) / 2 - d^{2H} for d < n in 40-digit mpmath, at the exact double ``hurst``."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        h2 = 2 * mp.mpf(hurst)
        dpow = [mp.mpf(d) ** h2 for d in range(n + 1)]
        return [(dpow[d + 1] + dpow[abs(d - 1)]) / 2 - dpow[d] for d in range(n)]


def exact_ring_row(sites, hurst):
    """Ring increment row straight from geodesic distances in 40-digit mpmath, the oracle for the folded chain row.

    c_j = (d(j+1)^{2H} + d(j-1)^{2H} - 2 d(j)^{2H}) / 2.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        h2 = 2 * mp.mpf(hurst)
        dpow = [mp.mpf(d) ** h2 for d in range(sites // 2 + 1)]
        lags = geodesic_lags(sites, np.arange(-1, sites + 1)).tolist()
        return [(dpow[lags[j + 2]] + dpow[lags[j]]) / 2 - dpow[lags[j + 1]] for j in range(sites)]


def ulps_off(got, exact):
    """How many units in the last place of each exact (mpmath) value a float64 array is off by."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        err = np.array([float(abs(mp.mpf(float(g)) - e)) for g, e in zip(got, exact)])
    return err / np.spacing(np.abs(np.array([float(e) for e in exact])))


def extended_center_couplings(row, center):
    """Couplings of monomer ``center`` to every monomer of a chain with Toeplitz first row ``row``, in np.longdouble.

    The package's pipeline run in extended precision: the Durbin recursion,
    the Gohberg-Semencul rows of R^-1 up to row ``center``, and the second
    difference of rows center - 1 and center. ``row`` holds exact numbers
    (mpmath), each entered as the longdouble nearest its double-double. Where
    longdouble is float64 this is the float64 pipeline fed an exact row.
    """
    r = np.array([np.longdouble(float(v)) + np.longdouble(float(v - float(v))) for v in row])
    n = r.size
    a, e = np.zeros(n, dtype=np.longdouble), r[0]
    a[0] = 1
    for k in range(1, n):
        kappa = -(a[:k] @ r[k:0:-1]) / e
        a[: k + 1] = a[: k + 1] + kappa * a[k::-1]
        e = e * (1 - kappa * kappa)
    b = np.concatenate(([np.longdouble(0)], a[:0:-1]))
    padded = np.zeros((2, n + 2), dtype=np.longdouble)  # rows center - 1 and center, zero beyond the ends
    energy = np.zeros(n, dtype=np.longdouble)
    for i in range(min(center + 1, n)):
        shifted = np.concatenate(([np.longdouble(0)], energy[:-1]))
        energy = a[i] * a - b[i] * b + shifted
        if i >= center - 1:
            padded[i - center + 1, 1:-1] = energy / e
    previous, current = padded
    g = -((previous[:-1] + current[1:]) - (previous[1:] + current[:-1])) / 2
    g[center] = 0
    return g


def ring_laplacian_circulant(g_by_distance, sites):
    """First row of the ring energy matrix g*I - G: (sum g_k, -g_1, ..., -g_1)."""
    g_row = mirrored_distance_row(g_by_distance, sites)
    return np.concatenate(([g_row.sum()], -g_row[1:]))


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
