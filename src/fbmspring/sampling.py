"""Exact Gaussian sampling, its statistical error bound, and Fourier mode energies.

Fourier mode energies of the periodic model come, for every mode, from one
closed form in the incomplete gamma function, evaluated by its continued
fraction; see :func:`fourier_mode_energy`.

A batch is checked against its model through the zero-mean covariance
estimate values.T @ values / paths, which callers sum over row chunks, and the
elementwise bound of :func:`covariance_bound`.

Randomness: every batch is drawn from a counter-based Philox bit generator
keyed by the user seed (``numpy.random.Philox``), with normal variates from
numpy's ziggurat transform, and each path uses only its own row of draws.
Results are bit-reproducible for fixed (seed, model, paths). A sampler also
accepts a ``numpy.random.Generator`` in place of the seed and continues its
stream: one Generator passed to consecutive calls gives, row for row, the
batch that the int seed gives in one call, so a large batch can be drawn in
row chunks of bounded size.

Rings (circulant) and chains (Toeplitz) are sampled by one FFT per path from
the first row of their covariance (Davies & Harte 1987; Dietrich & Newsam
1997), so a draw depends on the row only through the circulant's eigenvalues
mu_m. The tolerance on them is the one of every circulant spectrum in the
package, the FFT's rounding error times a safety factor
(``circulant._half_spectrum``): a mode with mu_m below -tol raises
IndefiniteCovariance, and one with mu_m <= tol gets exactly zero weight, so
samples carry none along the null directions.

The reflected construction of the periodic Brownian motion on a circle of
circumference 2*pi runs an ordinary Wiener path up to its half point and
returns along the mirror image: b(t) = B(t) on [0, pi] and
b(t) = B(pi) - B(t - pi) on [pi, 2*pi]. It closes exactly (b(0) = b(2pi) = 0)
and has the piecewise-linear covariance of :func:`piecewise_ring_cov_matrix`.
The rescaled bridge B(t) - t/(2pi) B(2pi), kept here as a negative control,
closes as well but has the wrong covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circulant import _half_spectrum, _symmetric_row
from .errors import IndefiniteCovariance, QuadratureFailure
from .kernels import _EPS, _check_hurst, _first_row, _mirror

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SampleBatch:
    """A block of samples: ``values`` has one row per path and one column per coordinate."""

    values: np.ndarray


def _normals(shape: tuple[int, int], seed: int | np.random.Generator) -> np.ndarray:
    """Standard normals, one row per path, from a Philox stream keyed by ``seed``, or the next ones of a Generator."""
    if shape[0] < 1:
        raise ValueError("paths must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(shape)


def _circulant_rows(row: np.ndarray, paths: int, seed: int | np.random.Generator) -> np.ndarray:
    """``paths`` rows of zero-mean Gaussians whose covariance is the symmetric circulant with first ``row``.

    Each row is one ``np.fft.irfft`` of a complex normal per mode m = 0..N // 2,
    weighted by sqrt(mu_m N / 2), or by sqrt(mu_m N) at the real modes 0 and
    N / 2, whose imaginary parts ``irfft`` discards.
    """
    n = row.size
    mu, tol = _half_spectrum(row)
    if mu.min() < -tol:
        raise IndefiniteCovariance(float(mu.min()), tol)
    modes = np.arange(mu.size)
    weight = np.sqrt(np.where(mu > tol, mu * np.where((modes == 0) | (2 * modes == n), n, n / 2), 0.0))
    spectrum = _normals((paths, 2 * mu.size), seed).view(complex)
    spectrum *= weight
    return np.fft.irfft(spectrum, n=n)


def sample_circulant(first_row: np.ndarray, paths: int, seed: int | np.random.Generator) -> SampleBatch:
    """Exact zero-mean Gaussian samples with the symmetric circulant covariance of ``first_row``.

    The row must be 1-d, nonempty and symmetric (c[k] == c[N-k] bitwise), as
    ``kernels.ring_increment_row`` builds it. ``seed`` is a Philox key or a
    Generator whose stream continues.
    """
    return SampleBatch(values=_circulant_rows(_symmetric_row(first_row), paths, seed))


def sample_toeplitz(first_row: np.ndarray, paths: int, seed: int | np.random.Generator) -> SampleBatch:
    """Exact zero-mean Gaussian samples with the symmetric Toeplitz covariance of ``first_row`` (r_0..r_{n-1}).

    The first n coordinates of a sample of Davies & Harte's circulant embedding
    (r_0..r_{n-1}, r_{n-2}..r_1), positive semidefinite for fractional Gaussian
    noise at every Hurst index (Craigmile 2003); an indefinite one raises
    IndefiniteCovariance. ``seed`` is a Philox key or a continued Generator.
    """
    row = _first_row(first_row)
    embedding = _mirror(row, max(2 * row.size - 2, 1))
    return SampleBatch(values=np.ascontiguousarray(_circulant_rows(embedding, paths, seed)[:, : row.size]))


def covariance_bound(cov: np.ndarray, paths: int) -> np.ndarray:
    """Elementwise five-sigma bound for the zero-mean covariance estimator.

    The estimator variance for Gaussian data is (c_ii c_kk + c_ik^2) / paths.
    """
    cov = np.asarray(cov, dtype=float)
    d = np.diag(cov)
    return 5.0 * np.sqrt((np.outer(d, d) + cov**2) / paths)


def piecewise_ring_cov_matrix(grid: np.ndarray) -> np.ndarray:
    """Covariance of the periodic Brownian motion on [0, 2*pi], pinned at 0, at all grid pairs.

    For ordered arguments s <= t the value is s on the first half, 2*pi - t on
    the second, and the overlap max(pi + s - t, 0) when the arguments straddle
    the half point.
    """
    grid = _check_ring_times(grid)
    s = np.minimum(grid[:, None], grid[None, :])
    t = np.maximum(grid[:, None], grid[None, :])
    straddle = np.maximum(math.pi + s - t, 0.0)
    return np.where(t <= math.pi, s, np.where(s >= math.pi, TWO_PI - t, straddle))


def _check_ring_times(t_grid: np.ndarray) -> np.ndarray:
    """The grid as a float array, after checking it is 1-d, nonempty and in [0, 2*pi]."""
    t_grid = _first_row(t_grid, "t_grid")
    if not np.all((t_grid >= 0.0) & (t_grid <= TWO_PI)):  # also false for nan
        raise ValueError("grid out of range: times must be finite and lie in [0, 2*pi]")
    return t_grid


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of finite floats, without the ``numpy.ma`` import it makes on first use."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _wiener_at(times: np.ndarray, paths: int, seed: int | np.random.Generator) -> np.ndarray:
    """Wiener values (one row per path) at sorted ``times``, which start at 0."""
    z = _normals((paths, times.size - 1), seed)
    z *= np.sqrt(np.diff(times))
    wiener = np.zeros((paths, times.size))
    np.cumsum(z, axis=1, out=wiener[:, 1:])
    return wiener


def reflected_brownian_ring(t_grid: np.ndarray, paths: int, seed: int | np.random.Generator) -> SampleBatch:
    """Sample the reflected periodic Brownian motion at the given times.

    Each path is exact: one Wiener path is evaluated at every needed source
    time (t itself on the outbound half, t - pi on the return half) and the
    two halves are assembled from the same path, so b(0) = b(2*pi) = 0 holds
    exactly per sample. ``seed`` is a Philox key or a Generator whose stream
    continues; each path uses only its own row of draws.
    """
    t_grid = _check_ring_times(t_grid)
    source = np.where(t_grid <= math.pi, t_grid, t_grid - math.pi)
    times = _sorted_unique(np.concatenate(([0.0, math.pi], source)))
    wiener = _wiener_at(times, paths, seed)
    half = wiener[:, np.searchsorted(times, math.pi), None]
    values = wiener[:, np.searchsorted(times, source)]
    np.subtract(half, values, out=values, where=t_grid > math.pi)
    return SampleBatch(values=values)


def brownian_bridge_ring(t_grid: np.ndarray, paths: int, seed: int | np.random.Generator) -> SampleBatch:
    """Rescaled-bridge construction B(t) - t/(2*pi) B(2*pi) (negative control).

    ``seed`` is a Philox key or a Generator whose stream continues.
    """
    t_grid = _check_ring_times(t_grid)
    times = _sorted_unique(np.concatenate(([0.0, TWO_PI], t_grid)))
    wiener = _wiener_at(times, paths, seed)
    values = wiener[:, np.searchsorted(times, t_grid)]
    values -= (t_grid / TWO_PI) * wiener[:, -1:]
    return SampleBatch(values=values)


def uniform_ring_grid(n_points: int) -> np.ndarray:
    """n_points equally spaced times 2*pi*k/n, k = 1..n; the last is exactly 2*pi.

    ``TWO_PI * n / n`` rounds one ulp above 2*pi for n = 13, 26, 47, ...
    """
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    return np.append(TWO_PI * np.arange(1, n_points) / n_points, TWO_PI)


#: Absolute error allowed on a returned mode energy before it raises QuadratureFailure.
MODE_ENERGY_TOL = 1e-10
#: Terms of the incomplete-gamma continued fraction before a mode energy fails (72 suffice
#: for mode 1, the slowest, over H in (0, 1]).
_MAX_FRACTION_TERMS = 1_000


def _gamma_tail_fraction(s: float, z: complex) -> tuple[complex, float]:
    """Gamma(s, z) e^z z^(-s) and its relative error: eps, or inf once the terms run out.

    Legendre's continued fraction 1/(z+1-s- 1(1-s)/(z+3-s- 2(2-s)/(z+5-s- ...)))
    (Abramowitz & Stegun 6.5.31, even part), evaluated by modified Lentz until a
    factor rounds to within eps of 1.
    """
    b = z + 1.0 - s
    c, d = math.inf, 1.0 / b  # Lentz's 1/tiny start: the first c is b_1 itself
    h = d
    for k in range(1, _MAX_FRACTION_TERMS + 1):
        ak = -k * (k - s)
        b += 2.0
        d = 1.0 / (b + ak * d)
        c = b + ak / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h, _EPS
    return h, math.inf


def fourier_mode_energy(hurst: float, mode: int) -> float:
    """Expected squared Fourier coefficient of the periodic model at ``mode``.

    Evaluates -(4 pi^2 / mode^{2H+1}) * integral_0^pi x^{2H} cos(mode x) dx to
    absolute tolerance ``MODE_ENERGY_TOL`` on the returned value. Nonnegative
    for hurst <= 1/2. With a = 2H and z = -i pi mode the integral is the real
    part of (-i mode)^{-a-1} (Gamma(a+1) - Gamma(a+1, z)); two steps of
    Gamma(s, z) = (s-1) Gamma(s-1, z) + z^{s-1} e^{-z} (Abramowitz & Stegun
    6.5.22) turn it into
    -Gamma(a+1) sin(pi a/2) / mode^{a+1}
    + (-1)^mode (a pi^{a-1} / mode^2) (1 + (a-1) Re h), with
    h = Gamma(a-1, z) e^z z^{1-a} from Legendre's continued fraction
    (Abramowitz & Stegun 6.5.31; :func:`_gamma_tail_fraction`). The
    factor a - 1 makes H = 1/2 exact. QuadratureFailure is raised when the
    fraction's error times its weight in the returned value exceeds
    ``MODE_ENERGY_TOL``, or when its terms run out.
    """
    _check_hurst(hurst)
    if mode < 1:
        raise ValueError(f"mode must be >= 1, got {mode}")
    a = 2.0 * hurst
    prefactor = -4.0 * math.pi**2 / mode ** (a + 1.0)
    h, rel_err = _gamma_tail_fraction(a - 1.0, complex(0.0, -math.pi * mode))
    scale = a * math.pi ** (a - 1.0) / mode**2
    tail = scale * (1.0 + (a - 1.0) * h.real)
    value = -math.gamma(a + 1.0) * math.sin(0.5 * math.pi * a) / mode ** (a + 1.0)
    value += tail if mode % 2 == 0 else -tail
    err = abs(prefactor) * scale * abs(a - 1.0) * abs(h) * rel_err
    if not err <= MODE_ENERGY_TOL:  # terms that ran out give inf, or nan (0 * inf) at H = 1/2
        raise QuadratureFailure(estimate=prefactor * value, error=err, tol=MODE_ENERGY_TOL)
    return prefactor * value + 0.0  # an exact zero (even modes at H = 1/2) prints as 0, not -0
