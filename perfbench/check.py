"""Output checker: a small numpy reference for every benchmark job.

It never imports ``fbmspring``. Chain couplings come from ``np.linalg.inv``
of the Toeplitz increment covariance, ring couplings from the inverse of the
ring covariance's leading (N-1) block, ring spectra from ``np.fft`` of a
circulant first row, and ``critical`` results from the sign of the reference
coupling on both sides of h*. Sampled paths get structural checks only.
Numbers are compared with a relative tolerance, never as bytes, so a later
structured algorithm that drifts in the last bits still passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special

RTOL = 1e-7  # relative to the largest reference value of the series
# A sample report's within_bound is an elementwise 5-sigma test over dim^2
# entries with no family-wise correction: exact samples of dim 128-256 from
# 2e3 paths read false for 1-2 % of seeds (3 of 150 at dim 256), at an
# error/bound ratio up to 1.05. Exact models must stay within 1.5 (7.5 sigma);
# the bridge control reads 3 or more at these sizes.
FAMILY_RATIO = 1.5


# ----------------------------------------------------------------- references

def chain_cov(n: int, hurst: float) -> np.ndarray:
    d = np.arange(n, dtype=float)
    row = 0.5 * np.abs(d + 1.0) ** (2 * hurst) + 0.5 * np.abs(d - 1.0) ** (2 * hurst) - d ** (2 * hurst)
    idx = np.arange(n)
    return row[np.abs(idx[:, None] - idx[None, :])]


def ring_row(sites: int, hurst: float) -> np.ndarray:
    j = np.arange(-1, sites + 1)
    r = np.abs(j) % sites
    dpow = np.minimum(r, sites - r).astype(float) ** (2 * hurst)
    return 0.5 * (dpow[2:] + dpow[:-2] - 2.0 * dpow[1:-1])


def couplings(energy: np.ndarray) -> np.ndarray:
    """g_kl = -(a_kl + a_{k+1,l+1} - a_{k,l+1} - a_{k+1,l}) / 2, zero diagonal."""
    p = np.pad(energy, 1)
    g = -0.5 * (p[:-1, :-1] + p[1:, 1:] - p[:-1, 1:] - p[1:, :-1])
    np.fill_diagonal(g, 0.0)
    return g


def chain_couplings(monomers: int, hurst: float) -> np.ndarray:
    return couplings(np.linalg.inv(chain_cov(monomers - 1, hurst)))


def ring_couplings(sites: int, hurst: float) -> np.ndarray:
    """Distance-averaged couplings g_1..g_{N/2} of the periodic ring."""
    row = ring_row(sites, hurst)
    idx = np.arange(sites - 1)
    block = row[np.abs(idx[:, None] - idx[None, :])]
    table = couplings(np.linalg.inv(block))
    idx = np.arange(sites)
    return np.array([table[idx, (idx + d) % sites].mean() for d in range(1, sites // 2 + 1)])


def ring_energy_spectrum(g_by_distance: np.ndarray, sites: int) -> np.ndarray:
    k = np.arange(1, sites)
    mirrored = g_by_distance[np.minimum(k, sites - k) - 1]
    return np.fft.fft(np.concatenate(([mirrored.sum()], -mirrored))).real


def fourier_energy(hurst: float, mode: int) -> float:
    value, _ = integrate.quad(lambda x: x ** (2 * hurst), 0.0, math.pi, weight="cos", wvar=mode)
    return -4.0 * math.pi**2 / mode ** (2 * hurst + 1) * value


# -------------------------------------------------------------------- readers

def read_rows(path: Path) -> np.ndarray:
    """Data rows of a CLI CSV file, without the ``#`` echo lines and the header."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _close(got: np.ndarray, ref: np.ndarray, what: str) -> str | None:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return f"{what}: shape {got.shape} != reference {ref.shape}"
    scale = float(np.abs(ref).max(initial=0.0))
    err = float(np.abs(got - ref).max(initial=0.0))
    if not err <= RTOL * scale:
        return f"{what}: max error {err:.3e} exceeds {RTOL:g} x scale {scale:.3e}"
    return None


# ----------------------------------------------------------------- per command

def _couplings(flags: dict, out: Path) -> str | None:
    rows = read_rows(out / "couplings.csv")
    n, h = flags["monomers"], flags["hurst"]
    if flags["mode"] == "chain":
        center = (n - 1) // 2
        ref = np.delete(chain_couplings(n, h)[center], center)
        if not np.array_equal(rows[:, 0], np.delete(np.arange(1, n + 1), center)):
            return "chain couplings: wrong index column"
    else:
        ref = ring_couplings(n, h)
        if not np.array_equal(rows[:, 0], np.arange(1, n // 2 + 1)):
            return "ring couplings: wrong distance column"
    return _close(rows[:, 1], ref, f"{flags['mode']} couplings")


def _spectrum(flags: dict, out: Path) -> str | None:
    rows = read_rows(out / "spectrum.csv")
    if "g" in flags:
        sites = flags["sites"]
        g = np.zeros(sites // 2)
        values = [float(v) for v in flags["g"].split(",")]
        g[: len(values)] = values
        ref = ring_energy_spectrum(g, sites)
    elif flags["mode"] == "ring":
        n, h = flags["monomers"], flags["hurst"]
        if flags.get("cov"):
            ref = np.fft.fft(ring_row(n, h)).real
        else:
            ref = ring_energy_spectrum(ring_couplings(n, h), n)
    else:
        n, h = flags["monomers"], flags["hurst"]
        if flags.get("cov"):
            ref = np.linalg.eigvalsh(chain_cov(n - 1, h))
        else:
            g = chain_couplings(n, h)
            ref = np.linalg.eigvalsh(np.diag(g.sum(axis=1)) - g)
    if not np.array_equal(rows[:, 0], np.arange(ref.size)):
        return "spectrum: wrong mode column"
    return _close(rows[:, 1], ref, "spectrum")


def _critical(flags: dict, out: Path) -> str | None:
    report = json.loads((out / "critical.json").read_text())
    n, offset, tol = flags["monomers"], flags["offset"], flags["tol"]
    center = flags["center"] - 1
    lo, hi = flags["bracket"]
    h = report["h_star"]
    if report["iterations"] != math.ceil(math.log2((hi - lo) / tol)):
        return f"critical: {report['iterations']} iterations for tol {tol}"

    def coupling(hurst: float) -> float:
        return float(chain_couplings(n, hurst)[center, center + offset])

    if (coupling(h - tol) < 0.0) == (coupling(h + tol) < 0.0):
        return f"critical: no sign change of the reference coupling around h* = {h}"
    if abs(report["residual_coupling"] - coupling(h)) > 1e-10:
        return "critical: residual coupling disagrees with the reference"
    return None


def _ring_design(flags: dict, out: Path) -> str | None:
    report = json.loads((out / "design.json").read_text())
    sites, g1, c, gamma = flags["sites"], flags["g1"], flags["c"], flags["gamma"]
    k = np.arange(2, sites // 2 + 1, dtype=float)
    g = np.concatenate(([g1], -c * k**-gamma))
    problem = _close(report["model"]["g_by_distance"], g, "ring-design couplings")
    if problem:
        return problem
    lam = ring_energy_spectrum(g, sites)[1 : sites // 2 + 1]
    if abs(report["lambda_min"] - lam.min()) > RTOL * np.abs(lam).max():
        return "ring-design: lambda_min disagrees with the reference"
    tol = 1e-12 * sites * np.abs(g).max()
    if report["admissible"] != bool((lam > tol).all()):
        return "ring-design: admissibility verdict disagrees with the reference"
    if report["finite_bound"] != bool(g1 > math.pi**2 * float((k**2 * np.abs(g[1:])).sum())):
        return "ring-design: finite bound verdict disagrees with the reference"
    if report["zeta_bound"] != bool(g1 > c * math.pi**2 * (special.zeta(gamma - 2.0) - 1.0)):
        return "ring-design: zeta bound verdict disagrees with the reference"
    return None


def _fourier(flags: dict, out: Path) -> str | None:
    rows = read_rows(out / "fourier.csv")
    modes = np.arange(1, flags["mode_max"] + 1)
    if not np.array_equal(rows[:, 0], modes):
        return "fourier-energy: wrong mode column"
    ref = np.array([fourier_energy(flags["hurst"], int(m)) for m in modes])
    return _close(rows[:, 1], ref, "fourier-energy")


def _sample(flags: dict, out: Path) -> str | None:
    model, paths = flags["model"], flags["paths"]
    dim = flags["monomers"] - 1 if model == "chain" else flags.get("sites", flags.get("grid"))
    report = json.loads((out / "sample.report.json").read_text())
    if report["dim"] != dim:
        return f"sample: report dim {report['dim']} != {dim}"
    ratio = report["max_error_over_bound"]
    if model == "bridge":  # the documented negative control: its covariance is wrong
        if report["within_bound"] or not ratio > FAMILY_RATIO:
            return f"sample: the bridge control reads within_bound, error/bound {ratio}"
    elif not ratio <= FAMILY_RATIO:
        return f"sample: error/bound {ratio} for the exact {model} model"
    closes = model in ("reflected", "bridge")  # the t = 2*pi column is exactly 0
    rows = 0
    with open(out / "sample.csv", "rb") as fh:
        lines = (line for line in fh if not line.startswith(b"#"))
        if next(lines, b"").rstrip(b"\n") != ",".join(f"v{i}" for i in range(dim)).encode():
            return "sample: wrong header"
        for line in lines:
            if line.count(b",") != dim - 1:
                return f"sample: row {rows + 1} does not have {dim} columns"
            if closes and line.rsplit(b",", 1)[-1] not in (b"0\n", b"-0\n"):
                return f"sample: row {rows + 1} does not close at 2*pi"
            rows += 1
    if rows != paths:
        return f"sample: {rows} rows, expected {paths}"
    return None


CHECKS = {
    "couplings": _couplings,
    "spectrum": _spectrum,
    "critical": _critical,
    "ring-design": _ring_design,
    "fourier-energy": _fourier,
    "sample": _sample,
}


def check(job, exit_code: int, out: Path) -> str | None:
    """None when ``job`` behaved as expected in directory ``out``, else why not."""
    if exit_code != job.expect:
        return f"exit code {exit_code}, expected {job.expect}"
    written = sorted(p.name for p in out.iterdir() if p.name not in ("stderr.txt", "spans.tsv"))
    if written != sorted(job.outputs):
        return f"wrote {written}, expected {sorted(job.outputs)}"
    if job.expect != 0:
        return None
    try:
        return CHECKS[job.command](job.flags, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
