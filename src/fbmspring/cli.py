"""Command-line front end.

Subcommands build models from flags, run the library pipelines, and emit
figure-ready CSV series plus machine-readable JSON reports. Every invocation
that writes files also writes a run manifest (``<out>.manifest.json``)
recording the command, parameters, package version, seed, and output list;
re-running the recorded command reproduces the outputs byte for byte.

CSV conventions: ``#``-prefixed model echo lines, then a header, then rows
with full round-trip precision (17 significant digits) and LF line endings.

Exit codes: 0 success, 2 invalid input or model, 3 no result (e.g. the
bracketed coupling has no sign change), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circulant import Circulant, circulant_eigenvalues, ring_mode_spectrum
from .couplings import chain_coupling_matrix, coupling_laplacian
from .critical import SignChangeQuery, coupling_at, find_critical_hurst
from .errors import (
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
from .kernels import ChainModel, RingGeometry, chain_increment_cov, ring_increment_cov, ring_increment_row
from .linalg import eigen_sym
from .rings import RingModel, check_admissible, power_law_ring, ring_coupling_profile
from .sampling import (
    brownian_bridge_ring,
    covariance_bound,
    empirical_covariance,
    fourier_mode_energy,
    piecewise_ring_cov_matrix,
    reflected_brownian_ring,
    sample_gaussian,
    uniform_ring_grid,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_RESULT = 3
EXIT_NUMERICAL = 4


class CliInputError(Exception):
    """Invalid flags, files, or model parameters (exit code 2)."""


def _finite(text: str) -> float:
    """Float flag value; nan and inf would pass every range check downstream."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path | None, echo: dict, header: str, rows) -> None:
    lines = [f"# {key}={value}" for key, value in echo.items()]
    lines.append(header)
    lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, newline="\n")


def _write_json(path: Path | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, newline="\n")


def _write_manifest(out: Path, command: str, args: argparse.Namespace, outputs: list[Path]) -> None:
    skip = {"handler", "func"}
    params = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in sorted(vars(args).items())
        if key not in skip and not key.startswith("_")
    }
    manifest = {
        "command": command,
        "parameters": params,
        "artifact_version": __version__,
        "seed": getattr(args, "seed", None),
        "outputs": [p.name for p in outputs],
    }
    _write_json(out.with_suffix(".manifest.json"), manifest)


def _write_gnuplot(out: Path, xlabel: str, ylabel: str) -> Path:
    script = out.with_suffix(".gp")
    script.write_text(
        "set datafile separator ','\n"
        "set key off\n"
        f"set xlabel '{xlabel}'\n"
        f"set ylabel '{ylabel}'\n"
        f"set title '{out.name}'\n"
        f"plot '{out.name}' using 1:2 with linespoints pt 7\n",
        newline="\n",
    )
    return script


def _write_series(args: argparse.Namespace, command: str, echo: dict, xlabel: str, ylabel: str, rows) -> None:
    """Two-column CSV; with --out also the manifest and, on --gnuplot, a plot script."""
    _write_csv(args.out, echo, f"{xlabel},{ylabel}", rows)
    if args.out is not None:
        outputs = [args.out]
        if args.gnuplot:
            outputs.append(_write_gnuplot(args.out, xlabel, ylabel))
        _write_manifest(args.out, command, args, outputs)


def _resolve_center(monomers: int, center_flag: int | None) -> int:
    """CLI centers are 1-based monomer labels; internal indices are 0-based."""
    if center_flag is None:
        return (monomers - 1) // 2
    if not 1 <= center_flag <= monomers:
        raise CliInputError(f"--center must lie in 1..{monomers}, got {center_flag}")
    return center_flag - 1


def _ring_profile(sites: int, hurst: float) -> RingModel:
    """Ring couplings; a ring without a Gaussian model is invalid input."""
    try:
        return ring_coupling_profile(sites, hurst)
    except MissingRingModes as exc:
        hint = "; periodic admissibility requires hurst <= 0.5" if hurst > 0.5 else ""
        raise CliInputError(
            f"no Gaussian ring model with {sites} sites at hurst = {hurst}: {exc}{hint}"
        ) from exc


# ----------------------------------------------------------------- couplings

def _cmd_couplings(args: argparse.Namespace) -> int:
    if args.monomers < 3:
        raise CliInputError("--monomers must be >= 3")
    echo = {
        "command": "couplings",
        "mode": args.mode,
        "monomers": args.monomers,
        "hurst": _fmt(args.hurst),
    }
    if args.mode == "chain":
        center = _resolve_center(args.monomers, args.center)
        echo["center"] = center + 1
        profile = chain_coupling_matrix(args.monomers, args.hurst)
        rows = [(i + 1, float(profile.g[center, i])) for i in range(profile.size) if i != center]
        xlabel = "index"
    else:
        rm = _ring_profile(args.monomers, args.hurst)
        rows = [(d + 1, float(g)) for d, g in enumerate(rm.g_by_distance)]
        xlabel = "distance"
    _write_series(args, "couplings", echo, xlabel, "g", rows)
    return EXIT_OK


# ------------------------------------------------------------------ spectrum

def _parse_g_list(text: str) -> list[float]:
    try:
        return [_finite(tok) for tok in text.split(",") if tok.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise CliInputError(f"could not parse --g value {text!r}: {exc}") from exc


def _parse_g_file(path: Path) -> tuple[int | None, dict[int, float]]:
    """Model file: ``N=...`` plus ``g<k>=<v>`` / ``g<k> <v>`` / ``<k> <v>`` lines."""
    sites: int | None = None
    table: dict[int, float] = {}
    try:
        raw = path.read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read --g-file {path}: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            if "=" in body:
                key, value = (part.strip() for part in body.split("=", 1))
                if key in ("N", "n", "sites"):
                    sites = int(value)
                    continue
                if not key.startswith("g"):
                    raise ValueError(f"unknown key {key!r}")
                table[int(key[1:])] = _finite(value)
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError("expected '<k> <value>' pair")
            key = parts[0][1:] if parts[0].startswith("g") else parts[0]
            table[int(key)] = _finite(parts[1])
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise CliInputError(f"--g-file {path}:{lineno}: malformed model line {body!r}: {exc}") from exc
    return sites, table


def _ring_model_from_args(args: argparse.Namespace) -> RingModel:
    sites = args.sites
    table: dict[int, float] = {}
    if args.g_file is not None:
        file_sites, table = _parse_g_file(args.g_file)
        sites = sites if sites is not None else file_sites
    if sites is None:
        raise CliInputError("ring size missing: pass --sites or an N= line in --g-file")
    if sites < 3:
        raise CliInputError("ring size must be >= 3")
    g = np.zeros(sites // 2)
    if args.g is not None:
        values = _parse_g_list(args.g)
        if len(values) > g.size:
            raise CliInputError(
                f"got {len(values)} couplings but a ring of {sites} sites has "
                f"only {g.size} distinct distances"
            )
        g[: len(values)] = values
    for dist, value in table.items():
        if not 1 <= dist <= g.size:
            raise CliInputError(
                f"coupling distance {dist} outside 1..{g.size} for {sites} sites"
            )
        g[dist - 1] = value
    return RingModel(sites=sites, g_by_distance=g)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    echo: dict = {"command": "spectrum"}
    if args.g is not None or args.g_file is not None:
        rm = _ring_model_from_args(args)
        lam = ring_mode_spectrum(rm.g_by_distance, rm.sites)
        echo.update(
            sites=rm.sites,
            g=",".join(_fmt(v) for v in rm.g_by_distance),
        )
    elif args.mode == "ring":
        if args.monomers is None or args.hurst is None:
            raise CliInputError("ring spectrum needs --monomers and --hurst")
        echo.update(mode="ring", monomers=args.monomers, hurst=_fmt(args.hurst))
        if args.cov:
            echo["series"] = "increment-covariance eigenvalues"
            row = ring_increment_row(RingGeometry(args.monomers), args.hurst)
            lam = circulant_eigenvalues(Circulant(first_row=row))
        else:
            echo["series"] = "energy eigenvalues"
            rm = _ring_profile(args.monomers, args.hurst)
            lam = ring_mode_spectrum(rm.g_by_distance, rm.sites)
    elif args.mode == "chain":
        if args.monomers is None or args.hurst is None:
            raise CliInputError("chain spectrum needs --monomers and --hurst")
        echo.update(mode="chain", monomers=args.monomers, hurst=_fmt(args.hurst))
        if args.cov:
            echo["series"] = "increment-covariance eigenvalues (ascending)"
            lam = eigen_sym(chain_increment_cov(ChainModel(args.monomers - 1, args.hurst)))[0]
        else:
            echo["series"] = "energy eigenvalues (ascending)"
            lam = eigen_sym(coupling_laplacian(chain_coupling_matrix(args.monomers, args.hurst)))[0]
    else:
        raise CliInputError("spectrum needs either --g/--g-file or --mode with --monomers/--hurst")
    rows = [(m, float(v)) for m, v in enumerate(lam)]
    _write_series(args, "spectrum", echo, "mode", "lambda", rows)
    return EXIT_OK


# ------------------------------------------------------------------ critical

def _cmd_critical(args: argparse.Namespace) -> int:
    center = _resolve_center(args.monomers, args.center)
    query = SignChangeQuery(
        monomers=args.monomers,
        offset=args.offset,
        center=center,
        bracket=(args.bracket[0], args.bracket[1]),
        tol=args.tol,
    )
    h_star, iterations = find_critical_hurst(query)
    residual = coupling_at(args.monomers, h_star, center, args.offset)
    payload = {
        "model": {
            "monomers": args.monomers,
            "center": center + 1,
            "offset": args.offset,
            "bracket": list(args.bracket),
            "tol": args.tol,
        },
        "h_star": h_star,
        "iterations": iterations,
        "residual_coupling": residual,
    }
    _write_json(args.out, payload)
    if args.out is not None:
        _write_manifest(args.out, "critical", args, [args.out])
    return EXIT_OK


# --------------------------------------------------------------- ring design

def _cmd_ring_design(args: argparse.Namespace) -> int:
    design = power_law_ring(
        sites=args.sites,
        g1=args.g1,
        c=args.c,
        gamma=args.gamma,
        infinite_guarantee=args.infinite_guarantee,
    )
    report = check_admissible(design.model)
    payload = {
        "model": {
            "sites": args.sites,
            "g1": args.g1,
            "c": args.c,
            "gamma": args.gamma,
            "g_by_distance": [float(v) for v in design.model.g_by_distance],
        },
        "finite_bound": design.finite_bound_satisfied,
        "zeta_bound": design.zeta_bound_satisfied,
        "admissible": report.admissible,
        "lambda_min": report.lambda_min_nonzero,
        "violating_modes": report.violating_modes,
    }
    _write_json(args.out, payload)
    if args.out is not None:
        _write_manifest(args.out, "ring-design", args, [args.out])
    return EXIT_OK


# -------------------------------------------------------------------- sample

def _cmd_sample(args: argparse.Namespace) -> int:
    if args.paths < 1:
        raise CliInputError("--paths must be >= 1")
    echo: dict = {"command": "sample", "model": args.model, "paths": args.paths, "seed": args.seed}
    if args.model == "chain":
        if args.monomers is None or args.hurst is None:
            raise CliInputError("chain sampling needs --monomers and --hurst")
        echo.update(monomers=args.monomers, hurst=_fmt(args.hurst))
        reference = chain_increment_cov(ChainModel(args.monomers - 1, args.hurst))
        batch = sample_gaussian(reference, args.paths, args.seed, model_tag="chain")
    elif args.model == "ring":
        if args.sites is None or args.hurst is None:
            raise CliInputError("ring sampling needs --sites and --hurst")
        echo.update(sites=args.sites, hurst=_fmt(args.hurst))
        reference = ring_increment_cov(RingGeometry(args.sites), args.hurst)
        try:
            batch = sample_gaussian(reference, args.paths, args.seed, model_tag="ring")
        except IndefiniteCovariance as exc:
            raise CliInputError(
                f"cannot sample: increment covariance is indefinite "
                f"(min eigenvalue {exc.min_eigenvalue:.6e}); periodic "
                f"admissibility requires hurst <= 0.5, got {args.hurst}"
            ) from exc
    else:  # reflected | bridge positions on a uniform circle grid
        grid = uniform_ring_grid(args.grid)
        echo.update(grid=args.grid)
        reference = piecewise_ring_cov_matrix(grid)
        if args.model == "reflected":
            batch = reflected_brownian_ring(grid, args.paths, args.seed)
        else:
            batch = brownian_bridge_ring(grid, args.paths, args.seed)
    empirical = empirical_covariance(batch)
    bound = covariance_bound(reference, args.paths)
    error = np.abs(empirical - reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, error / np.where(bound > 0, bound, 1.0), np.where(error > 0, np.inf, 0.0))
    report = {
        "model": {k: v for k, v in echo.items() if k != "command"},
        "dim": batch.dim,
        "max_abs_error": float(error.max()),
        "max_error_over_bound": float(ratio.max()),
        "within_bound": bool((error <= bound + 1e-15).all()),
    }
    rows = [tuple(float(v) for v in row) for row in batch.values]
    header = ",".join(f"v{i}" for i in range(batch.dim))
    _write_csv(args.out, echo, header, rows)
    report_path = args.report
    if report_path is None and args.out is not None:
        report_path = args.out.with_suffix(".report.json")
    if report_path is not None:  # stdout mode emits the CSV only
        _write_json(report_path, report)
    if args.out is not None:
        outputs = [args.out] + ([report_path] if report_path is not None else [])
        _write_manifest(args.out, "sample", args, outputs)
    return EXIT_OK


# ------------------------------------------------------------ fourier energy

def _cmd_fourier_energy(args: argparse.Namespace) -> int:
    if args.mode_max < 1:
        raise CliInputError("--mode-max must be >= 1")
    echo = {"command": "fourier-energy", "hurst": _fmt(args.hurst), "mode_max": args.mode_max}
    rows = [(mode, fourier_mode_energy(args.hurst, mode)) for mode in range(1, args.mode_max + 1)]
    _write_series(args, "fourier-energy", echo, "mode", "value", rows)
    return EXIT_OK


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmspring",
        description="Spring-network analysis of discretized fractional Brownian chains and rings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("couplings", help="pairwise coupling series of a chain or ring model")
    p.add_argument("--mode", choices=["chain", "ring"], required=True)
    p.add_argument("--monomers", type=int, required=True, help="number of positions (ring: sites)")
    p.add_argument("--hurst", type=_finite, required=True)
    p.add_argument("--center", type=int, default=None, help="1-based center monomer (chain; default: middle)")
    p.add_argument("--out", type=Path, default=None, help="CSV path (default: stdout)")
    p.add_argument("--gnuplot", action="store_true", help="also write a ready gnuplot script")
    p.set_defaults(handler=_cmd_couplings)

    p = sub.add_parser("spectrum", help="energy or covariance eigenvalues, one row per mode")
    p.add_argument("--sites", type=int, default=None, help="ring size for --g/--g-file models")
    p.add_argument("--g", type=str, default=None, help="comma-separated couplings g1,g2,... (rest zero)")
    p.add_argument("--g-file", type=Path, default=None, help="model file with N=... and g<k>=<value> lines")
    p.add_argument("--mode", choices=["chain", "ring"], default=None)
    p.add_argument("--monomers", type=int, default=None)
    p.add_argument("--hurst", type=_finite, default=None)
    p.add_argument("--cov", action="store_true", help="spectrum of the increment covariance instead of the energy")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("critical", help="bisect the Hurst index where a chain coupling changes sign")
    p.add_argument("--monomers", type=int, default=61)
    p.add_argument("--offset", type=int, default=3)
    p.add_argument("--center", type=int, default=None, help="1-based center monomer (default: middle)")
    p.add_argument("--bracket", type=_finite, nargs=2, default=(0.6, 0.9), metavar=("LO", "HI"))
    p.add_argument("--tol", type=_finite, default=1e-6)
    p.add_argument("--out", type=Path, default=None, help="JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("ring-design", help="build a power-law stiff ring and check admissibility")
    p.add_argument("--g1", type=_finite, required=True)
    p.add_argument("--c", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--infinite-guarantee", action="store_true",
                   help="require the size-independent zeta bound to be meaningful (gamma > 3)")
    p.add_argument("--out", type=Path, default=None, help="JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_ring_design)

    p = sub.add_parser("sample", help="draw exact Gaussian conformations and report covariance errors")
    p.add_argument("--model", choices=["chain", "ring", "reflected", "bridge"], required=True)
    p.add_argument("--monomers", type=int, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--grid", type=int, default=16, help="uniform circle grid size (reflected/bridge)")
    p.add_argument("--hurst", type=_finite, default=None)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="CSV path for the sampled paths (default: stdout)")
    p.add_argument("--report", type=Path, default=None, help="JSON covariance-error report path")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("fourier-energy", help="expected squared Fourier coefficients of the periodic model")
    p.add_argument("--hurst", type=_finite, required=True)
    p.add_argument("--mode-max", type=int, default=20)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(handler=_cmd_fourier_energy)

    return parser


#: Stderr prefix and exit code per failure class; the first match wins.
_INVALID, _NUMERICAL = ("error", EXIT_INVALID), ("numerical failure", EXIT_NUMERICAL)
_FAILURES = {
    CliInputError: _INVALID,
    NoSignChange: ("no result", EXIT_NO_RESULT),
    **dict.fromkeys((IndefiniteCovariance, NonpositiveG1, InvalidExponent, NotSymmetricCirculant), _INVALID),
    **dict.fromkeys((ValueError, IndexError, OSError), _INVALID),
    **dict.fromkeys((NotPositiveDefinite, NoConvergence, QuadratureFailure, MaxIterations), _NUMERICAL),
    FbmSpringError: ("error", EXIT_NUMERICAL),  # safety net for future error types
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(_FAILURES) as exc:
        prefix, code = next(status for cls, status in _FAILURES.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def run() -> None:
    sys.exit(main())
