"""Command-line front end.

Subcommands build models from flags, run the library pipelines, and emit
figure-ready CSV series plus machine-readable JSON reports. The CLI holds
flags, files, budgets and exit codes; the formula behind each value it
prints, every spectrum and the sample report's verdict included, has its
owner in a library layer. Once a handler
has written the files ``_files`` names, ``main`` writes the run manifest
(``<out>.manifest.json``) when ``--out`` is set, recording the command,
parameters, package version, seed, and output list, and sets the exit status.
Re-running the recorded command reproduces the outputs byte for byte.

CSV conventions: ``#``-prefixed model echo lines, then a header, then rows
with full round-trip precision (17 significant digits) and LF line endings.
Every CSV goes through one writer: it turns blocks of 16384 values into ASCII
with numpy, in scratch arrays that every block reuses, byte for byte what
``'%.17g' %`` prints for each float, and writes the bytes to the file or
stdout, so no text copy of a table is held. It draws a table's first block
before it opens the output: an input that fails there writes nothing.
Each handler imports, in the branch that uses it, only the layers it calls,
and only the CSV writer imports the formatter, so a run compiles and loads
no other part of the package.
Every file (CSV, JSON report, gnuplot script, manifest) is written as
``<name>.partial`` and renamed to ``<name>`` only when it is complete; a run
that fails or is interrupted removes the partial file.
``sample`` draws, writes and checks its batch in row chunks of about 1 MiB
from one Philox stream, so its memory depends on the model's size and not on
``--paths``; only a run that writes a report (``--out`` or ``--report``) sums
the dim×dim Gram matrix and views the reference covariance. A run whose dense
intermediate (that report, or a chain spectrum's half blocks) would exceed
``_DENSE_BUDGET`` exits 2 before it draws, allocates or writes anything.

Exit codes: 0 success, 2 invalid input or model (a ``ValueError``, including
the package errors that reject a model), 3 no result (the bracketed coupling
has no sign change), 4 numerical failure, 141 (128 + SIGPIPE) when the reader
of stdout closes the pipe early, as in ``fbmspring sample ... | head -1``.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import inspect
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FbmSpringError, NoSignChange
from .kernels import _chain_increments, _chain_index, _ring_half, chain_increment_row, ring_increment_row, toeplitz_view

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_RESULT = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader left


def _finite(text: str) -> float:
    """Float flag value; nan and inf would pass every range check downstream."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    """Seed flag value: a Philox key is an integer in [0, 2**128)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 2**128:
        raise argparse.ArgumentTypeError(f"must satisfy 0 <= seed < 2**128, got {text}")
    return value


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _output(path: Path | None):
    """``write(bytes)`` onto stdout for None, or into a file that appears at ``path`` only once the block succeeds."""
    if path is None:
        sys.stdout.flush()  # text already written to stdout goes first
        buffer = getattr(sys.stdout, "buffer", None)  # an io.StringIO redirect has none
        yield buffer.write if buffer is not None else lambda data: sys.stdout.write(data.decode())
        return
    partial = path.with_name(path.name + ".partial")
    try:
        out = partial.open("wb")
    except FileNotFoundError as exc:  # a missing directory: name the file that was asked for
        raise FileNotFoundError(exc.errno, exc.strerror, str(path)) from None
    try:
        with out:
            yield out.write
        os.replace(partial, path)
    except BaseException:  # KeyboardInterrupt too: never leave a truncated file behind
        partial.unlink(missing_ok=True)
        raise


def _write_csv(path: Path | None, echo: dict, header: str, blocks) -> None:
    """Echo lines and header, then one ``%.17g``-formatted line per row of each 2-D block.

    Each block is formatted by one ``BlockFormatter`` in pieces of
    ``BLOCK_VALUES`` values, a row may straddle two, and written as bytes to
    the file (or stdout), so no text copy of the table is ever held and a
    block may be produced after the ones before it are written; the first (a
    table has one or more) is drawn before the output opens. Integral floats
    below 2**53, such as series indices, print as plain integers.
    """
    from ._blockformat import BlockFormatter

    blocks = iter(blocks)
    first = next(blocks)
    formatter = BlockFormatter()
    with _output(path) as write:
        write("".join([*(f"# {key}={value}\n" for key, value in echo.items()), f"{header}\n"]).encode())
        for block in itertools.chain((first,), blocks):
            for text in formatter.rows(block):
                write(text)


def _write_json(path: Path | None, payload: dict) -> None:
    with _output(path) as write:
        write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _files(args: argparse.Namespace) -> dict[str, Path]:
    """Every file the run writes, by the name an error gives it: --out, the files beside it, the manifest last."""
    out, files = args.out, {}
    if out is not None:
        files["--out"] = out
        if getattr(args, "gnuplot", False):
            files["the gnuplot script"] = out.with_suffix(".gp")
    report = getattr(args, "report", None)
    if report is None and out is not None and "report" in vars(args):  # sample reports beside --out
        report = out.with_suffix(".report.json")
    if report is not None:
        files["--report"] = report
    if out is not None:
        files["the manifest"] = out.with_suffix(".manifest.json")
    return files


def _check_distinct(args: argparse.Namespace) -> None:
    """Before anything is written, reject a run two of whose files are one path or that overwrites --g-file."""
    seen = {os.path.abspath(args.g_file): "--g-file"} if getattr(args, "g_file", None) else {}
    for name, path in _files(args).items():
        first = seen.setdefault(os.path.abspath(path), name)
        if first == "--g-file":
            raise ValueError(f"{name} would overwrite --g-file {path}")
        if first != name:
            raise ValueError(f"{first} and {name} would both be written to {path}")


def _write_manifest(args: argparse.Namespace) -> None:
    *outputs, manifest_path = _files(args).values()  # the manifest comes last
    params = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in sorted(vars(args).items())
        if key != "handler" and not key.startswith("_")
    }
    manifest = {
        "command": args.subcommand,
        "parameters": params,
        "artifact_version": __version__,
        "seed": getattr(args, "seed", None),
        "outputs": [p.name for p in outputs],
    }
    _write_json(manifest_path, manifest)


def _write_series(args: argparse.Namespace, echo: dict, xlabel: str, ylabel: str, blocks) -> None:
    """Blocks of integer x and float y rows as a two-column CSV, plus a gnuplot script on --out with --gnuplot."""
    _write_csv(args.out, echo, f"{xlabel},{ylabel}", blocks)
    script = _files(args).get("the gnuplot script")
    if script is not None:
        with _output(script) as write:
            write((
                "set datafile separator ','\n"
                "set key off\n"
                f"set xlabel '{xlabel}'\n"
                f"set ylabel '{ylabel}'\n"
                f"set title '{args.out.name}'\n"
                f"plot '{args.out.name}' using 1:2 with linespoints pt 7\n"
            ).encode())


def _reject_unused(model: str, flags: dict, used) -> None:
    """Reject each flag of ``flags`` that was given (is not None) but is not in ``used``: ``model`` would ignore it."""
    unused = [flag for flag, value in flags.items() if value is not None and flag not in used]
    if unused:
        raise ValueError(f"{model} cannot be combined with {', '.join(unused)}")


#: Largest dense intermediate a run may build, in bytes; a fixed constant, not a flag.
#: The estimates compared with it follow each child process's peak RSS
#: (``ru_maxrss``, 1 BLAS thread, 2-vCPU x86-64 Linux; a bare run peaks at 31 MB):
#: the sample report holds at most eight dim x dim float64 arrays, 64 dim^2 bytes
#: (peaks of 102 and 270 MB at dim 1024 and 2048, 50 paths); a chain
#: spectrum of m monomers about 8 m^2 bytes, or 4 m^2 with --cov (peaks of 65 and
#: 161 MB, and of 48 and 97 MB, at 2049 and 4097 monomers).
_DENSE_BUDGET = 2 * 2**30


def _check_budget(what: str, estimate: int, way_out: str) -> None:
    """Reject (exit 2) a run whose dense intermediate, ``estimate`` bytes, exceeds _DENSE_BUDGET.

    Called before the run draws, allocates or writes anything.
    """
    if estimate > _DENSE_BUDGET:
        raise ValueError(f"{what} would need about {estimate / 2**30:.1f} GiB, over the "
                         f"{_DENSE_BUDGET // 2**30} GiB budget for dense intermediates; {way_out}")


def _resolve_center(monomers: int, center_flag: int | None) -> int:
    """0-based center of a 1-based --center label (None: the middle), after checking the chain's size first."""
    _chain_increments(monomers)
    try:
        return _chain_index(monomers, None if center_flag is None else center_flag - 1)
    except IndexError:
        raise ValueError(f"--center must lie in 1..{monomers}, got {center_flag}") from None


# ----------------------------------------------------------------- couplings

def _cmd_couplings(args: argparse.Namespace) -> None:
    if args.mode == "ring":
        _reject_unused("--mode ring", {"--center": args.center}, ())
    echo = {
        "command": "couplings",
        "mode": args.mode,
        "monomers": args.monomers,
        "hurst": _fmt(args.hurst),
    }
    if args.mode == "chain":
        center = _resolve_center(args.monomers, args.center)
        echo["center"] = center + 1
        from .couplings import chain_coupling_rows

        g = chain_coupling_rows(args.monomers, args.hurst, center, center + 1)[0]
        others = np.delete(np.arange(args.monomers), center)
        x, y = others + 1, g[others]
        xlabel = "index"
    else:
        from .rings import ring_coupling_profile

        y = ring_coupling_profile(args.monomers, args.hurst)
        x = np.arange(1, y.size + 1)
        xlabel = "distance"
    _write_series(args, echo, xlabel, "g", [np.column_stack((x, y))])


# ------------------------------------------------------------------ spectrum

def _parse_g_list(text: str) -> list[float]:
    try:
        return [_finite(tok) for tok in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"could not parse --g value {text!r}: {exc}") from exc


def _parse_g_file(path: Path) -> dict:
    """Model file: ``N=...`` plus ``g<k>=<v>`` / ``g<k> <v>`` / ``<k> <v>`` lines, each key at most once.

    Each value with its line number, under ``"N"`` or its coupling distance.
    """
    entries: dict = {}
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read --g-file {path}: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            if "=" in body:
                key, value = (part.strip() for part in body.split("=", 1))
                if key != "N" and not key.startswith("g"):
                    raise ValueError(f"unknown key {key!r}")
            else:
                parts = body.split()
                if len(parts) != 2:
                    raise ValueError("expected '<k> <value>' pair")
                key, value = parts[0] if parts[0].startswith("g") else "g" + parts[0], parts[1]
            key, value = ("N", int(value)) if key == "N" else (int(key[1:]), _finite(value))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"--g-file {path}:{lineno}: malformed model line {body!r}: {exc}") from exc
        if key in entries:
            name = "N" if key == "N" else f"coupling distance {key}"
            raise ValueError(f"--g-file {path}:{lineno}: {name} given twice, first on line {entries[key][1]}")
        entries[key] = value, lineno
    return entries


def _ring_model_from_args(args: argparse.Namespace) -> tuple[int, np.ndarray]:
    """Ring size and couplings by distance from --sites, --g and --g-file, none of which may give a value twice."""
    entries = {} if args.g_file is None else _parse_g_file(args.g_file)
    sites = args.sites
    if "N" in entries:
        file_sites, lineno = entries.pop("N")
        if sites not in (None, file_sites):
            raise ValueError(f"--sites {sites} and --g-file {args.g_file}:{lineno} give two ring sizes, "
                             f"{sites} and {file_sites}")
        sites = file_sites
    if sites is None:
        raise ValueError("ring size missing: pass --sites or an N= line in --g-file")
    g = np.zeros(_ring_half(sites))
    values = [] if args.g is None else _parse_g_list(args.g)
    if len(values) > g.size:
        raise ValueError(f"got {len(values)} couplings but a ring of {sites} sites has "
                         f"only {g.size} distinct distances")
    g[: len(values)] = values
    for dist, (value, lineno) in entries.items():
        if not 1 <= dist <= g.size:
            raise ValueError(f"coupling distance {dist} outside 1..{g.size} for {sites} sites")
        if dist <= len(values):
            raise ValueError(f"coupling distance {dist} given by --g and by --g-file {args.g_file}:{lineno}")
        g[dist - 1] = value
    return sites, g


def _cmd_spectrum(args: argparse.Namespace) -> None:
    echo: dict = {"command": "spectrum"}
    ring = [flag for flag, value in (("--g", args.g), ("--g-file", args.g_file)) if value is not None]
    if not ring and args.mode is None:
        raise ValueError("spectrum needs either --g/--g-file or --mode with --monomers/--hurst")
    # --sites sizes a --g/--g-file ring and the rest build a --mode model: a flag of the other model is rejected
    flags = {"--sites": args.sites, "--mode": args.mode, "--monomers": args.monomers, "--hurst": args.hurst,
             "--cov": args.cov or None}
    _reject_unused(" and ".join(ring or ["--mode"]), flags, {"--sites"} if ring else flags.keys() - {"--sites"})
    if ring:
        from .circulant import ring_mode_spectrum

        sites, g = _ring_model_from_args(args)
        lam = ring_mode_spectrum(g, sites)
        echo.update(sites=sites, g=",".join(_fmt(v) for v in g))
    elif args.monomers is None or args.hurst is None:
        raise ValueError(f"{args.mode} spectrum needs --monomers and --hurst")
    else:
        monomers, hurst = args.monomers, args.hurst
        if args.mode == "chain":
            per = 4 if args.cov else 8
            _check_budget(f"the chain spectrum of {monomers} monomers", per * monomers**2,
                          f"a chain of at most {int((_DENSE_BUDGET / per) ** 0.5)} monomers fits")
        series = "increment-covariance eigenvalues" if args.cov else "energy eigenvalues"
        echo.update(mode=args.mode, monomers=monomers, hurst=_fmt(hurst),
                    series=series if args.mode == "ring" else f"{series} (ascending)")
        if args.mode == "ring" and args.cov:
            from .circulant import circulant_eigenvalues

            lam = circulant_eigenvalues(ring_increment_row(monomers, hurst))
        elif args.mode == "ring":
            from .rings import ring_energy_eigenvalues

            lam = ring_energy_eigenvalues(monomers, hurst)
        elif args.cov:
            from .linalg import chain_covariance_eigenvalues

            lam = chain_covariance_eigenvalues(monomers, hurst)
        else:
            from .couplings import chain_energy_eigenvalues

            lam = chain_energy_eigenvalues(monomers, hurst)
    _write_series(args, echo, "mode", "lambda", [np.column_stack((np.arange(lam.size), lam))])


# ------------------------------------------------------------------ critical

def _cmd_critical(args: argparse.Namespace) -> None:
    from .critical import coupling_at, find_critical_hurst

    # flags left out take its defaults, which inspect reads through a functools.wraps wrapper
    given = {key: v for key in ("monomers", "offset", "bracket", "tol") if (v := getattr(args, key)) is not None}
    bound = inspect.signature(find_critical_hurst).bind(**given)
    bound.apply_defaults()
    vars(args).update(bound.arguments, center=args.center)  # --center stays 1-based
    center = _resolve_center(args.monomers, args.center)
    try:
        h_star, iterations = find_critical_hurst(**(bound.arguments | dict(center=center, bracket=tuple(args.bracket))))
    except IndexError:  # the center is on the chain, so its partner is not: name both 1-based
        raise ValueError(f"--center {center + 1} and --offset {args.offset} name monomer "
                         f"{center + 1 + args.offset}, outside 1..{args.monomers}") from None
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


# --------------------------------------------------------------- ring design

def _cmd_ring_design(args: argparse.Namespace) -> None:
    from .rings import check_admissible, power_law_ring

    design = power_law_ring(args.sites, args.g1, args.c, args.gamma, args.infinite_guarantee)
    g = design.pop("g_by_distance")
    model = {"sites": args.sites, "g1": args.g1, "c": args.c, "gamma": args.gamma, "g_by_distance": g.tolist()}
    _write_json(args.out, {"model": model, **design, **check_admissible(g, args.sites)})


# -------------------------------------------------------------------- sample

#: Samples per row chunk (1 MiB of float64): a chunk is drawn, written and
#: added to the report before the next is drawn.
_CHUNK_VALUES = 131_072


def _cmd_sample(args: argparse.Namespace) -> None:
    if args.paths < 1:
        raise ValueError("--paths must be >= 1")
    # --grid has a default, so an explicit --grid cannot be told from an unused one
    flags = {"--monomers": args.monomers, "--sites": args.sites, "--hurst": args.hurst}
    used = {"chain": ("--monomers", "--hurst"), "ring": ("--sites", "--hurst")}.get(args.model, ())
    _reject_unused(f"--model {args.model}", flags, used)
    from .sampling import (
        brownian_bridge_ring,
        covariance_report,
        piecewise_ring_cov_matrix,
        reflected_brownian_ring,
        sample_circulant,
        sample_toeplitz,
        uniform_ring_grid,
    )

    echo: dict = {"command": "sample", "model": args.model, "paths": args.paths, "seed": args.seed}
    if args.model == "chain":
        if args.monomers is None or args.hurst is None:
            raise ValueError("chain sampling needs --monomers and --hurst")
        echo.update(monomers=args.monomers, hurst=_fmt(args.hurst))
        model = chain_increment_row(_chain_increments(args.monomers), args.hurst)
        sampler, covariance = sample_toeplitz, toeplitz_view
    elif args.model == "ring":
        if args.sites is None or args.hurst is None:
            raise ValueError("ring sampling needs --sites and --hurst")
        echo.update(sites=args.sites, hurst=_fmt(args.hurst))
        model, sampler, covariance = ring_increment_row(args.sites, args.hurst), sample_circulant, toeplitz_view
    else:  # reflected | bridge positions on a uniform circle grid
        echo.update(grid=args.grid)
        model, covariance = uniform_ring_grid(args.grid), piecewise_ring_cov_matrix
        sampler = reflected_brownian_ring if args.model == "reflected" else brownian_bridge_ring
    dim = model.size
    report_path = _files(args).get("--report")
    if report_path is not None:
        _check_budget(f"the covariance report of {dim} values per path", 64 * dim**2,
                      "write the samples to stdout, without --out or --report, to stream them without a report")
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    rows = max(1, _CHUNK_VALUES // dim)
    gram = None if report_path is None else np.zeros((dim, dim))

    def blocks():
        for start in range(0, args.paths, rows):
            values = sampler(model, min(rows, args.paths - start), rng).values
            if gram is not None:
                gram[...] += values.T @ values
            yield values

    _write_csv(args.out, echo, ",".join(f"v{i}" for i in range(dim)), blocks())
    if report_path is None:  # stdout mode emits the CSV only
        return
    # the reference of a chain or ring is the view row[|i - j|], a ring's row being symmetric
    _write_json(report_path, {"model": {k: v for k, v in echo.items() if k != "command"}, "dim": dim,
                              **covariance_report(gram, args.paths, covariance(model))})


# ------------------------------------------------------------ fourier energy

#: Modes per block of the series: a block is computed and written before the next.
_FOURIER_MODES = 8192


def _cmd_fourier_energy(args: argparse.Namespace) -> None:
    if args.mode_max < 1:
        raise ValueError("--mode-max must be >= 1")
    from .sampling import fourier_mode_energy

    echo = {"command": "fourier-energy", "hurst": _fmt(args.hurst), "mode_max": args.mode_max}

    def series():
        for start in range(1, args.mode_max + 1, _FOURIER_MODES):
            modes = range(start, min(start + _FOURIER_MODES, args.mode_max + 1))
            energies = np.fromiter((fourier_mode_energy(args.hurst, mode) for mode in modes), float, len(modes))
            yield np.column_stack((modes, energies))

    _write_series(args, echo, "mode", "value", series())


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
    # None stands for find_critical_hurst's default, filled in by the handler
    p.add_argument("--monomers", type=int, default=None)
    p.add_argument("--offset", type=int, default=None)
    p.add_argument("--center", type=int, default=None, help="1-based center monomer (default: middle)")
    p.add_argument("--bracket", type=_finite, nargs=2, default=None, metavar=("LO", "HI"))
    p.add_argument("--tol", type=_finite, default=None)
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
    p.add_argument("--seed", type=_seed, default=0)
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


#: Stderr prefix and exit code per group of failure classes; the first match wins.
_FAILURES = {
    (NoSignChange,): ("no result", EXIT_NO_RESULT),
    (ValueError, IndexError, OSError, MemoryError): ("error", EXIT_INVALID),  # MemoryError: an oversized request
    (FbmSpringError,): ("numerical failure", EXIT_NUMERICAL),
}


def _stdout_to_devnull() -> None:
    """Point file descriptor 1 at os.devnull, so that the interpreter's last flush of stdout has nowhere to fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a redirect with no descriptor holds nothing to flush
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    # At exit, freeze what is left so the interpreter's final collections skip
    # the import-time objects instead of freeing them one by one; a process
    # that calls main many times still collects its garbage until it exits.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        _check_distinct(args)
        args.handler(args)
        if args.out is not None:
            _write_manifest(args)
    except BrokenPipeError:  # the reader of stdout left: nothing is wrong with the run
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except tuple(cls for group in _FAILURES for cls in group) as exc:
        prefix, code = next(status for group, status in _FAILURES.items() if isinstance(exc, group))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
