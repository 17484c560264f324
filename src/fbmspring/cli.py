"""Command-line front end.

Subcommands build models from flags, run the library pipelines, and emit
figure-ready CSV series plus machine-readable JSON reports. Once a handler
has written the files ``_files`` names, ``main`` writes the run manifest
(``<out>.manifest.json``) when ``--out`` is set, recording the command,
parameters, package version, seed, and output list, and sets the exit status.
Re-running the recorded command reproduces the outputs byte for byte.

CSV conventions: ``#``-prefixed model echo lines, then a header, then rows
with full round-trip precision (17 significant digits) and LF line endings.
Every CSV goes through one writer: it turns blocks of 16384 values into ASCII
with numpy, in scratch arrays that every block reuses, byte for byte what
``'%.17g' %`` prints for each float, and writes the bytes to the file or
stdout, so no text copy of a table is held.
Every file (CSV, JSON report, gnuplot script, manifest) is written as
``<name>.partial`` and renamed to ``<name>`` only when it is complete; a run
that fails or is interrupted removes the partial file.
``sample --model reflected|bridge`` draws, writes and checks its batch in row
chunks of about 1 MiB taken from one Philox stream, so its memory depends on
``--grid`` and not on ``--paths``; chain and ring batches are one chunk.

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
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .circulant import circulant_eigenvalues, mirrored_distance_row, ring_mode_spectrum
from .couplings import chain_coupling_rows
from .critical import SignChangeQuery, coupling_at, find_critical_hurst
from .errors import FbmSpringError, NoSignChange
from .kernels import chain_increment_cov, chain_increment_row, ring_increment_cov, ring_increment_row
from .linalg import centrosymmetric_eigenvalues
from .rings import check_admissible, power_law_ring, ring_coupling_profile, ring_energy_eigenvalues
from .sampling import (
    brownian_bridge_ring,
    covariance_bound,
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader left


class CliInputError(ValueError):
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


#: Values per formatted block: sets the size of ``_BlockFormatter``'s scratch arrays.
_BLOCK_VALUES = 16_384
_U64 = np.uint64
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp splits a double into two 26-bit halves


# Indexed by k = 16 - x for decimal exponents x in -5..16: every 10**k, k <= 22,
# is an exact double; and its two Veltkamp halves.
_POW10 = np.array([float(10**k) for k in range(22)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_QUADS = np.arange(10_000, dtype=np.int64)
_ZEROS4 = sum((_QUADS % 10**i == 0).astype(np.int64) for i in range(1, 5))
# "%04d" of 0..9999 as four ASCII bytes, first digit lowest, and in bits 32 and
# up the number of digits up to the last nonzero one (-16 for 0000).
_GROUP = (sum((_QUADS // 10**(3 - b) % 10 + 48) << (8 * b) for b in range(4))
          | (np.where(_QUADS > 0, 4 - _ZEROS4, -16) << 32))


def _cell_masks() -> list[np.ndarray]:
    """The masks that lay out a cell, one array per mask, row 17 * k + last for exponent x = 16 - k.

    A cell is 26 bytes, NUL where nothing prints, read as three little-endian
    words and two bytes: byte 0 the sign, bytes 1..5 the "0.000" prefix of
    exponents -4..-1, byte 7 the leading digit (digit 0), words 1 and 2
    (``q1``, ``q2``) digits 1..16 and byte 25 the separator. Digits behind
    digit ``last`` are cleared, and the point after digit s = x < ``last``
    moves the digits behind it up one byte, into byte 24 at most.
    """
    k, last = np.divmod(np.arange(22 * 17), 17)
    x = 16 - k
    s = np.where((x >= 0) & (x < last), x, 16)
    low_bytes = np.array([(1 << (8 * b)) - 1 for b in range(9)], dtype=_U64)  # the low b bytes of a word

    def low(b):
        return low_bytes[np.clip(b, 0, 8)]

    def point(at):  # "." at byte ``at`` of a word, and nothing where ``at`` lies outside 0..7
        return np.where((at >= 0) & (at < 8), _U64(ord(".")) << (8 * np.clip(at, 0, 7)).astype(_U64), _U64(0))

    prefix = [int.from_bytes(b"\0" + b"0." + b"0" * (-1 - x), "little") if x < 0 else 0 for x in range(16, -6, -1)]
    keep1, keep2 = low(last), low(last - 8)
    move1, move2 = ~low(s + 1), ~low(s - 7)
    eight, top = _U64(8), _U64(56)
    return [
        np.array(prefix, dtype=_U64)[k],  # word 0: the prefix
        keep1 & low(s),  # word 1: the digits of q1 that stay,
        (keep1 << eight) & move1,  # those that move up a byte,
        point(s),  # and the point
        keep2 & low(s - 8),  # word 2: the same for q2,
        (keep2 << eight) & move2,
        (keep1 >> top) & move2,  # with q1's last digit moving in,
        point(np.where(s < 16, s - 8, -1)),
        np.where(s < 16, keep2 >> top, _U64(0)),  # byte 24: q2's last digit, moved out of word 2
    ]


_PREFIX, _STAY1, _MOVE1, _POINT1, _STAY2, _MOVE2, _CARRY2, _POINT2, _CARRY3 = _cell_masks()


def _scaled(a, k, p, t, u, v, w) -> None:
    """``a * 10**k`` as ``p + t`` exactly, with ``p`` the rounded product (Dekker), written into ``p`` and ``t``.

    ``u``, ``v`` and ``w`` are scratch arrays of ``a``'s size; ``a`` is left
    holding its low Veltkamp half.
    """
    np.take(_POW10, k, out=u, mode="clip")
    np.multiply(a, u, out=p)
    np.multiply(a, _SPLIT, out=v)
    np.subtract(v, a, out=w)
    np.subtract(v, w, out=v)  # the high half of a
    a -= v
    np.take(_POW10_HI, k, out=u, mode="clip")
    np.take(_POW10_LO, k, out=w, mode="clip")
    np.multiply(v, u, out=t)
    t -= p
    v *= w
    t += v
    u *= a
    t += u
    w *= a
    t += w


def _product(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_scaled`` into new arrays, leaving ``a`` as it was."""
    p, t, u, v, w = np.empty((5, a.size))
    _scaled(a.copy(), k, p, t, u, v, w)
    return p, t


def _exact_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` and ``k`` of values in [9e-5, 1e17) in size that the fast path cannot trust, and which ``%`` must print.

    ``log10`` can miss x by one next to a power of ten, so x moves until
    ``p + t`` lies in [1e16, 1e17), and a value that rounds up to 10**17
    carries into x. The values whose x ends at -5 are flagged, with the n and
    k of a zero.
    """
    a = np.abs(values)
    k = 16 - np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int64)
    p, t = _product(a, k)
    low = (p < 1e16) | ((p == 1e16) & (t < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0.0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += low[fix].astype(np.int64) - high[fix].astype(np.int64)
        p[fix], t[fix] = _product(a[fix], k[fix])
    n = p.astype(np.int64) + np.rint(t).astype(np.int64)  # p is even, so rint's ties to even are n's
    carry = n == 10**17
    n[carry] = 10**16
    k -= carry
    slow = k > 20
    n[slow] = 0
    k[slow] = 16
    return n, k, slow


class _BlockFormatter:
    """Formats tables as CSV rows, block by block, in scratch arrays it keeps.

    Every block of ``_BLOCK_VALUES`` values is formatted in the same arrays,
    written with ``out=``, so the pages a block needs stay mapped from one
    block to the next instead of going back to the kernel and being faulted
    in again. The arrays hold the largest block formatted so far, so a short
    table allocates only what it uses. ``text`` holds one 26-byte cell per
    value, laid out as ``_cell_masks`` says, and ``words`` views it as each
    cell's three words and its last two bytes.
    """

    size = 0

    def rows(self, block: np.ndarray) -> Iterator[bytearray]:
        """``",".join(["%.17g"] * dim) + "\n"`` of each row of a 2-D block, in pieces of ``_BLOCK_VALUES`` values."""
        dim = block.shape[1]
        flat = np.ascontiguousarray(block, dtype=np.float64).ravel()
        if self.size < min(flat.size, _BLOCK_VALUES):
            self._allocate(min(flat.size, _BLOCK_VALUES))
        for start in range(0, flat.size, _BLOCK_VALUES):
            yield self._format(flat[start : start + _BLOCK_VALUES], start % dim, dim)

    def _allocate(self, size: int) -> None:
        self.size = size
        self.floats = np.empty((7, size))
        self.ints = np.empty((9, size), dtype=np.int64)
        self.flags = np.empty((2, size), dtype=bool)
        self.text = bytearray(26 * size)
        self.cells = np.frombuffer(self.text, dtype=np.uint8).reshape(size, 26)
        self.words = [np.ndarray(size, dtype, self.text, offset, (26,))
                      for dtype, offset in ((_U64, 0), (_U64, 8), (_U64, 16), (np.uint16, 24))]

    def _format(self, values: np.ndarray, column: int, dim: int) -> bytearray:
        """ASCII of at most ``_BLOCK_VALUES`` consecutive values of a row-major table of ``dim`` columns.

        ``values[0]`` lies in ``column``; each value is followed by "," or, in
        the last column, by a line feed. ``%.17g`` prints a finite value in
        fixed notation when its decimal exponent x after rounding to 17 digits
        lies in -4..16. For those values and for zeros the digits come from
        integer arithmetic: ``|v| * 10**k``, k = 16 - x, is split exactly into
        a double ``p`` and its error ``t``, rounded half to even as Python's
        ``dtoa`` does, and laid out through the byte tables above. Where ``p``
        lies inside (1e16, 1e17), as it does for almost every value,
        ``log10``'s x is right, ``p`` is even and the digits are
        ``p + rint(t)``, with no carry. Every other value goes through
        ``_exact_digits``, and those it flags (nan, inf, exponent notation,
        subnormals) are formatted with ``%`` one at a time and spliced in.
        """
        m = values.size
        a, p, t, u, v, w, f = self.floats[:, :m]
        k, n, lead, g1, g2, g3, g4, quad, c = self.ints[:, :m]
        inside, flag = self.flags[:, :m]
        word = [w[:m] for w in self.words]
        np.abs(values, out=a)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # nan, inf and 0 are not inside
            np.log10(a, out=f)
            np.floor(f, out=f)
            np.subtract(16.0, f, out=f)
            np.clip(f, 0.0, 20.0, out=f)
            np.copyto(k, f, casting="unsafe")  # nan casts to any k; its p is not inside
            _scaled(a, k, p, t, u, v, w)
            np.greater(p, 1e16, out=inside)
            np.less(p, 1e17, out=flag)
            inside &= flag
            np.rint(t, out=t)
            np.copyto(n, p, casting="unsafe")
            np.copyto(g1, t, casting="unsafe")
        n += g1
        at = np.flatnonzero(np.logical_not(inside, out=flag))
        n[at] = 0  # zeros print as "0", and so do the values % prints until they are spliced in
        k[at] = 16
        edge = np.abs(values[at])
        fixed = (edge >= 9e-5) & (edge < 1e17)  # x lies in -5..16, and nan is not fixed
        slow = at[~fixed & (edge != 0.0)]
        at = at[fixed]
        if at.size:
            n[at], k[at], flagged = _exact_digits(values[at])
            slow = np.concatenate((slow, at[flagged]))
        # the 17 digits of n: a leading digit, then four groups of four
        np.floor_divide(n, 10**16, out=lead)
        np.multiply(lead, 10**16, out=g1)
        n -= g1
        np.floor_divide(n, 10**8, out=g2)
        np.multiply(g2, 10**8, out=g1)
        np.subtract(n, g1, out=g4)
        np.floor_divide(g2, 10**4, out=g1)
        np.multiply(g1, 10**4, out=g3)
        g2 -= g3
        np.floor_divide(g4, 10**4, out=g3)
        np.multiply(g3, 10**4, out=n)
        g4 -= n
        # q1, q2: digits 1..8 and 9..16 as ASCII words; c: the layout row 17 * k + last
        q1, q2, h = g1.view(_U64), g3.view(_U64), n.view(_U64)
        np.subtract(16, k, out=c)  # x: the integer digits always print
        np.maximum(c, 0, out=c)
        for low, high, first in ((g1, g2, 0), (g3, g4, 8)):  # q1 from groups 1 and 2, q2 from 3 and 4
            for group, digits in ((low, first), (high, first + 4)):
                np.take(_GROUP, group, out=quad, mode="clip")
                np.right_shift(quad, 32, out=n)
                n += digits
                np.maximum(c, n, out=c)
                if group is low:
                    np.bitwise_and(quad, 0xFFFFFFFF, out=low)
            np.left_shift(quad.view(_U64), _U64(32), out=h)
            np.bitwise_or(low.view(_U64), h, out=low.view(_U64))
        np.multiply(k, 17, out=n)
        c += n
        r, s = g2.view(_U64), g4.view(_U64)
        np.take(_PREFIX, c, out=r, mode="clip")
        np.add(lead, 48, out=lead)
        np.left_shift(lead.view(_U64), _U64(56), out=s)
        r |= s
        np.signbit(values, out=flag)
        np.multiply(flag, _U64(ord("-")), out=s)
        np.bitwise_or(r, s, out=word[0])
        np.take(_STAY1, c, out=r, mode="clip")
        r &= q1
        np.take(_MOVE1, c, out=s, mode="clip")
        np.left_shift(q1, _U64(8), out=h)
        s &= h
        r |= s
        np.take(_POINT1, c, out=s, mode="clip")
        np.bitwise_or(r, s, out=word[1])
        np.take(_STAY2, c, out=r, mode="clip")
        r &= q2
        np.take(_MOVE2, c, out=s, mode="clip")
        np.left_shift(q2, _U64(8), out=h)
        s &= h
        r |= s
        np.take(_CARRY2, c, out=s, mode="clip")
        np.right_shift(q1, _U64(56), out=h)
        s &= h
        r |= s
        np.take(_POINT2, c, out=s, mode="clip")
        np.bitwise_or(r, s, out=word[2])
        np.take(_CARRY3, c, out=r, mode="clip")
        np.right_shift(q2, _U64(56), out=h)
        r &= h
        r |= _U64(ord(",") << 8)
        np.copyto(word[3], r, casting="unsafe")
        word[3][(dim - 1 - column) % dim :: dim] ^= np.uint16((ord(",") ^ ord("\n")) << 8)
        if slow.size:
            spliced = b"".join((b"%.17g" % v).ljust(25, b"\0") for v in values[slow].tolist())
            self.cells[slow, :25] = np.frombuffer(spliced, dtype=np.uint8).reshape(-1, 25)
        # a bytearray keeps its buffer when translate shrinks it, so the heap keeps its pages too
        text = self.text if m == self.size else self.text[: 26 * m]
        return text.translate(None, b"\0")


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

    Each block is formatted by one ``_BlockFormatter`` in pieces of
    ``_BLOCK_VALUES`` values, a row may straddle two, and written as bytes to
    the file (or stdout), so no text copy of the table is ever held and a
    block may be produced after the ones before it are written. Integral
    floats below 2**53, such as series indices, print as plain integers.
    """
    formatter = _BlockFormatter()
    with _output(path) as write:
        write("".join([*(f"# {key}={value}\n" for key, value in echo.items()), f"{header}\n"]).encode())
        for block in blocks:
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
            raise CliInputError(f"{name} would overwrite --g-file {path}")
        if first != name:
            raise CliInputError(f"{first} and {name} would both be written to {path}")


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


def _write_series(args: argparse.Namespace, echo: dict, xlabel: str, ylabel: str, x, y) -> None:
    """Integer ``x`` and float ``y`` as a two-column CSV, plus a gnuplot script on --out with --gnuplot."""
    _write_csv(args.out, echo, f"{xlabel},{ylabel}", [np.column_stack((x, y))])
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


def _resolve_center(monomers: int, center_flag: int | None) -> int:
    """CLI centers are 1-based monomer labels; internal indices are 0-based."""
    if center_flag is None:
        return (monomers - 1) // 2
    if not 1 <= center_flag <= monomers:
        raise CliInputError(f"--center must lie in 1..{monomers}, got {center_flag}")
    return center_flag - 1


# ----------------------------------------------------------------- couplings

def _cmd_couplings(args: argparse.Namespace) -> None:
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
        g = chain_coupling_rows(args.monomers, args.hurst, center, center + 1)[0]
        others = np.delete(np.arange(args.monomers), center)
        x, y = others + 1, g[others]
        xlabel = "index"
    else:
        y = ring_coupling_profile(args.monomers, args.hurst)
        x = np.arange(1, y.size + 1)
        xlabel = "distance"
    _write_series(args, echo, xlabel, "g", x, y)


# ------------------------------------------------------------------ spectrum

def _parse_g_list(text: str) -> list[float]:
    try:
        return [_finite(tok) for tok in text.split(",")]
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


def _ring_model_from_args(args: argparse.Namespace) -> tuple[int, np.ndarray]:
    """Ring size and couplings by distance from --sites, --g and --g-file."""
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
    return sites, g


def _cmd_spectrum(args: argparse.Namespace) -> None:
    echo: dict = {"command": "spectrum"}
    ring = [flag for flag, value in (("--g", args.g), ("--g-file", args.g_file)) if value is not None]
    if not ring and args.mode is None:
        raise CliInputError("spectrum needs either --g/--g-file or --mode with --monomers/--hurst")
    # --sites sizes a --g/--g-file ring and the rest build a --mode model: a flag of the other model is rejected
    flags = {"--sites": args.sites, "--mode": args.mode, "--monomers": args.monomers, "--hurst": args.hurst,
             "--cov": args.cov or None}
    unused = [flag for flag, value in flags.items() if value is not None and (flag == "--sites") != bool(ring)]
    if unused:
        raise CliInputError(f"{' and '.join(ring or ['--mode'])} cannot be combined with {', '.join(unused)}")
    if ring:
        sites, g = _ring_model_from_args(args)
        lam = ring_mode_spectrum(g, sites)
        echo.update(sites=sites, g=",".join(_fmt(v) for v in g))
    elif args.monomers is None or args.hurst is None:
        raise CliInputError(f"{args.mode} spectrum needs --monomers and --hurst")
    else:
        monomers, hurst = args.monomers, args.hurst
        series = "increment-covariance eigenvalues" if args.cov else "energy eigenvalues"
        echo.update(mode=args.mode, monomers=monomers, hurst=_fmt(hurst),
                    series=series if args.mode == "ring" else f"{series} (ascending)")
        if args.mode == "ring" and args.cov:
            lam = circulant_eigenvalues(ring_increment_row(monomers, hurst))
        elif args.mode == "ring":
            lam = np.concatenate(([0.0], mirrored_distance_row(ring_energy_eigenvalues(monomers, hurst), monomers)))
        # A chain read from the other end is the same chain: its leading half of rows holds the spectrum.
        elif args.cov:
            r = chain_increment_row(monomers - 1, hurst)  # Toeplitz row i: r[i:0:-1], r[:n-i]
            rows = np.lib.stride_tricks.sliding_window_view(np.concatenate((r[:0:-1], r)), r.size)[::-1]
            lam = centrosymmetric_eigenvalues(rows[: r.size - r.size // 2])
        else:
            rows = chain_coupling_rows(monomers, hurst, 0, monomers - monomers // 2)
            sums = rows.sum(axis=1)
            np.fill_diagonal(np.subtract(0.0, rows, out=rows), sums)  # Laplacian rows diag(sums) - g, in place
            lam = centrosymmetric_eigenvalues(rows)
    _write_series(args, echo, "mode", "lambda", np.arange(lam.size), lam)


# ------------------------------------------------------------------ critical

def _cmd_critical(args: argparse.Namespace) -> None:
    center = _resolve_center(args.monomers, args.center)
    try:
        query = SignChangeQuery(
            monomers=args.monomers,
            offset=args.offset,
            center=center,
            bracket=(args.bracket[0], args.bracket[1]),
            tol=args.tol,
        )
    except IndexError:  # the center is on the chain, so its partner is not: name both 1-based
        raise CliInputError(f"--center {center + 1} and --offset {args.offset} name monomer "
                            f"{center + 1 + args.offset}, outside 1..{args.monomers}") from None
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


# --------------------------------------------------------------- ring design

def _cmd_ring_design(args: argparse.Namespace) -> None:
    design = power_law_ring(
        sites=args.sites,
        g1=args.g1,
        c=args.c,
        gamma=args.gamma,
        infinite_guarantee=args.infinite_guarantee,
    )
    report = check_admissible(design.g_by_distance, args.sites)
    payload = {
        "model": {
            "sites": args.sites,
            "g1": args.g1,
            "c": args.c,
            "gamma": args.gamma,
            "g_by_distance": [float(v) for v in design.g_by_distance],
        },
        "finite_bound": design.finite_bound_satisfied,
        "zeta_bound": design.zeta_bound_satisfied,
        "admissible": report.admissible,
        "lambda_min": report.lambda_min_nonzero,
        "violating_modes": report.violating_modes,
    }
    _write_json(args.out, payload)


# -------------------------------------------------------------------- sample

#: Samples per row chunk of a reflected or bridge run (1 MiB of float64): a
#: chunk is drawn, written and added to the report before the next is drawn.
_CHUNK_VALUES = 131_072


def _cmd_sample(args: argparse.Namespace) -> None:
    if args.paths < 1:
        raise CliInputError("--paths must be >= 1")
    echo: dict = {"command": "sample", "model": args.model, "paths": args.paths, "seed": args.seed}
    # Chain and ring batches are one chunk: `z @ F.T` in row chunks is not
    # bit-identical to one GEMM, and the FFT samplers of ROADMAP item 4 will
    # replace both streams.
    if args.model == "chain":
        if args.monomers is None or args.hurst is None:
            raise CliInputError("chain sampling needs --monomers and --hurst")
        echo.update(monomers=args.monomers, hurst=_fmt(args.hurst))
        reference = chain_increment_cov(args.monomers - 1, args.hurst)
        batches = [sample_gaussian(reference, args.paths, args.seed)]
    elif args.model == "ring":
        if args.sites is None or args.hurst is None:
            raise CliInputError("ring sampling needs --sites and --hurst")
        echo.update(sites=args.sites, hurst=_fmt(args.hurst))
        reference = ring_increment_cov(args.sites, args.hurst)
        batches = [sample_gaussian(reference, args.paths, args.seed)]
    else:  # reflected | bridge positions on a uniform circle grid, in row chunks of one stream
        grid = uniform_ring_grid(args.grid)
        echo.update(grid=args.grid)
        reference = piecewise_ring_cov_matrix(grid)
        sampler = reflected_brownian_ring if args.model == "reflected" else brownian_bridge_ring
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        rows = max(1, _CHUNK_VALUES // grid.size)
        batches = (sampler(grid, min(rows, args.paths - start), rng) for start in range(0, args.paths, rows))
    dim = reference.shape[0]
    gram = np.zeros((dim, dim))

    def blocks():
        for batch in batches:
            gram[...] += batch.values.T @ batch.values
            yield batch.values

    _write_csv(args.out, echo, ",".join(f"v{i}" for i in range(dim)), blocks())
    empirical = gram / args.paths
    bound = covariance_bound(reference, args.paths)
    error = np.abs(empirical - reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, error / np.where(bound > 0, bound, 1.0), np.where(error > 0, np.inf, 0.0))
    report = {
        "model": {k: v for k, v in echo.items() if k != "command"},
        "dim": dim,
        "max_abs_error": float(error.max()),
        "max_error_over_bound": float(ratio.max()),
        "within_bound": bool((error <= bound + 1e-15).all()),
    }
    report_path = _files(args).get("--report")
    if report_path is not None:  # stdout mode emits the CSV only
        _write_json(report_path, report)


# ------------------------------------------------------------ fourier energy

def _cmd_fourier_energy(args: argparse.Namespace) -> None:
    if args.mode_max < 1:
        raise CliInputError("--mode-max must be >= 1")
    echo = {"command": "fourier-energy", "hurst": _fmt(args.hurst), "mode_max": args.mode_max}
    modes = range(1, args.mode_max + 1)
    energies = [fourier_mode_energy(args.hurst, mode) for mode in modes]
    _write_series(args, echo, "mode", "value", modes, energies)


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
    p.add_argument("--monomers", type=int, default=SignChangeQuery.monomers)
    p.add_argument("--offset", type=int, default=SignChangeQuery.offset)
    p.add_argument("--center", type=int, default=None, help="1-based center monomer (default: middle)")
    p.add_argument("--bracket", type=_finite, nargs=2, default=SignChangeQuery.bracket, metavar=("LO", "HI"))
    p.add_argument("--tol", type=_finite, default=SignChangeQuery.tol)
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
