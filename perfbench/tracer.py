"""Traced launcher for one CLI job, and the layer summary of its spans.

Run as a script, it imports the package, replaces every public function of
each layer module with a timing wrapper at every module attribute that binds
it (``fbmspring.cli`` binds many through ``from ... import``), then calls
``fbmspring.cli.main`` on the job's arguments. Spans stay in memory and are
written to a file when the job ends::

    python -X importtime perfbench/tracer.py SPANS_FILE JOB_ID -- ARGV...

Imported, it only offers the functions that read those files back.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "kernels", "linalg", "couplings", "critical", "circulant", "rings", "sampling")


# ------------------------------------------------------------------ child side

def _install(package, spans: list, stack: list) -> None:
    import inspect

    modules = [getattr(package, layer) for layer in LAYERS]
    wrappers = {}
    for module in modules:
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                wrappers[fn] = _wrap(fn, f"{module.__name__.rsplit('.', 1)[1]}.{name}", spans, stack)
    for module in (package, *modules):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, name, wrappers[value])


def _wrap(fn, name: str, spans: list, stack: list):
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        shape = getattr(args[0], "shape", ()) if args else ()
        dim = shape[0] if shape else 0
        error, drawn = 1, 0
        start = clock()
        try:
            result = fn(*args, **kwargs)
            error = 0
            drawn = getattr(getattr(result, "values", None), "size", 0)
            return result
        finally:
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, dim, drawn, error)

    return traced


def main(argv: list[str]) -> int:
    spans_path, job_id, sep, *job_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE JOB_ID -- ARGV...")
    import fbmspring.cli

    spans: list = []
    _install(fbmspring, spans, [])
    try:
        return fbmspring.cli.main(job_argv)
    finally:
        with open(spans_path, "w") as fh:
            for name, start, end, parent, dim, drawn, error in spans:
                fh.write(f"{job_id}\t{name}\t{start!r}\t{end!r}\t{parent}\t{dim}\t{drawn}\t{error}\n")


# ----------------------------------------------------------------- parent side

def read_spans(path) -> list[tuple]:
    """(job, name, start, end, parent, dim, drawn, error) per span, in call order."""
    spans = []
    with open(path) as fh:
        for line in fh:
            job, name, start, end, parent, dim, drawn, error = line.rstrip("\n").split("\t")
            spans.append((job, name, float(start), float(end), int(parent),
                          int(dim), int(drawn), int(error)))
    return spans


def read_importtime(path) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and fbmspring, from ``-X importtime``.

    numpy and scipy get the summed self time of their modules; fbmspring gets
    the cumulative time of the package import, which includes both.
    """
    totals = {"numpy_s": 0.0, "scipy_s": 0.0, "fbmspring_s": 0.0}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the column header
            name = name.strip()
            top = name.split(".", 1)[0]
            if top in ("numpy", "scipy"):
                totals[f"{top}_s"] += int(self_us) * 1e-6
            elif name == "fbmspring":
                totals["fbmspring_s"] += int(cumulative_us) * 1e-6
    return totals


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Per-layer and per-function calls, self time and errors.

    Self time is a span's duration minus the durations of its direct child
    spans; spans nest strictly because each job is single-threaded.
    """
    child_time = [0.0] * len(spans)
    offsets: dict[str, int] = {}
    for i, (job, _, start, end, parent, *_rest) in enumerate(spans):
        base = offsets.setdefault(job, i)
        if parent >= 0:
            child_time[base + parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = out[f"{layer}.self_s"] = out[f"{layer}.errors"] = 0
    out["linalg.max_dim"] = out["sampling.values_drawn"] = 0
    for i, (_, name, start, end, _, dim, drawn, error) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s = end - start - child_time[i]
        for key in (layer, name):
            out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
            out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + self_s
            out[f"{key}.errors"] = out.get(f"{key}.errors", 0) + error
        if layer == "linalg":
            out["linalg.max_dim"] = max(out["linalg.max_dim"], dim)
        if layer == "sampling":
            out["sampling.values_drawn"] += drawn
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
