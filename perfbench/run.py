"""End-to-end benchmark of the ``fbmspring`` command line.

Run from the repository root::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 35 --trace 0

Traffic model: a closed loop with one client. Every job is its own child
interpreter running ``fbmspring.cli.main`` on the job's arguments, and the
next job starts only after the previous one has exited. The package is loaded
from ``src/`` of the current directory. The job list (``jobs.py``) runs once
in full; then every job that took at most ``REPEAT_CUTOFF`` times that pass's
75th-percentile job time runs again, in the same order, in at least one and at
most as many rounds as fit in ``--seconds`` of measured job time; the time
metrics count each job at its fastest run. Each job's output is checked
against a numpy reference (``check.py``) after every run, outside the timed
region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one untraced
and one traced pass (``tracer.py``) and reports the per-layer metrics; traced
numbers never feed the end-to-end ones. The last line of standard output is
one JSON object; the lines before it repeat every metric for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS threads given to every child, and to this process for the checker. One
# thread keeps runs steady on a small shared machine, keeps idle BLAS threads
# from spinning beside a child, and keeps the children's output bytes
# independent of thread timing. Set before numpy is first imported.
BLAS_THREADS = 1
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                str(BLAS_THREADS)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import jobs as joblist  # noqa: E402
import tracer  # noqa: E402

# setup_s samples spread over the full pass, so that one slow stretch of the
# host does not set it: nine for a 40-job list.
SETUP_EVERY = 5
# Jobs that can land at or below the 75th percentile are run again, and every
# time metric counts a job at its fastest run. On a shared 2-vCPU host the same
# import-bound job reads either about 0.33 s or about 0.50 s depending on the
# host's load at that moment, and slow and fast stretches last from one job to
# tens of seconds, so a single run's median jumps between the two. A repeat a
# whole pass later mostly lands in another stretch. Slower jobs run once.
REPEAT_CUTOFF = 1.25
CLI_ENTRY = "import sys; from fbmspring.cli import main; sys.exit(main())"
WORK_DIR = ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"


@dataclass
class JobRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None
    bytes_written: int
    spans: list = field(default_factory=list)
    imports: dict = field(default_factory=dict)
    import_s: float = 0.0


def child_env(root: Path) -> dict:
    """This process's environment, BLAS threads included, with ``src`` on the path."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def spawn(cmd: list[str], env: dict, cwd: Path, stderr_path: Path) -> tuple[float, float, float, int, float]:
    """Run one child to completion: (wall s, cpu s, max RSS MB, exit code, start time)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, start


def check_import(root: Path, env: dict, work: Path) -> None:
    """Confirm that the package comes from this checkout; this untimed start
    also compiles the bytecode cache."""
    probe = subprocess.run([sys.executable, "-c", "import fbmspring; print(fbmspring.__file__)"],
                           env=env, cwd=work, capture_output=True, text=True, timeout=120)
    location = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or not location.is_relative_to(root / "src"):
        raise SystemExit(f"cannot import fbmspring from {root / 'src'}: {probe.stderr.strip()[-300:]}")


def import_time(env: dict, work: Path) -> float:
    """Wall time of a fresh interpreter importing the package."""
    return spawn([sys.executable, "-c", "import fbmspring"], env, work, work / "setup.err")[0]


def full_pass(job_list: list[joblist.Job], env: dict, work: Path) -> tuple[list[JobRun], float]:
    """The untraced job list, with a fresh import timed at the start and after
    every ``SETUP_EVERY`` jobs; returns the runs and the median import time."""
    runs, imports = [], [import_time(env, work)]
    for i, job in enumerate(job_list):
        runs.append(run_job(i, job, env, work, traced=False))
        if (i + 1) % SETUP_EVERY == 0:
            imports.append(import_time(env, work))
    return runs, statistics.median(imports)


def run_job(index: int, job: joblist.Job, env: dict, work: Path, traced: bool) -> JobRun:
    out = work / f"job{index:03d}"
    out.mkdir()
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(TRACER), "spans.tsv", str(index), "--", *job.argv]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, *job.argv]
    wall, cpu, rss, code, start = spawn(cmd, env, out, out / "stderr.txt")
    problem = check.check(job, code, out)
    run = JobRun(wall, cpu, rss, problem and f"{' '.join(job.argv)}: {problem}",
                 sum((out / name).stat().st_size for name in job.outputs if (out / name).exists()))
    if traced:
        run.spans = tracer.read_spans(out / "spans.tsv")
        run.imports = tracer.read_importtime(out / "stderr.txt")
        run.import_s = run.spans[0][2] - start  # interpreter start and imports, up to cli.main
    shutil.rmtree(out)
    return run


def run_pass(job_list: list[joblist.Job], env: dict, work: Path, traced: bool) -> list[JobRun]:
    return [run_job(i, job, env, work, traced) for i, job in enumerate(job_list)]


def run_repeats(job_list: list[joblist.Job], first: list[JobRun], env: dict, work: Path,
                seconds: float) -> list[dict[int, JobRun]]:
    """Rounds of the jobs that could land at or below the 75th percentile.

    The first pass picks the jobs. One round always runs; another follows while
    the measured time so far plus the last round's still fits in ``seconds``.
    """
    cutoff = REPEAT_CUTOFF * statistics.quantiles([run.wall_s for run in first], n=4)[2]
    again = [i for i, run in enumerate(first) if run.wall_s <= cutoff]
    rounds: list[dict[int, JobRun]] = []
    measured = sum(run.wall_s for run in first)
    while not rounds or measured + sum(run.wall_s for run in rounds[-1].values()) <= seconds:
        rounds.append({i: run_job(i, job_list[i], env, work, traced=False) for i in again})
        measured += sum(run.wall_s for run in rounds[-1].values())
    return rounds


def end_to_end(first: list[JobRun], rounds: list[dict[int, JobRun]], setup_s: float) -> dict[str, float]:
    """Every job counted at its fastest run; peak memory over all runs."""
    fastest = [min([run] + [r[i] for r in rounds if i in r], key=lambda one: one.wall_s)
               for i, run in enumerate(first)]
    walls = [run.wall_s for run in fastest]
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "cpu_s": sum(run.cpu_s for run in fastest),
        "job_p50_s": statistics.median(walls),
        "job_p75_s": statistics.quantiles(walls, n=4)[2],
        "peak_rss_mb": max(run.rss_mb for run in first + [r for one in rounds for r in one.values()]),
    }


def per_layer(untraced: list[JobRun], traced: list[JobRun]) -> dict[str, float]:
    metrics = tracer.summarize([span for run in traced for span in run.spans])
    for key in ("numpy_s", "scipy_s", "fbmspring_s"):
        metrics[f"import.{key}"] = sum(run.imports[key] for run in traced)
    metrics["import.self_s"] = sum(run.import_s for run in traced)
    metrics["cli.bytes_written"] = sum(run.bytes_written for run in traced)
    metrics["trace.overhead_s"] = sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=joblist.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "fbmspring" / "cli.py").is_file():
        print(f"error: no fbmspring sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    job_list = joblist.generate(args.workload, args.seed)
    env = child_env(root)
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    print(f"environment: python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}")
    print(f"workload {args.workload}: {len(job_list)} jobs, seed {args.seed}, closed loop, 1 client")
    try:
        check_import(root, env, work)
        if args.trace:
            untraced = run_pass(job_list, env, work, traced=False)
            traced = run_pass(job_list, env, work, traced=True)
            runs = untraced + traced
            values = per_layer(untraced, traced)
            wanted = spec["per_layer"]
        else:
            first, setup_s = full_pass(job_list, env, work)
            rounds = run_repeats(job_list, first, env, work, args.seconds)
            runs = first + [run for one in rounds for run in one.values()]
            values = end_to_end(first, rounds, setup_s)
            wanted = spec["end_to_end"]
            print(f"job runs: {len(runs)} ({len(job_list)} in the full pass, "
                  f"{len(rounds)} round(s) of {len(rounds[0])} repeated jobs)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [run.failure for run in runs if run.failure]
    for failure in dict.fromkeys(failures):
        print(f"FAILED: {failure}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        note = f" (over {len(job_list)} jobs, fastest run of each)" if name.startswith("job_p") else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_ratio = {len(failures) / len(runs):.6g} (failed {len(failures)} of {len(runs)} job runs)")
    result = {"correct": not failures, "attempted": len(runs), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
