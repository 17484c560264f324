"""Smoke test of the benchmark at its smallest rungs.

Kept beside the benchmark, outside the repository's test paths. Run with::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as joblist  # noqa: E402
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def smallest(jobs: list[joblist.Job]) -> list[joblist.Job]:
    """The smallest-rung job of each (command, mode/model, expected exit) class."""
    best: dict[tuple, joblist.Job] = {}
    for job in jobs:
        key = (job.command, job.flags.get("mode"), job.flags.get("model"), "cov" in job.flags,
               "g" in job.flags, job.expect)
        if key not in best or job.size < best[key].size:
            best[key] = job
    return list(best.values())


@pytest.mark.parametrize("workload", joblist.WORKLOADS)
def test_smallest_jobs_pass_untraced_and_traced(workload, tmp_path):
    job_list = smallest(joblist.generate(workload, seed=0))
    env = run.child_env(ROOT)
    untraced = run.run_pass(job_list, env, tmp_path, traced=False)
    traced = run.run_pass(job_list, env, tmp_path, traced=True)
    assert [r.failure for r in untraced + traced] == [None] * (2 * len(job_list))

    metrics = run.per_layer(untraced, traced)
    assert metrics["cli.main.calls"] == len(job_list)
    assert metrics["import.fbmspring_s"] > metrics["import.numpy_s"] > 0
    if workload == "figures":
        assert metrics["critical.coupling_at.calls"] > 0
        assert metrics["circulant.calls"] > 0 and metrics["rings.calls"] > 0
        assert metrics["linalg.errors"] > 0  # the inadmissible rings fail in the factorization
    if workload == "sample_stream":
        assert metrics["circulant.calls"] == metrics["rings.calls"] == metrics["critical.calls"] == 0
        assert metrics["sampling.values_drawn"] == sum(job.size for job in job_list)


def test_job_lists_are_seeded():
    for workload in joblist.WORKLOADS:
        first = [job.argv for job in joblist.generate(workload, 3)]
        assert first == [job.argv for job in joblist.generate(workload, 3)]
        assert first != [job.argv for job in joblist.generate(workload, 4)]
        assert len(first) >= 40
