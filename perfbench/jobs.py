"""Seeded job lists for the two benchmark workloads.

A job is one ``fbmspring`` command line. The workload seed picks the free
parameters (Hurst indices, centers, coupling values, sampling seeds) and the
job order; the size ladder of each workload is fixed, so every seed gives the
same amount of work and the run-to-run spread reflects the program, not the
draw. Output paths in ``argv`` are relative to the job's own directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("figures", "sample_stream")

CHAIN_RUNGS = (61, 129, 257, 513, 1025, 2049)
CRITICAL_RUNGS = (61, 129, 257)
CHAIN_SPECTRUM_RUNGS = (61, 257, 1025)
# Offsets whose coupling keeps one sign over the default bracket (0.6, 0.9).
NO_SIGN_CHANGE_OFFSETS = (1, 2, 4, 5, 6, 8)
RING_RUNGS = (64, 128, 256, 512, 1024, 2048)
RING_ENERGY_RUNGS = (256, 2048)
RING_WIDE_RUNGS = (1024, 4096)
FOURIER_MODES = (20, 100, 200)
INADMISSIBLE = (("couplings", 64), ("spectrum", 128), ("couplings", 256))

# (model, grid/monomers/sites, paths); one 1e5 x 64 job plus small batches.
SAMPLE_STRATA = (
    ("reflected", 64, 100_000),
    ("reflected", 16, 2_000), ("reflected", 16, 10_000), ("reflected", 16, 50_000),
    ("reflected", 64, 2_000), ("reflected", 256, 2_000),
    ("bridge", 16, 2_000), ("bridge", 16, 10_000), ("bridge", 64, 2_000),
    ("chain", 33, 2_000), ("chain", 33, 10_000), ("chain", 65, 2_000),
    ("chain", 129, 2_000), ("chain", 257, 2_000),
    ("ring", 16, 2_000), ("ring", 16, 10_000), ("ring", 32, 2_000),
    ("ring", 64, 2_000), ("ring", 128, 2_000),
)
# Cheap batches that bring the job count to 40 so the 75th percentile has
# ten jobs beyond it.
SAMPLE_FILLER = (("reflected", 16), ("bridge", 16), ("chain", 33), ("ring", 16))
SAMPLE_JOBS = 40


@dataclass(frozen=True)
class Job:
    """One CLI invocation with the exit code and files it must produce."""

    command: str
    flags: dict = field(hash=False)
    expect: int = 0
    outputs: tuple[str, ...] = ()
    size: int = 0  # rung on the workload's ladder, to pick the smallest jobs

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        for key, value in self.flags.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif isinstance(value, tuple):
                argv += [flag, *(str(v) for v in value)]
            else:
                argv += [flag, str(value)]
        return argv


def _files(stem: str, suffix: str, *extra: str) -> tuple[str, ...]:
    return (f"{stem}.{suffix}", *(f"{stem}.{e}" for e in extra), f"{stem}.manifest.json")


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def chain_jobs(rng: random.Random) -> list[Job]:
    """20 chain jobs: couplings, critical-Hurst bisections and spectra."""
    jobs = []
    for monomers in CHAIN_RUNGS:
        flags = dict(mode="chain", monomers=monomers, hurst=_uniform(rng, 0.05, 0.95), out="couplings.csv")
        jobs.append(Job("couplings", flags, 0, _files("couplings", "csv"), monomers))
    for monomers in CRITICAL_RUNGS:
        for tol in (1e-6, 1e-9):
            center = rng.randint(monomers // 4, 3 * monomers // 4)
            flags = dict(monomers=monomers, offset=3, center=center, bracket=(0.6, 0.9), tol=tol, out="critical.json")
            jobs.append(Job("critical", flags, 0, _files("critical", "json"), monomers))
    for monomers in CHAIN_SPECTRUM_RUNGS:
        for cov in (False, True):
            flags = dict(mode="chain", monomers=monomers, hurst=_uniform(rng, 0.05, 0.95), out="spectrum.csv")
            if cov:
                flags["cov"] = True
            jobs.append(Job("spectrum", flags, 0, _files("spectrum", "csv"), monomers))
    for _ in range(2):
        monomers = rng.choice(CRITICAL_RUNGS)
        flags = dict(monomers=monomers, offset=rng.choice(NO_SIGN_CHANGE_OFFSETS), out="critical.json")
        jobs.append(Job("critical", flags, 3, (), monomers))
    return jobs


def _stiff_g(rng: random.Random) -> tuple[float, ...]:
    g1 = _uniform(rng, 0.5, 2.0)
    return (g1, *(round(-rng.uniform(0.0, 0.1) * g1 / k**2, 6) for k in range(2, rng.randint(3, 6))))


def ring_jobs(rng: random.Random) -> list[Job]:
    """20 ring jobs: couplings, spectra, designs, Fourier energies, inadmissible rings."""
    jobs = []
    for sites in RING_RUNGS:
        flags = dict(mode="ring", monomers=sites, hurst=_uniform(rng, 0.05, 0.45), out="couplings.csv")
        jobs.append(Job("couplings", flags, 0, _files("couplings", "csv"), sites))
    for sites in RING_ENERGY_RUNGS:
        flags = dict(mode="ring", monomers=sites, hurst=_uniform(rng, 0.05, 0.45), out="spectrum.csv")
        jobs.append(Job("spectrum", flags, 0, _files("spectrum", "csv"), sites))
    for sites in RING_WIDE_RUNGS:
        flags = dict(mode="ring", monomers=sites, hurst=_uniform(rng, 0.05, 0.45), cov=True, out="spectrum.csv")
        jobs.append(Job("spectrum", flags, 0, _files("spectrum", "csv"), sites))
    for sites in RING_WIDE_RUNGS:
        flags = dict(sites=sites, g=",".join(str(v) for v in _stiff_g(rng)), out="spectrum.csv")
        jobs.append(Job("spectrum", flags, 0, _files("spectrum", "csv"), sites))
    for sites in RING_WIDE_RUNGS:
        g1 = _uniform(rng, 0.5, 2.0)
        flags = dict(g1=g1, c=round(g1 * rng.uniform(0.01, 0.5), 6), gamma=_uniform(rng, 3.5, 6.0),
                     sites=sites, infinite_guarantee=True, out="design.json")
        jobs.append(Job("ring-design", flags, 0, _files("design", "json"), sites))
    for modes in FOURIER_MODES:
        flags = dict(hurst=_uniform(rng, 0.05, 0.45), mode_max=modes, out="fourier.csv")
        jobs.append(Job("fourier-energy", flags, 0, _files("fourier", "csv"), modes))
    for command, sites in INADMISSIBLE:
        flags = dict(mode="ring", monomers=sites, hurst=_uniform(rng, 0.5, 0.95), out="out.csv")
        jobs.append(Job(command, flags, 2, (), sites))
    return jobs


def figures(rng: random.Random) -> list[Job]:
    return chain_jobs(rng) + ring_jobs(rng)


def _sample_job(rng: random.Random, model: str, size: int, paths: int) -> Job:
    flags: dict = dict(model=model)
    if model in ("reflected", "bridge"):
        flags["grid"] = size
    elif model == "chain":
        flags.update(monomers=size, hurst=_uniform(rng, 0.05, 0.95))
    else:
        flags.update(sites=size, hurst=_uniform(rng, 0.05, 0.45))
    flags.update(paths=paths, seed=rng.randrange(2**31), out="sample.csv")
    dim = size - 1 if model == "chain" else size
    return Job("sample", flags, 0, _files("sample", "csv", "report.json"), paths * dim)


def sample_stream(rng: random.Random) -> list[Job]:
    jobs = [_sample_job(rng, *stratum) for stratum in SAMPLE_STRATA]
    while len(jobs) < SAMPLE_JOBS:
        model, size = SAMPLE_FILLER[len(jobs) % len(SAMPLE_FILLER)]
        jobs.append(_sample_job(rng, model, size, 2_000))
    return jobs


def generate(workload: str, seed: int) -> list[Job]:
    """The seeded job list of ``workload``, in the order it runs."""
    make = {"figures": figures, "sample_stream": sample_stream}
    rng = random.Random(f"{workload}:{seed}")
    jobs = make[workload](rng)
    rng.shuffle(jobs)
    return jobs

