"""Seeded random streams: the one module that builds a generator.

All stochastic operations in this package take an explicit
``numpy.random.Generator``: PCG64 seeded by a ``SeedSequence`` of a root seed
and an integer path, its spawn key. Distinct paths give independent streams
because their spawn keys differ, whatever the bit generator. `parallel_map`
runs such chunks on forked workers, so results do not depend on the CPU count.
"""

from __future__ import annotations

import os

import numpy as np

from .ising import SW_BYTES_CAP


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator identified by (seed, path).

    The same (seed, path) always yields the same stream; distinct paths are
    independent. Use one path per chunk or replica.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def bootstrap_se(statistic, n: int, reps: int, rng: np.random.Generator) -> float:
    """Bootstrap SE (ddof=1) of `statistic(pick)` over `reps` resamples of n
    indices drawn with replacement from range(n), by a stream seeded with one
    draw of `rng`: a bootstrap spends one draw of its caller's stream."""
    picks = stream(int(rng.integers(2**63)))
    values = np.array([statistic(picks.integers(0, n, size=n)) for _ in range(reps)])
    return float(values.std(ddof=1))


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_JOBS = None  # (fn, jobs) a forked worker serves, set by its initializer


def _serve(*fn_jobs) -> None:
    global _JOBS
    _JOBS = fn_jobs


def _run_job(i: int):
    return _JOBS[0](*_JOBS[1][i])


def parallel_map(fn, jobs: list, job_bytes: int) -> list:
    """[fn(*job) for job in jobs] in job order, on forked workers: one per CPU
    of this process's affinity and per job, and so few that their `job_bytes`
    each sum to at most `SW_BYTES_CAP`. A job's exception is raised here with
    its own type. With one worker, or without fork, the jobs run inline. (Fork,
    as a spawned worker would import numpy and scipy afresh, about 0.5 s.)"""
    workers = min(_cpus(), len(jobs), SW_BYTES_CAP // max(job_bytes, 1))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(workers, get_context("fork"), _serve, (fn, jobs)) as pool:
        return list(pool.map(_run_job, range(len(jobs))))
