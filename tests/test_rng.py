import os

import pytest

from spinlab import rng


def _pid(_):
    return os.getpid()


def _fail(i):
    if i == 1:
        raise ValueError(f"job {i} refused")
    return i


def test_parallel_map_keeps_job_order(monkeypatch):
    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    assert rng.parallel_map(pow, [(b, 2) for b in range(9)], 1) == [b * b for b in range(9)]


def test_parallel_map_runs_jobs_in_workers(monkeypatch):
    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    pids = rng.parallel_map(_pid, [(i,) for i in range(4)], 1)
    assert os.getpid() not in pids


def test_parallel_map_reraises_the_job_error(monkeypatch):
    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    with pytest.raises(ValueError, match="job 1 refused"):
        rng.parallel_map(_fail, [(i,) for i in range(3)], 1)


@pytest.mark.parametrize("cpus, jobs", [(1, 4), (2, 1), (8, 0)])
def test_one_worker_starts_no_process(monkeypatch, cpus, jobs):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(rng, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", no_fork)
    assert rng.parallel_map(_pid, [(i,) for i in range(jobs)], 1) == [os.getpid()] * jobs


HALF = rng.SW_BYTES_CAP // 2


@pytest.mark.parametrize("job_bytes, pooled", [(HALF, True), (HALF + 1, False), (4 * HALF, False)])
def test_job_bytes_cap_the_workers(monkeypatch, job_bytes, pooled):
    """Two jobs of more than half the cap run one at a time, inline; a job
    over the whole cap still runs rather than raising."""
    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    pids = rng.parallel_map(_pid, [(0,), (1,)], job_bytes)
    assert (os.getpid() not in pids) == pooled
