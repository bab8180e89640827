import os

import numpy as np
import pytest

from spinlab import rng


def test_stream_is_a_function_of_seed_and_path():
    for seed, path in [(0, ()), (7, (3,)), (2**40, (1, 2, 3))]:
        assert np.array_equal(rng.stream(seed, *path).random(50),
                              rng.stream(seed, *path).random(50))


def test_distinct_paths_give_distinct_draws():
    keys = [(0,), (0, 0), (0, 1), (1, 0), (0, 0, 0), (1,), (2,)]
    draws = {rng.stream(5, *k).integers(2**63, size=4).tobytes() for k in keys}
    draws.add(rng.stream(5).integers(2**63, size=4).tobytes())
    draws.add(rng.stream(6, 0).integers(2**63, size=4).tobytes())
    assert len(draws) == len(keys) + 2


def test_root_stream_draws_as_default_rng():
    # block_dyn's check vectors and eigsh start vector come from stream(0)
    assert np.array_equal(rng.stream(0).standard_normal(1000),
                          np.random.default_rng(0).standard_normal(1000))
    assert np.array_equal(rng.stream(123).random(10), np.random.default_rng(123).random(10))


def _mean(pick):
    return float(np.arange(40.0)[pick].mean())


def test_bootstrap_se_is_a_function_of_the_state_it_receives():
    a, b, c = rng.stream(3, 1), rng.stream(3, 1), rng.stream(3, 2)
    se = rng.bootstrap_se(_mean, 40, 50, a)
    assert se == rng.bootstrap_se(_mean, 40, 50, b)
    assert se != rng.bootstrap_se(_mean, 40, 50, c)


@pytest.mark.parametrize("reps", [2, 7, 200])
def test_bootstrap_se_spends_one_draw_of_its_stream(reps):
    gen, twin = rng.stream(9, 4), rng.stream(9, 4)
    rng.bootstrap_se(_mean, 40, reps, gen)
    twin.integers(2**63)
    assert gen.bit_generator.state == twin.bit_generator.state


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
