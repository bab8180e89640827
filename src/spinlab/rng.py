"""Seeded, counter-based random streams.

All stochastic operations in this package take an explicit
``numpy.random.Generator``. Streams are backed by Philox (counter-based), so
each chunk or replica gets a statistically independent, reproducible stream
from a root seed plus an integer path.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator identified by (seed, path).

    The same (seed, path) always yields the same stream; distinct paths are
    independent. Use one path per chunk or replica.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def bootstrap_se(statistic, n: int, reps: int, rng: np.random.Generator) -> float:
    """Bootstrap standard error of `statistic(pick)` over `reps` resamples,
    each `pick` being n indices drawn uniformly with replacement from
    range(n); the spread is the ddof=1 standard deviation."""
    values = np.array([statistic(rng.integers(0, n, size=n)) for _ in range(reps)])
    return float(values.std(ddof=1))
