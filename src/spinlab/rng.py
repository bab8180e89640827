"""Seeded, counter-based random streams.

All stochastic operations in this package take an explicit
``numpy.random.Generator``. Streams are backed by Philox (counter-based), so
independent workers get statistically independent, reproducible streams from
a root seed plus an integer path, and results do not depend on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator identified by (seed, path).

    The same (seed, path) always yields the same stream; distinct paths are
    independent. Use one path per worker/replica.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map `fn` over `items` with a deterministic, index-ordered result list.

    With threads > 1 the work is distributed over a thread pool; each item
    must carry its own random stream. The returned order never depends on
    scheduling, so outputs are byte-identical across thread counts.
    """
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
