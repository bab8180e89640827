"""Bit-level helpers for the exact (enumerated) layer.

Spin configurations on n vertices are indexed by integers in [0, 2^n):
bit v set means spin +1 at vertex v, clear means -1. Vertex subsets use the
same encoding. Boolean numpy arrays are the working representation for
masks on large systems; these helpers convert between the two.
"""

from __future__ import annotations

import numpy as np

#: The two spin values as int8, read-only; `rng.choice(SPINS, size)` draws
#: fair spins.
SPINS = np.array([-1, 1], dtype=np.int8)
SPINS.flags.writeable = False


def config_indices(n: int) -> np.ndarray:
    """All configuration indices 0 .. 2^n - 1 as uint64."""
    if n > 24:
        raise ValueError(f"exact enumeration capped at 24 vertices, got {n}")
    return np.arange(1 << n, dtype=np.uint64)


def popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x.astype(np.uint64)).astype(np.int64)


def spins_of(idx: np.ndarray, v: int) -> np.ndarray:
    """Spin (+-1) of vertex v for each configuration index, as float64."""
    bits = (idx >> np.uint64(v)) & np.uint64(1)
    return 2.0 * bits.astype(np.float64) - 1.0


def total_spin(idx: np.ndarray, n: int) -> np.ndarray:
    """Sum of spins for each configuration index."""
    return 2.0 * popcount(idx) - float(n)


def index_to_config(idx: int, n: int) -> np.ndarray:
    """Configuration index -> +-1 int8 vector."""
    bits = (np.uint64(idx) >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def config_to_index(config: np.ndarray) -> int:
    """+-1 vector -> configuration index."""
    bits = (np.asarray(config) > 0).astype(np.uint64)
    return int((bits << np.arange(len(bits), dtype=np.uint64)).sum())


def mask_to_bits(mask: np.ndarray) -> int:
    """Boolean vertex mask -> integer bitmask."""
    return config_to_index(2 * np.asarray(mask, dtype=np.int8) - 1)


def bits_to_mask(bits: int, n: int) -> np.ndarray:
    """Integer bitmask -> boolean vertex mask."""
    return index_to_config(bits, n) > 0


def mask_to_indices(mask: np.ndarray) -> np.ndarray:
    """Boolean vertex mask -> sorted vertex index array."""
    return np.flatnonzero(np.asarray(mask)).astype(np.int64)


def indices_to_mask(indices, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(indices, dtype=np.int64)] = True
    return mask

