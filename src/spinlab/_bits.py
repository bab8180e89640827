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
    """Configuration index -> +-1 int8 vector of any length n."""
    packed = np.frombuffer(int(idx).to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(np.int8) * 2 - 1


def config_to_index(config: np.ndarray) -> int:
    """+-1 vector of any length -> configuration index."""
    packed = np.packbits(np.asarray(config) > 0, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def spin_rows(n: int) -> np.ndarray:
    """All 2^n configurations as (2^n, n) int8 +-1 rows; row i is configuration i."""
    if n > 24:
        raise ValueError(f"exact enumeration capped at 24 vertices, got {n}")
    count = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    rows = np.unpackbits(count, axis=1, count=n, bitorder="little")
    rows *= 2
    rows -= 1  # wraps 0 to 255, which is -1 as int8
    return rows.view(np.int8)


def row_indices(spins: np.ndarray) -> np.ndarray:
    """Configuration index (uint64) of each +-1 row of a (..., n) array, n <= 64."""
    spins = np.asarray(spins)
    if spins.shape[-1] > 64:
        raise ValueError(f"rows of {spins.shape[-1]} spins have no uint64 index")
    packed = np.packbits(spins > 0, axis=-1, bitorder="little").astype(np.uint64)
    return (packed << 8 * np.arange(packed.shape[-1], dtype=np.uint64)).sum(axis=-1)


def mask_to_bits(mask: np.ndarray) -> int:
    """Boolean vertex mask -> integer bitmask."""
    return config_to_index(np.asarray(mask, dtype=bool))


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

