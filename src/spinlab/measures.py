"""Spin measures (exact tables), observables, and the product-measure
Fourier-Walsh layer.

Exact mode enumerates all 2^n configurations; bit v of a configuration
index set means spin +1 at vertex v. Tables are the oracle that backs
every identity test in the package.

An `Observable` is one frozen dataclass per kind (`TotalSum`,
`Magnetization`, `Majority`, `Parity`, `SingleSpin`, `Indicator`,
`Custom`), each one vectorised rule on ±1 rows, read on one
configuration, on a batch of rows or on all 2^n.
Functions that accept "an Observable or a 2^n value vector" turn either
into a checked vector with `values_of`.

`sample_ffiid_parity_cycle` is a factor-of-IID demo measure on a cycle: it
returns a batch of draws and their source coins as two (count, n) arrays
from one `rng.choice` call, the same stream as `count` single draws, and
refuses batches over `FFIID_BYTES_CAP` before drawing.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import _bits
from .graphs import Graph
from .ising import IsingParams, hamiltonian_all

#: Largest vertex count the exact layer enumerates (2^n configurations).
EXACT_CAP = 20


def check_exact_size(n: int) -> None:
    if n > EXACT_CAP:
        raise ValueError(f"exact mode capped at {EXACT_CAP} vertices (got {n})")


@dataclass
class ProbabilityTable:
    """Explicit distribution over all 2^n spin configurations."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.shape != (1 << self.n,):
            raise ValueError("probability vector must have length 2^n")
        if np.any(self.p < -1e-15):
            raise ValueError("negative probability entry")
        self.p = np.maximum(self.p, 0.0)
        total = self.p.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("non-normalizable weights")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"table sums to {total}, expected 1")
        self.p = self.p / total

    def expectation(self, values: np.ndarray) -> float:
        return float(self.p @ values)

    def variance(self, values: np.ndarray) -> float:
        mu = self.expectation(values)
        return float(self.p @ (values - mu) ** 2)

    def marginal_plus(self) -> np.ndarray:
        """P[spin_v = +1] for every vertex."""
        idx = _bits.config_indices(self.n)
        return np.array([
            float(self.p[((idx >> np.uint64(v)) & np.uint64(1)) == 1].sum())
            for v in range(self.n)
        ])

    def conditional_mean(self, values: np.ndarray, subset_bits: int) -> np.ndarray:
        """E[f | spins on the subset], as a vector over all configurations."""
        idx = _bits.config_indices(self.n)
        keys = (idx & np.uint64(subset_bits)).astype(np.int64)
        denom = np.bincount(keys, weights=self.p, minlength=1 << self.n)
        numer = np.bincount(keys, weights=self.p * values, minlength=1 << self.n)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(denom > 0, numer / np.maximum(denom, 1e-300), 0.0)
        return means[keys]


# -- measure descriptions ----------------------------------------------------


@dataclass(frozen=True)
class ProductMeasure:
    p_plus: float = 0.5


IsingMeasure = IsingParams  # an Ising measure is described by its parameters


@dataclass(frozen=True)
class CurieWeissMeasure:
    beta: float


@dataclass(frozen=True)
class DacMeasure:
    """Explicit bond distribution: (BondConfig, probability) pairs, as
    `dac.bond_configs` decodes them from (edge bitmask, probability)."""

    bonds: tuple


def exact_table(measure, graph: Graph) -> ProbabilityTable:
    """Enumerate the measure on the given graph as a ProbabilityTable."""
    n = graph.n_vertices
    check_exact_size(n)
    idx = _bits.config_indices(n)

    if isinstance(measure, ProductMeasure):
        q = float(measure.p_plus)
        if not 0 <= q <= 1:
            raise ValueError("product marginal must lie in [0, 1]")
        ones = _bits.popcount(idx)
        with np.errstate(divide="ignore"):
            logp = ones * np.log(max(q, 1e-300)) + (n - ones) * np.log(max(1 - q, 1e-300))
        if q in (0.0, 1.0):
            p = np.zeros(1 << n)
            p[(1 << n) - 1 if q == 1.0 else 0] = 1.0
            return ProbabilityTable(n, p)
        return ProbabilityTable(n, np.exp(logp - logsumexp(logp)))

    if isinstance(measure, CurieWeissMeasure):
        if graph.kind != "complete":
            raise ValueError("Curie-Weiss tables live on complete graphs")
        measure = IsingParams(beta=measure.beta, J=1.0 / n)

    if isinstance(measure, IsingParams):
        logw = -measure.beta * hamiltonian_all(graph, measure)
        return ProbabilityTable(n, np.exp(logw - logsumexp(logw)))

    if isinstance(measure, DacMeasure):
        p = np.zeros(1 << n)
        total = 0.0
        for bonds, prob in measure.bonds:
            total += prob
            # Uniform on configurations constant on clusters.
            p[bonds.colourings()] += prob / (1 << bonds.k)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("bond distribution must sum to 1")
        return ProbabilityTable(n, p)

    raise TypeError(f"unknown measure description {measure!r}")


# -- observables -------------------------------------------------------------


class Observable:
    """A real function of the spin configuration.

    Each kind is one frozen dataclass below whose one rule, `_of`, maps a
    (..., n) ±1 array to the values of its rows: `evaluate` reads it on one
    configuration, `values` on (R, n) rows, `table_values` on all 2^n.
    """

    def evaluate(self, config) -> float:
        """Value on one ±1 configuration."""
        return float(self._of(np.asarray(config)))

    def values(self, configs) -> np.ndarray:
        """Values on the rows of an (R, n) ±1 array."""
        return np.asarray(self._of(np.asarray(configs)), dtype=np.float64)

    def table_values(self, n: int) -> np.ndarray:
        """Values over all 2^n configurations."""
        check_exact_size(n)
        return self.values(_bits.spin_rows(n))


@dataclass(frozen=True)
class TotalSum(Observable):
    def _of(self, spins):
        return spins.sum(axis=-1)


@dataclass(frozen=True)
class Magnetization(Observable):
    def _of(self, spins):
        return spins.mean(axis=-1)


@dataclass(frozen=True)
class Majority(Observable):
    """Sign of the total spin; ties go to -1."""

    def _of(self, spins):
        return np.where(spins.sum(axis=-1) > 0, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class Parity(Observable):
    """Product of the spins on `subset`."""

    subset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "subset", np.asarray(self.subset, dtype=np.int64))

    def _of(self, spins):
        return spins[..., self.subset].prod(axis=-1)


@dataclass(frozen=True)
class SingleSpin(Observable):
    v: int

    def _of(self, spins):
        return spins[..., self.v]


@dataclass(frozen=True)
class Indicator(Observable):
    """1 on the listed configuration indices, 0 elsewhere."""

    configs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "configs", frozenset(int(i) for i in self.configs))

    def _of(self, spins):
        return np.isin(_bits.row_indices(spins), np.array(list(self.configs), dtype=np.uint64))


@dataclass(frozen=True)
class Custom(Observable):
    """Any callable of a ±1 configuration vector."""

    fn: Callable

    def _of(self, spins):
        rows = spins.reshape(-1, spins.shape[-1])
        return np.array([float(self.fn(row)) for row in rows]).reshape(spins.shape[:-1])


def values_of(f, n: int) -> np.ndarray:
    """An Observable's values over all 2^n configurations, or a given value
    vector checked to have that length."""
    if isinstance(f, Observable):
        return f.table_values(n)
    values = np.asarray(f, dtype=np.float64)
    if values.shape != (1 << n,):
        raise ValueError("function values must cover all 2^n configurations")
    return values


# -- Fourier-Walsh layer (uniform product measure) ---------------------------


def walsh_transform(values: np.ndarray, n: int) -> np.ndarray:
    """Coefficients f_hat(S) over all S, indexed by subset bitmask.

    Normalized so f(sigma) = sum_S f_hat(S) chi_S(sigma) and Parseval reads
    sum_S f_hat(S)^2 = E_uniform[f^2].
    """
    if len(values) != 1 << n:
        raise ValueError("value vector length mismatch")
    check_exact_size(n)
    coef = np.array(values, dtype=np.float64)
    for bit in range(n):
        shape = (1 << (n - bit - 1), 2, 1 << bit)
        c = coef.reshape(shape)
        lo = c[:, 0, :].copy()  # spin -1 on this coordinate
        hi = c[:, 1, :].copy()  # spin +1
        c[:, 0, :] = (hi + lo) / 2.0
        c[:, 1, :] = (hi - lo) / 2.0
    return coef


def subset_sums(values: np.ndarray, n: int) -> np.ndarray:
    """g(U) = sum over submasks S of U of values[S] (zeta transform)."""
    out = np.array(values, dtype=np.float64)
    for bit in range(n):
        step = 1 << bit
        idx = np.arange(1 << n)
        has = (idx & step) != 0
        out[has] += out[idx[has] ^ step]
    return out


def spectral_sample_product(
    f: Observable | np.ndarray, n: int, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Draw subsets with probability f_hat(S)^2 / sum_T f_hat(T)^2."""
    values = values_of(f, n)
    coef = walsh_transform(values, n)
    weights = coef**2
    total = weights.sum()
    if total <= 0 or np.allclose(values, values[0]):
        raise ValueError("spectral sample undefined for constant functions")
    draws = rng.choice(1 << n, size=size, p=weights / total)
    return draws.astype(np.int64)


def clue_from_spectrum(values: np.ndarray, n: int, subset_bits: int) -> float:
    """Explained-variance fraction on the uniform product measure via the
    squared-coefficient law: probability the spectral sample lands inside
    the subset, conditioned on being nonempty."""
    coef = walsh_transform(values, n)
    sq = coef**2
    var = sq.sum() - sq[0]
    if var <= 0:
        return 0.0
    idx = np.arange(sq.size)
    inside = sq[(idx & ~subset_bits) == 0].sum() - sq[0]
    return float(inside / var)


# -- demo measure: first-repeated-pair scan on a cycle -----------------------


#: Bytes of one `sample_ffiid_parity_cycle` call above which it refuses to draw.
FFIID_BYTES_CAP = 1 << 30

#: Bytes per (draw, site) cell. The measured peak of a call plus
#: `run_ffiid_demo`'s row reductions is 9: the int64 indices behind
#: `rng.choice` and the int8 source rows.
_FFIID_CELL_BYTES = 16


def check_ffiid_size(n_half: int, count: int) -> None:
    """Raise `ValueError` unless `count` draws on the cycle of length
    2*n_half are possible and fit under `FFIID_BYTES_CAP`."""
    if n_half < 2:
        raise ValueError("need a cycle of length >= 4")
    est = _FFIID_CELL_BYTES * count * 2 * n_half
    if est > FFIID_BYTES_CAP:
        raise ValueError(
            f"{count} draws on a cycle of {2 * n_half} sites need about {est} "
            f"bytes, over the cap of {FFIID_BYTES_CAP}")


def sample_ffiid_parity_cycle(
    n_half: int, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """`count` independent draws and their source coins, each one row of a
    (count, 2*n_half) int8 array. Spin i of a row is the value of the first
    equal adjacent pair scanning forward from i on the cycle; a fully
    alternating source row falls back to copying the source bits.

    The source rows come from one `rng.choice` call, which consumes the
    stream exactly as `count` successive single-row draws would. One
    backwards pass over the doubled cycle resolves every row at once: after
    visiting site j, `nearest` holds each row's pair value at or after j.
    """
    check_ffiid_size(n_half, count)
    n = 2 * n_half
    omega = rng.choice(_bits.SPINS, size=(count, n))
    pair_start = omega == np.roll(omega, -1, axis=1)  # omega[i] == omega[i+1]
    sigma = np.empty_like(omega)
    nearest = omega[:, 0].copy()
    for j in range(2 * n - 1, -1, -1):
        np.copyto(nearest, omega[:, j % n], where=pair_start[:, j % n])
        if j < n:
            sigma[:, j] = nearest
    alternating = ~pair_start.any(axis=1)
    sigma[alternating] = omega[alternating]
    return sigma, omega
