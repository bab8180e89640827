"""Spin measures (exact tables), observables, and the product-measure
Fourier-Walsh layer.

Exact mode enumerates all 2^n configurations; bit v of a configuration
index set means spin +1 at vertex v. Tables are the oracle that backs
every identity test in the package.

An `Observable` is one frozen dataclass per kind (`TotalSum`,
`Magnetization`, `Majority`, `Parity`, `SingleSpin`, `Indicator`,
`Custom`), each giving its value on one configuration and on all 2^n.
Functions that accept "an Observable or a 2^n value vector" turn either
into a checked vector with `values_of`.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import _bits
from .graphs import Graph, component_labels

EXACT_CAP_DEFAULT = 20
EXACT_CAP_HARD = 24

TABLE_SUM_TOL = 1e-12


def _check_cap(n: int, allow_large: bool):
    cap = EXACT_CAP_HARD if allow_large else EXACT_CAP_DEFAULT
    if n > cap:
        raise ValueError(
            f"exact mode capped at {cap} vertices (got {n}); "
            "pass allow_large=True to raise the cap to 24"
        )


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

    def boundary_weights(self, subset_bits: int) -> np.ndarray:
        """Total probability of each boundary pattern y = idx & subset_bits.

        Returned as a dense length-2^n vector supported on submasks of
        subset_bits.
        """
        idx = _bits.config_indices(self.n)
        keys = (idx & np.uint64(subset_bits)).astype(np.int64)
        return np.bincount(keys, weights=self.p, minlength=1 << self.n)

    def conditional_mean(self, values: np.ndarray, subset_bits: int) -> np.ndarray:
        """E[f | spins on the subset], as a vector over all configurations."""
        idx = _bits.config_indices(self.n)
        keys = (idx & np.uint64(subset_bits)).astype(np.int64)
        denom = np.bincount(keys, weights=self.p, minlength=1 << self.n)
        numer = np.bincount(keys, weights=self.p * values, minlength=1 << self.n)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(denom > 0, numer / np.maximum(denom, 1e-300), 0.0)
        return means[keys]

    def entropy_bits(self) -> float:
        pos = self.p[self.p > 0]
        return float(-(pos * np.log2(pos)).sum())

    def to_csv(self, path):
        dump_vector_csv(path, self.p, value_column="probability")

    def to_binary(self, path):
        dump_vector(path, self.p, self.n, kind="table")

    @staticmethod
    def from_binary(path) -> "ProbabilityTable":
        values, n, kind = load_vector(path)
        if kind != "table":
            raise ValueError(f"expected a table dump, found {kind!r}")
        return ProbabilityTable(n, values)


def dump_vector_csv(path, values, value_column="value"):
    """(index, value) rows; used for tables and coefficient vectors."""
    with open(path, "w") as fh:
        fh.write(f"index,{value_column}\n")
        for i, q in enumerate(values):
            fh.write(f"{i},{float(q)!r}\n")


def dump_vector(path, values, n: int, kind: str = "vector"):
    """Compact dump: little-endian float64 payload with an (n, kind) header."""
    kind_bytes = kind.encode()[:16].ljust(16, b"\0")
    header = struct.pack("<4sBxxxI16s", b"SPNT", 1, n, kind_bytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(values, dtype="<f8").tobytes())


def load_vector(path) -> tuple[np.ndarray, int, str]:
    with open(path, "rb") as fh:
        magic, version, n, kind_bytes = struct.unpack("<4sBxxxI16s", fh.read(28))
        if magic != b"SPNT" or version != 1:
            raise ValueError("unrecognized dump")
        values = np.frombuffer(fh.read(), dtype="<f8")
    return values, n, kind_bytes.rstrip(b"\0").decode()


# -- measure descriptions ----------------------------------------------------


@dataclass(frozen=True)
class ProductMeasure:
    p_plus: float = 0.5


@dataclass(frozen=True)
class IsingMeasure:
    beta: float
    J: float = 1.0
    h: float = 0.0


@dataclass(frozen=True)
class CurieWeissMeasure:
    beta: float


@dataclass(frozen=True)
class DacMeasure:
    """Explicit bond distribution: list of (edge bitmask, probability)."""

    bond_table: tuple


def exact_table(measure, graph: Graph, allow_large: bool = False) -> ProbabilityTable:
    """Enumerate the measure on the given graph as a ProbabilityTable."""
    n = graph.n_vertices
    _check_cap(n, allow_large)
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
        measure = IsingMeasure(beta=measure.beta, J=1.0 / n, h=0.0)

    if isinstance(measure, IsingMeasure):
        from .ising import IsingParams, hamiltonian_all

        params = IsingParams(beta=measure.beta, J=measure.J, h=measure.h)
        energies = hamiltonian_all(graph, params)
        logw = -params.beta * energies
        return ProbabilityTable(n, np.exp(logw - logsumexp(logw)))

    if isinstance(measure, DacMeasure):
        p = np.zeros(1 << n)
        total = 0.0
        for bond_bits, prob in measure.bond_table:
            total += prob
            labels, k = component_labels(
                n, graph.edges, edge_mask=_bits.bits_to_mask(bond_bits, graph.n_edges)
            )
            # Uniform on configurations constant on clusters.
            reps = np.flatnonzero(labels == np.arange(n))
            member_bits = [
                _bits.mask_to_bits(labels == int(r)) for r in reps
            ]
            weight = prob / (1 << k)
            for coloring in range(1 << k):
                bits = 0
                for j in range(k):
                    if (coloring >> j) & 1:
                        bits |= member_bits[j]
                p[bits] += weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError("bond distribution must sum to 1")
        return ProbabilityTable(n, p)

    raise TypeError(f"unknown measure description {measure!r}")


# -- observables -------------------------------------------------------------


class Observable:
    """A real function of the spin configuration.

    Each kind is one frozen dataclass below holding its value on one
    configuration (`_value`) and on all 2^n of them at once (`_table`);
    `evaluate` and `table_values` are the entry points for every kind.
    """

    def evaluate(self, config) -> float:
        """Value on one ±1 configuration."""
        return float(self._value(np.asarray(config)))

    def table_values(self, n: int, allow_large: bool = False) -> np.ndarray:
        """Values over all 2^n configurations."""
        _check_cap(n, allow_large)
        return self._table(_bits.config_indices(n), n)


@dataclass(frozen=True)
class TotalSum(Observable):
    def _value(self, config):
        return config.sum()

    def _table(self, idx, n):
        return _bits.total_spin(idx, n)


@dataclass(frozen=True)
class Magnetization(Observable):
    def _value(self, config):
        return config.mean()

    def _table(self, idx, n):
        return _bits.total_spin(idx, n) / n


@dataclass(frozen=True)
class Majority(Observable):
    """Sign of the total spin; ties go to -1."""

    def _value(self, config):
        return 1.0 if config.sum() > 0 else -1.0

    def _table(self, idx, n):
        return np.where(_bits.total_spin(idx, n) > 0, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class Parity(Observable):
    """Product of the spins on `subset`."""

    subset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "subset", np.asarray(self.subset, dtype=np.int64))

    def _value(self, config):
        return np.prod(config[self.subset])

    def _table(self, idx, n):
        sub_bits = np.uint64(sum(1 << int(v) for v in self.subset))
        minus_spins = len(self.subset) - _bits.popcount(idx & sub_bits)
        return np.where(minus_spins % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class SingleSpin(Observable):
    v: int

    def _value(self, config):
        return config[self.v]

    def _table(self, idx, n):
        return _bits.spins_of(idx, self.v)


@dataclass(frozen=True)
class Indicator(Observable):
    """1 on the listed configuration indices, 0 elsewhere."""

    configs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "configs", frozenset(int(i) for i in self.configs))

    def _value(self, config):
        return 1.0 if _bits.config_to_index(config) in self.configs else 0.0

    def _table(self, idx, n):
        out = np.zeros(1 << n)
        out[list(self.configs)] = 1.0
        return out


@dataclass(frozen=True)
class Custom(Observable):
    """Any callable of a ±1 configuration vector."""

    fn: Callable

    def _value(self, config):
        return self.fn(config)

    def _table(self, idx, n):
        return np.array([
            float(self.fn(_bits.index_to_config(int(i), n))) for i in idx
        ])


def values_of(f, n: int, allow_large: bool = False) -> np.ndarray:
    """An Observable's values over all 2^n configurations, or a given value
    vector checked to have that length."""
    if isinstance(f, Observable):
        return f.table_values(n, allow_large)
    values = np.asarray(f, dtype=np.float64)
    if values.shape != (1 << n,):
        raise ValueError("function values must cover all 2^n configurations")
    return values


# -- susceptibility ----------------------------------------------------------


@dataclass(frozen=True)
class SusceptibilityReport:
    chi: float
    n_times_var_m: float


def susceptibility(table: ProbabilityTable, graph: Graph) -> SusceptibilityReport:
    """Sum of covariances of one spin with all spins, for transitive graphs.

    Also evaluates |V| * Var(M) and checks the two agree to 1e-9.
    """
    if not graph.is_transitive():
        raise ValueError("susceptibility needs a transitive translation group")
    n = table.n
    idx = _bits.config_indices(n)
    s0 = _bits.spins_of(idx, 0)
    mu0 = table.expectation(s0)
    chi = 0.0
    for v in range(n):
        sv = _bits.spins_of(idx, v)
        chi += table.expectation(s0 * sv) - mu0 * table.expectation(sv)
    m_values = _bits.total_spin(idx, n) / n
    nvar = n * table.variance(m_values)
    if abs(chi - nvar) > 1e-9:
        raise AssertionError(
            f"susceptibility mismatch: chi={chi!r} vs |V|*Var(M)={nvar!r}"
        )
    return SusceptibilityReport(chi=chi, n_times_var_m=nvar)


# -- Fourier-Walsh layer (uniform product measure) ---------------------------


def walsh_transform(values: np.ndarray, n: int) -> np.ndarray:
    """Coefficients f_hat(S) over all S, indexed by subset bitmask.

    Normalized so f(sigma) = sum_S f_hat(S) chi_S(sigma) and Parseval reads
    sum_S f_hat(S)^2 = E_uniform[f^2].
    """
    if len(values) != 1 << n:
        raise ValueError("value vector length mismatch")
    _check_cap(n, allow_large=True)
    coef = np.array(values, dtype=np.float64)
    for bit in range(n):
        shape = (1 << (n - bit - 1), 2, 1 << bit)
        c = coef.reshape(shape)
        lo = c[:, 0, :].copy()  # spin -1 on this coordinate
        hi = c[:, 1, :].copy()  # spin +1
        c[:, 0, :] = (hi + lo) / 2.0
        c[:, 1, :] = (hi - lo) / 2.0
    return coef


def inverse_walsh(coef: np.ndarray, n: int) -> np.ndarray:
    vals = np.array(coef, dtype=np.float64)
    for bit in range(n):
        shape = (1 << (n - bit - 1), 2, 1 << bit)
        c = vals.reshape(shape)
        without = c[:, 0, :].copy()
        with_ = c[:, 1, :].copy()
        c[:, 0, :] = without - with_
        c[:, 1, :] = without + with_
    return vals


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
    inside = sq[[s for s in _bits.iter_submasks(subset_bits)]].sum() - sq[0]
    return float(inside / var)


# -- demo measure: first-repeated-pair scan on a cycle -----------------------


def sample_ffiid_parity_cycle(
    n_half: int, rng: np.random.Generator, return_source: bool = False
):
    """Spin at i is the value of the first equal adjacent pair scanning
    forward from i on the cycle of length 2*n_half; a fully alternating
    source falls back to copying the source bits.
    """
    if n_half < 2:
        raise ValueError("need a cycle of length >= 4")
    n = 2 * n_half
    omega = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    pair_start = omega == np.roll(omega, -1)  # omega[i] == omega[i+1]
    if not pair_start.any():
        sigma = omega.copy()
    else:
        starts = np.flatnonzero(pair_start)
        sigma = np.empty(n, dtype=np.int8)
        for i in range(n):
            # first pair start at or after i, cyclically
            j = starts[np.searchsorted(starts, i) % len(starts)]
            sigma[i] = omega[j]
    if return_source:
        return sigma, omega
    return sigma
