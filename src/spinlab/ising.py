"""Ising Gibbs measures on finite graphs: Hamiltonian, heat-bath dynamics,
Swendsen-Wang, FK bond sampling, and cluster coloring.

Weights are exp(-beta * H) with H = -J * sum_edges s_u s_v - h * sum_v s_v.
Under this convention the bond-opening probability that makes cluster
coloring reproduce the Gibbs measure is 1 - exp(-2 beta J); the two-point
identity E[s_x s_y] = P[x connected to y] is verified in the tests.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _bits
from .graphs import Graph, component_labels

#: Exact critical inverse temperature of the square-lattice model under the
#: exp(-beta*H) convention above (Onsager); cross-validated in the tests by
#: a finite-size susceptibility scan.
BETA_C_2D = math.log(1.0 + math.sqrt(2.0)) / 2.0

DEFAULT_SW_BURNIN = 200


@dataclass(frozen=True)
class IsingParams:
    beta: float
    J: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.J)):
            raise ValueError("beta and J must be finite")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.J <= 0:
            raise ValueError("J must be > 0")

    @property
    def p_bond(self) -> float:
        """Edwards-Sokal bond probability 1 - exp(-2 beta J)."""
        return -math.expm1(-2.0 * self.beta * self.J)


def hamiltonian(graph: Graph, params: IsingParams, config: np.ndarray) -> float:
    config = np.asarray(config, dtype=np.float64)
    edge_term = float(config[graph.edges[:, 0]] @ config[graph.edges[:, 1]])
    return -params.J * edge_term - params.h * float(config.sum())


def hamiltonian_all(graph: Graph, params: IsingParams) -> np.ndarray:
    """Energies of all 2^n configurations (exact-table backend)."""
    n = graph.n_vertices
    idx = _bits.config_indices(n)
    edge_term = np.zeros(1 << n)
    for u, v in graph.edges:
        edge_term += _bits.spins_of(idx, int(u)) * _bits.spins_of(idx, int(v))
    return -params.J * edge_term - params.h * _bits.total_spin(idx, n)


@dataclass
class ChainState:
    config: np.ndarray  # int8 +-1 per vertex
    sweeps: int = 0
    rng: np.random.Generator | None = None

    def __post_init__(self):
        self.config = np.asarray(self.config, dtype=np.int8)

    @staticmethod
    def random(graph: Graph, rng: np.random.Generator) -> "ChainState":
        cfg = rng.choice(np.array([-1, 1], dtype=np.int8), size=graph.n_vertices)
        return ChainState(cfg, 0, rng)

    def checkpoint_bytes(self) -> bytes:
        def encode(obj):
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            return int(obj)

        state_blob = json.dumps(
            self.rng.bit_generator.state if self.rng is not None else None,
            sort_keys=True, default=encode,
        ).encode()
        head = struct.pack("<4sBxxxIQI", b"SPCK", 1, len(self.config),
                           self.sweeps, len(state_blob))
        return head + self.config.astype(np.int8).tobytes() + state_blob

    @staticmethod
    def from_checkpoint(blob: bytes) -> "ChainState":
        magic, version, n, sweeps, blob_len = struct.unpack("<4sBxxxIQI", blob[:24])
        if magic != b"SPCK" or version != 1:
            raise ValueError("unrecognized checkpoint")
        config = np.frombuffer(blob[24:24 + n], dtype=np.int8).copy()
        state = json.loads(blob[24 + n:24 + n + blob_len].decode())
        rng = None
        if state is not None:
            rng = np.random.Generator(np.random.Philox())
            rng.bit_generator.state = state
        return ChainState(config, sweeps, rng)


def _heat_bath_tables(params: IsingParams, max_degree: int) -> list[float]:
    """P[spin = +1 | neighbor sum m] indexed by m + max_degree."""
    table = []
    for m in range(-max_degree, max_degree + 1):
        theta = params.beta * (params.J * m + params.h)
        table.append(1.0 / (1.0 + math.exp(-2.0 * theta)))
    return table


def glauber_sweep(
    state: ChainState,
    graph: Graph,
    params: IsingParams,
    frozen: np.ndarray | None = None,
    sweeps: int = 1,
    rng: np.random.Generator | None = None,
    random_scan: bool = False,
) -> ChainState:
    """Systematic-scan heat-bath sweeps, updating the state in place.

    Vertices in `frozen` are never touched, so the chain is reversible for
    the conditional measure given the frozen spins. `random_scan=True`
    picks n random vertices per sweep instead of index order.
    """
    rng = rng if rng is not None else state.rng
    if rng is None:
        raise ValueError("no random stream attached to the chain")
    n = graph.n_vertices
    nbrs = _cached_neighbors(graph)
    degmax = max((len(x) for x in nbrs), default=0)
    p_plus = _heat_bath_tables(params, degmax)
    cfg = state.config.tolist()
    if frozen is not None:
        free = [v for v in range(n) if not frozen[v]]
    else:
        free = list(range(n))
    n_free = len(free)
    if n_free == 0:
        state.sweeps += sweeps
        return state
    for _ in range(sweeps):
        us = rng.random(n_free)
        if random_scan:
            order = rng.integers(0, n_free, size=n_free)
        for i in range(n_free):
            v = free[order[i]] if random_scan else free[i]
            m = 0
            for u in nbrs[v]:
                m += cfg[u]
            cfg[v] = 1 if us[i] < p_plus[m + degmax] else -1
        state.sweeps += 1
    state.config = np.asarray(cfg, dtype=np.int8)
    return state


def _cached_neighbors(graph: Graph) -> list[list[int]]:
    cached = graph.__dict__.get("_neighbor_cache")
    if cached is None:
        cached = graph.neighbor_lists()
        graph.__dict__["_neighbor_cache"] = cached
    return cached


@dataclass
class BondConfig:
    """Open-edge subset of a graph with its cluster labelling."""

    graph: Graph
    open_edges: np.ndarray  # bool per edge
    labels: np.ndarray = None  # canonical label (min vertex) per vertex
    k: int = 0

    def __post_init__(self):
        self.open_edges = np.asarray(self.open_edges, dtype=bool)
        if self.open_edges.shape != (self.graph.n_edges,):
            raise ValueError("edge mask length mismatch")
        if self.labels is None:
            self.labels, self.k = component_labels(
                self.graph.n_vertices, self.graph.edges, edge_mask=self.open_edges
            )

    def cluster_sizes(self) -> np.ndarray:
        """Size of the cluster containing each vertex."""
        counts = np.bincount(self.labels, minlength=self.graph.n_vertices)
        return counts[self.labels]

    def cluster_members(self) -> dict[int, np.ndarray]:
        reps = np.unique(self.labels)
        return {int(r): np.flatnonzero(self.labels == r) for r in reps}

    def to_json(self) -> str:
        return json.dumps(sorted(int(i) for i in np.flatnonzero(self.open_edges)))


def swendsen_wang_step(
    config: np.ndarray,
    graph: Graph,
    params: IsingParams,
    rng: np.random.Generator,
) -> tuple[BondConfig, np.ndarray]:
    """One bond-then-color step; returns the bond layer and the new spins."""
    if params.h != 0.0:
        raise ValueError("cluster moves need zero external field")
    cfg = np.asarray(config, dtype=np.int8)
    mono = cfg[graph.edges[:, 0]] == cfg[graph.edges[:, 1]]
    opens = mono & (rng.random(graph.n_edges) < params.p_bond)
    bonds = BondConfig(graph, opens)
    new_cfg = edwards_sokal_color(bonds, rng)
    return bonds, new_cfg


def edwards_sokal_color(bonds: BondConfig, rng: np.random.Generator) -> np.ndarray:
    """Assign one fair +-1 coin per cluster; spins are constant on clusters."""
    reps, inverse = np.unique(bonds.labels, return_inverse=True)
    coins = rng.choice(np.array([-1, 1], dtype=np.int8), size=len(reps))
    return coins[inverse]


def sw_chain(
    graph: Graph,
    params: IsingParams,
    rng: np.random.Generator,
    steps: int,
    config: np.ndarray | None = None,
) -> np.ndarray:
    """Run `steps` cluster updates and return the final configuration."""
    cfg = (
        rng.choice(np.array([-1, 1], dtype=np.int8), size=graph.n_vertices)
        if config is None
        else np.asarray(config, dtype=np.int8).copy()
    )
    for _ in range(steps):
        _, cfg = swendsen_wang_step(cfg, graph, params, rng)
    return cfg


def fk_sample(
    graph: Graph,
    params: IsingParams,
    rng: np.random.Generator,
    sweeps: int = DEFAULT_SW_BURNIN,
    config: np.ndarray | None = None,
) -> BondConfig:
    """Approximate random-cluster sample (q=2) as the bond layer of a
    stationary cluster chain: burn in `sweeps` steps, then one bond draw."""
    if params.h != 0.0:
        raise ValueError("FK sampling needs zero external field")
    if sweeps < 1:
        raise ValueError("need at least one step")
    cfg = sw_chain(graph, params, rng, sweeps, config)
    mono = cfg[graph.edges[:, 0]] == cfg[graph.edges[:, 1]]
    opens = mono & (rng.random(graph.n_edges) < params.p_bond)
    return BondConfig(graph, opens)


def tree_uniqueness_beta(d: int) -> float:
    """Inverse temperature below which the d-regular-tree model is unique:
    atanh(1/(d-1))."""
    if d < 3:
        raise ValueError("degree must be >= 3")
    return math.atanh(1.0 / (d - 1))


# -- conditional sampling helpers --------------------------------------------


def conditional_exact_resample(
    graph: Graph,
    params: IsingParams,
    config: np.ndarray,
    free_vertices: np.ndarray,
    rng_or_uniform,
) -> np.ndarray:
    """Exact draw of the spins on `free_vertices` given the rest, by direct
    enumeration; only for small free sets (<= 16 spins).

    `rng_or_uniform` is either a Generator or a pre-drawn uniform in [0,1)
    (the latter supports identical-randomness couplings).
    """
    free = np.asarray(free_vertices, dtype=np.int64)
    m = len(free)
    if m > 16:
        raise ValueError("exact conditional resampling capped at 16 free spins")
    cfg = np.asarray(config, dtype=np.int8).copy()
    pos = {int(v): i for i, v in enumerate(free)}
    free_set = set(pos)
    internal = []
    fields = np.zeros(m)
    for u, v in graph.edges:
        u, v = int(u), int(v)
        if u in free_set and v in free_set:
            internal.append((pos[u], pos[v]))
        elif u in free_set:
            fields[pos[u]] += params.J * cfg[v]
        elif v in free_set:
            fields[pos[v]] += params.J * cfg[u]
    fields += params.h
    sub_idx = np.arange(1 << m, dtype=np.uint64)
    energy = np.zeros(1 << m)
    spins = [(2.0 * ((sub_idx >> np.uint64(i)) & np.uint64(1)).astype(float) - 1.0)
             for i in range(m)]
    for i, j in internal:
        energy -= params.J * spins[i] * spins[j]
    for i in range(m):
        energy -= fields[i] * spins[i]
    logw = -params.beta * energy
    w = np.exp(logw - logw.max())
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    u = rng_or_uniform if np.isscalar(rng_or_uniform) else rng_or_uniform.random()
    pick = int(np.searchsorted(cdf, u, side="right"))
    for i, v in enumerate(free):
        cfg[v] = 1 if (pick >> i) & 1 else -1
    return cfg


class ConditionalGibbsSampler:
    """Draws from the Gibbs measure conditioned on frozen spins.

    Full (unconditional) draws use cluster moves; conditional inner draws
    run frozen heat-bath sweeps from the current state. Mixing between
    retained samples is controlled by `sweeps_between`; the conservative
    default is 50 sweeps per free vertex, which is sound for the high
    temperature regime.
    """

    def __init__(self, graph: Graph, params: IsingParams,
                 sw_burnin: int = DEFAULT_SW_BURNIN,
                 sweeps_between: int | None = None):
        self.graph = graph
        self.params = params
        self.sw_burnin = sw_burnin
        self.sweeps_between = sweeps_between

    def draw_full(self, rng: np.random.Generator) -> np.ndarray:
        return sw_chain(self.graph, self.params, rng, self.sw_burnin)

    def resample_free(
        self, config: np.ndarray, frozen_mask: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n_free = int((~frozen_mask).sum())
        sweeps = (
            self.sweeps_between
            if self.sweeps_between is not None
            else 50 * max(n_free, 1)
        )
        state = ChainState(np.asarray(config, dtype=np.int8).copy(), 0, rng)
        glauber_sweep(state, self.graph, self.params, frozen=frozen_mask,
                      sweeps=sweeps, rng=rng)
        return state.config
