"""Ising Gibbs measures on finite graphs: the energies of all 2^n
configurations, heat-bath dynamics, Swendsen-Wang, FK bond sampling,
cluster coloring and exact conditional redraws of small free sets.

`heat_bath` redraws one colour class of an (R, n) int8 array of replicas
at a time. `swendsen_wang` is the one Swendsen-Wang path: it labels the
clusters of all R copies with one `graphs.component_labels` call and gives
cluster j (ranked by smallest vertex) the j-th coin `rng.random() < 0.5`.
`sw_chain` is that kernel with R = 1, and `fk_clusters` its bond draw and
labelling alone. No library code calls the scalar single-chain steps
`glauber_sweep` and `swendsen_wang_step`; the tests pin their streams.

Weights are exp(-beta * H) with H = -J * sum_edges s_u s_v - h * sum_v s_v.
Under this convention the bond-opening probability that makes cluster
coloring reproduce the Gibbs measure is 1 - exp(-2 beta J); the two-point
identity E[s_x s_y] = P[x connected to y] is verified in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


@functools.lru_cache(maxsize=64)
def _heat_bath_tables(params: IsingParams, max_degree: int) -> tuple[float, ...]:
    """P[spin = +1 | neighbor sum m] indexed by m + max_degree; memoised,
    since a single chain asks for the same table on every sweep."""
    thetas = (params.beta * (params.J * m + params.h)
              for m in range(-max_degree, max_degree + 1))
    return tuple(1.0 / (1.0 + math.exp(-2.0 * theta)) for theta in thetas)


def glauber_sweep(
    state: ChainState,
    graph: Graph,
    params: IsingParams,
    frozen: np.ndarray | None = None,
    sweeps: int = 1,
    rng: np.random.Generator | None = None,
) -> ChainState:
    """Systematic-scan heat-bath sweeps, updating the state in place.

    Vertices in `frozen` are never touched, so the chain is reversible for
    the conditional measure given the frozen spins.
    """
    rng = rng if rng is not None else state.rng
    if rng is None:
        raise ValueError("no random stream attached to the chain")
    n = graph.n_vertices
    nbrs = graph.geometry.lists
    degmax = graph.geometry.max_degree
    p_plus = _heat_bath_tables(params, degmax)
    cfg = state.config.tolist()
    if frozen is not None:
        free = [v for v, f in enumerate(np.asarray(frozen, dtype=bool).tolist()) if not f]
    else:
        free = list(range(n))
    n_free = len(free)
    if n_free == 0:
        state.sweeps += sweeps
        return state
    for _ in range(sweeps):
        for v, u_draw in zip(free, rng.random(n_free).tolist()):
            m = degmax  # the table index of neighbour sum 0
            for u in nbrs[v]:
                m += cfg[u]
            cfg[v] = 1 if u_draw < p_plus[m] else -1
        state.sweeps += 1
    state.config = np.asarray(cfg, dtype=np.int8)
    return state


def heat_bath(
    cfgs: np.ndarray,
    graph: Graph,
    params: IsingParams,
    sweeps: int,
    rng: np.random.Generator,
    frozen: np.ndarray | None = None,
    coupled: bool = False,
) -> np.ndarray:
    """Heat-bath sweeps of R replicas at once, in place on the (R, n) int8
    array `cfgs`, which is also returned.

    A sweep redraws the colour classes of `graph.geometry` in turn; no edge
    joins two sites of one class, so a class is redrawn at once from its
    conditional law given the rest. Sites in `frozen` are never touched.
    With `coupled=True` all replicas share one row of uniforms per class:
    the identical-randomness grand coupling, under which equal replicas stay
    equal and, since J > 0, ordered replicas stay ordered.
    """
    cfgs = np.asarray(cfgs)
    n = graph.n_vertices
    if cfgs.dtype != np.int8 or cfgs.ndim != 2 or cfgs.shape[1] != n:
        raise ValueError(f"heat_bath needs an (R, {n}) int8 array")
    geom = graph.geometry
    degmax = geom.max_degree
    # P[+1 | neighbour sum m] at index m, negative m counting from the end
    p_plus = np.roll(_heat_bath_tables(params, degmax), -degmax)
    acc = np.int8 if degmax <= 127 else np.int16  # holds every sum in -degmax..degmax
    plan = []  # (sites, neighbour slots by degree, shape of one draw of uniforms)
    for sites in geom.classes:
        if frozen is not None:
            sites = sites[~np.asarray(frozen, dtype=bool)[sites]]
        if len(sites):
            shape = (1 if coupled else len(cfgs), len(sites))
            plan.append((sites, geom.nbrs[sites].T.copy(), shape))
    # site-major, so that the neighbour sum adds whole rows of replicas;
    # row n is the sentinel 0
    work = np.zeros((n + 1, len(cfgs)), dtype=np.int8)
    work[:n] = cfgs.T
    for _ in range(sweeps):
        for sites, slots, shape in plan:
            m = work.take(slots, axis=0).sum(axis=0, dtype=acc)
            work[sites] = (rng.random(shape).T < p_plus.take(m)).view(np.int8) * 2 - 1
    cfgs[:] = work[:n].T
    return cfgs


#: Working bytes of one `swendsen_wang` step above which it refuses to run.
SW_BYTES_CAP = 1 << 29


def check_sw_bytes(graph: Graph, replicas: int) -> int:
    """The working bytes of one `swendsen_wang` step of `replicas` copies of
    `graph`; raise `ValueError` if that is more than `SW_BYTES_CAP`."""
    n, m, degmax = graph.n_vertices, graph.n_edges, graph.geometry.max_degree
    size = replicas * n
    # column indices (int32) + open mask + CSR indices and data per slot;
    # uniform, comparisons and mask per bond; labels, row pointers and coins
    est = 17 * size * degmax + 13 * replicas * m + 24 * size
    if est > SW_BYTES_CAP:
        raise ValueError(
            f"swendsen_wang on {replicas} x {n} sites needs about {est} bytes "
            f"per step, over the cap of {SW_BYTES_CAP}")
    return est


def _cluster_labeller(graph: Graph, replicas: int, params: IsingParams):
    """Returns `label(cfgs, rng) -> (labels, k)`, which draws the bond layer
    of every row of a (replicas, n) configuration array from one uniform
    array and labels the clusters of all rows with one `component_labels`
    call."""
    if params.h != 0.0:
        raise ValueError("cluster moves need zero external field")
    check_sw_bytes(graph, replicas)
    (a, b), m, p_bond = graph.edges.T.copy(), graph.n_edges, params.p_bond

    def label(cfgs: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        return component_labels(graph, (cfgs.take(a, axis=1) == cfgs.take(b, axis=1))
                                & (rng.random((replicas, m)) < p_bond))

    return label


def _cluster_coins(labels: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """One fair +-1 int8 coin per cluster, drawn as `rng.random(k) < 0.5` in
    label order, spread over the sites by their cluster labels."""
    return ((rng.random(k) < 0.5).view(np.int8) * 2 - 1)[labels]


def swendsen_wang(
    cfgs: np.ndarray,
    graph: Graph,
    params: IsingParams,
    steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Swendsen-Wang steps of R independent replicas at once, in place on
    the (R, n) int8 array `cfgs`, which is also returned.

    A step draws every bond of every replica from one (R, m) uniform array,
    labels the clusters of all replicas with one scipy call (clusters never
    cross replicas) and gives each cluster one fair coin from one uniform
    per cluster.
    """
    cfgs = np.asarray(cfgs)
    n = graph.n_vertices
    if cfgs.dtype != np.int8 or cfgs.ndim != 2 or cfgs.shape[1] != n:
        raise ValueError(f"swendsen_wang needs an (R, {n}) int8 array")
    label = _cluster_labeller(graph, len(cfgs), params)
    for _ in range(steps):
        cfgs[:] = _cluster_coins(*label(cfgs, rng), rng)
    return cfgs


def fk_clusters(
    cfgs: np.ndarray, graph: Graph, params: IsingParams, rng: np.random.Generator
) -> np.ndarray:
    """Draw the Edwards-Sokal bond layer of every row of the (R, n) array
    `cfgs` and return the (R, n) cluster labels; no two rows share a label."""
    return _cluster_labeller(graph, len(cfgs), params)(np.asarray(cfgs), rng)[0]


@dataclass
class BondConfig:
    """Open-edge subset of a graph with its k clusters; `labels[v]` is the
    rank of v's cluster in the order of the clusters' smallest vertices."""

    graph: Graph
    open_edges: np.ndarray  # bool per edge
    labels: np.ndarray = None  # cluster rank per vertex, from component_labels
    k: int = 0

    def __post_init__(self):
        self.open_edges = np.asarray(self.open_edges, dtype=bool)
        if self.open_edges.shape != (self.graph.n_edges,):
            raise ValueError("edge mask length mismatch")
        if self.labels is None:
            self.labels, self.k = component_labels(self.graph, self.open_edges)

    def cluster_sizes(self) -> np.ndarray:
        """Size of the cluster containing each vertex."""
        return np.bincount(self.labels, minlength=self.k)[self.labels]

    @functools.cached_property
    def cluster_masks(self) -> list[int]:
        """Vertex bitmask of each cluster, in label order."""
        masks = [0] * self.k
        for v, c in enumerate(self.labels.tolist()):
            masks[c] |= 1 << v
        return masks

    def colourings(self) -> np.ndarray:
        """The 2^k configuration indices constant on clusters; bit j of the
        position gives cluster j spin +1."""
        out = np.zeros(1, dtype=np.int64)
        for mask in self.cluster_masks:
            out = np.concatenate([out, out | mask])
        return out


def swendsen_wang_step(
    config: np.ndarray,
    graph: Graph,
    params: IsingParams,
    rng: np.random.Generator,
) -> tuple[BondConfig, np.ndarray]:
    """One bond-then-color step; returns the bond layer and the new spins.

    No library code calls it: `sw_chain` and every recipe run the replica
    kernel. Its cost grows by about 0.34 us per edge (2.5 ms per step on
    the 60x60 torus, against 0.6 ms for the kernel). It union-finds and
    ranks the roots in one pass over Python lists, so the `BondConfig`
    carries the labels `component_labels` would give, and
    `edwards_sokal_color` draws the kernel's coins.
    """
    if params.h != 0.0:
        raise ValueError("cluster moves need zero external field")
    spins = np.asarray(config, dtype=np.int8).tolist()
    n, p_bond = graph.n_vertices, params.p_bond
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    opens = []
    for (u, v), draw in zip(graph.edge_list, rng.random(graph.n_edges).tolist()):
        is_open = spins[u] == spins[v] and draw < p_bond
        opens.append(is_open)
        if is_open:
            ru, rv = find(u), find(v)
            if ru < rv:
                parent[rv] = ru
            elif rv < ru:
                parent[ru] = rv
    rank = {}  # each root is its cluster's smallest vertex, met first at itself
    labels = [rank.setdefault(find(v), len(rank)) for v in range(n)]
    bonds = BondConfig(graph, np.array(opens, dtype=bool),
                       np.array(labels, dtype=np.int64), len(rank))
    return bonds, edwards_sokal_color(bonds, rng)


def edwards_sokal_color(bonds: BondConfig, rng: np.random.Generator) -> np.ndarray:
    """Assign one fair +-1 coin per cluster, in label order, as the replica
    kernel does; spins are constant on clusters."""
    return _cluster_coins(bonds.labels, bonds.k, rng)


def sw_chain(
    graph: Graph,
    params: IsingParams,
    rng: np.random.Generator,
    steps: int,
    config: np.ndarray | None = None,
) -> np.ndarray:
    """Run `steps` cluster updates of one chain, from `config` or a uniform
    start, and return the final configuration: the replica kernel with
    R = 1."""
    cfg = rng.choice(_bits.SPINS, size=graph.n_vertices) if config is None else config
    return swendsen_wang(np.array(cfg, dtype=np.int8, ndmin=2), graph, params, steps, rng)[0]


# -- conditional sampling helpers --------------------------------------------


def conditional_exact_resample(
    graph: Graph,
    params: IsingParams,
    config: np.ndarray,
    free_vertices: np.ndarray,
    u: float,
) -> np.ndarray:
    """Exact draw of the spins on `free_vertices` given the rest, by direct
    enumeration, from the uniform `u` in [0, 1); only for small free sets
    (<= 16 spins). Passing one `u` to two copies couples them with
    identical randomness.
    """
    free = np.asarray(free_vertices, dtype=np.int64)
    m = len(free)
    if m > 16:
        raise ValueError("exact conditional resampling capped at 16 free spins")
    cfg = np.asarray(config, dtype=np.int8).copy()
    n = graph.n_vertices
    nbrs = graph.geometry.nbrs[free]
    pos = np.full(n + 1, -1, dtype=np.int64)
    pos[free] = np.arange(m)
    outside = np.append(cfg, np.int8(0))  # the sentinel and free sites add 0
    outside[free] = 0
    fields = params.J * outside[nbrs].sum(axis=1) + params.h
    # internal edges u < v in the order of graph.edges
    rows, cols = np.nonzero((pos[nbrs] >= 0) & (nbrs > free[:, None]))
    order = np.lexsort((nbrs[rows, cols], free[rows]))
    internal = zip(rows[order].tolist(), pos[nbrs[rows, cols]][order].tolist())
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
    pick = int(np.searchsorted(cdf, u, side="right"))
    for i, v in enumerate(free):
        cfg[v] = 1 if (pick >> i) & 1 else -1
    return cfg


class ConditionalGibbsSampler:
    """Draws from the Gibbs measure conditioned on frozen spins.

    Full (unconditional) draws use cluster moves; conditional inner draws
    run `sweeps_between` frozen heat-bath sweeps from the current state.
    """

    def __init__(self, graph: Graph, params: IsingParams, sweeps_between: int,
                 sw_burnin: int = DEFAULT_SW_BURNIN):
        self.graph = graph
        self.params = params
        self.sw_burnin = sw_burnin
        self.sweeps_between = sweeps_between

    def draw_full(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` independent full draws as a (count, n) array: cluster
        chains from uniform starts, run as replicas of one kernel call."""
        cfgs = rng.choice(_bits.SPINS, size=(count, self.graph.n_vertices))
        return swendsen_wang(cfgs, self.graph, self.params, self.sw_burnin, rng)

    def resample_free(
        self, configs: np.ndarray, frozen_mask: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Redraw the free spins of every row of the (R, n) array `configs`
        by heat-bath sweeps, returning a new (R, n) array."""
        cfgs = np.array(configs, dtype=np.int8, ndmin=2)
        return heat_bath(cfgs, self.graph, self.params, self.sweeps_between, rng,
                         frozen=np.asarray(frozen_mask, dtype=bool))
