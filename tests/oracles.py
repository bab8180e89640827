"""Exact reference computations, and the earlier forms of the sampling kernels,
that the tests check the package against."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from spinlab import _bits
from spinlab.clue import EXACT_RANGE_TOL
from spinlab.graphs import subset_support
from spinlab.ising import _heat_bath_tables
from spinlab.measures import ProbabilityTable, values_of


@dataclass(frozen=True)
class SusceptibilityReport:
    chi: float
    n_times_var_m: float


def _is_transitive(graph) -> bool:
    """Whether the graph's translation group moves vertex 0 to every vertex."""
    if graph.translations is None:
        return False
    hit = np.zeros(graph.n_vertices, dtype=bool)
    hit[graph.translations[:, 0]] = True
    return bool(hit.all())


def susceptibility(table: ProbabilityTable, graph) -> SusceptibilityReport:
    """Sum of covariances of one spin with all spins, for transitive graphs.

    Also evaluates |V| * Var(M) and checks the two agree to 1e-9.
    """
    if not _is_transitive(graph):
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


def iclue_exact(table: ProbabilityTable, f, subset_bits: int) -> float:
    """I(f ; spins on the subset) / H(f) from the exact joint law, base 2.

    f must be discrete-valued on the table's support.
    """
    values = values_of(f, table.n)
    idx = _bits.config_indices(table.n)
    distinct, z_inverse = np.unique(values, return_inverse=True)
    if len(distinct) > 4096:
        raise ValueError(
            "information clue needs a discrete-valued function "
            f"(found {len(distinct)} distinct values)"
        )
    n_z = z_inverse.max() + 1
    patterns, pat_inverse = np.unique(
        (idx & np.uint64(subset_bits)).astype(np.int64), return_inverse=True
    )
    joint = np.zeros((n_z, len(patterns)))
    np.add.at(joint, (z_inverse, pat_inverse), table.p)

    def ent(x):
        x = x[x > 0]
        return float(-(x * np.log2(x)).sum())

    h_z = ent(joint.sum(axis=1))
    if h_z <= 0:
        raise ValueError("degenerate function: zero entropy")
    i = h_z + ent(joint.sum(axis=0)) - ent(joint.reshape(-1))
    return min(max(i / h_z, 0.0), 1.0)


def expected_clue_by_subset(table: ProbabilityTable, f, spec, graph) -> float:
    """E over the support of `spec` of Var(E[f | F_S]) / Var(f), with one
    `conditional_mean` and two two-pass variances per subset, each fraction
    clamped to [0, 1]; 0 when f is constant on the table's support."""
    values = values_of(f, table.n)
    seen = values[table.p > 0]
    if seen.min() == seen.max():
        return 0.0
    var_f = table.variance(values)
    total = 0.0
    for bits, prob in subset_support(spec, graph):
        explained = table.variance(table.conditional_mean(values, bits)) / var_f
        total += prob * min(max(explained, 0.0), 1.0)
    return total


def _normalized_members(table: ProbabilityTable, f, spec, graph):
    """(P[U=S], (Y_S - E Y_S) / sd(Y_S)) for every subset of the support,
    with Y_S = E[f | F_S] from one `conditional_mean` per subset, and None
    for a member whose explained fraction Var(Y_S) / Var(f) is at most
    EXACT_RANGE_TOL."""
    values = values_of(f, table.n)
    var_f = table.variance(values)
    members = []
    for bits, prob in subset_support(spec, graph):
        y = table.conditional_mean(values, bits)
        var = table.variance(y)
        keep = var > EXACT_RANGE_TOL * var_f
        members.append((prob, (y - table.expectation(y)) / math.sqrt(var) if keep else None))
    return members


def average_correlation_by_subset(table: ProbabilityTable, f, spec, graph) -> float:
    """E[Corr(Y_U1, Y_U2)] over two independent subset draws, as the double
    sum over pairs of subsets; pairs with a dropped member contribute 0."""
    members = [(q, y) for q, y in _normalized_members(table, f, spec, graph) if y is not None]
    return sum(qi * qj * table.expectation(yi * yj)
               for qi, yi in members for qj, yj in members)


def mean_correlation_by_subset(table: ProbabilityTable, z, f, spec, graph) -> float:
    """E[Corr(Z, Y_U)] over the subset draw, one subset at a time; dropped
    members contribute 0."""
    z_values = values_of(z, table.n)
    sd_z = math.sqrt(table.variance(z_values))
    if sd_z <= 0:
        raise ValueError("reference variable is constant")
    centred = z_values - table.expectation(z_values)
    return sum(q * table.expectation(centred * y) / sd_z
               for q, y in _normalized_members(table, f, spec, graph) if y is not None)


def shearer_rhs_by_subset(table: ProbabilityTable, spec, graph) -> float:
    """E[H(spins on U)] in bits, with one `bincount` of the observed
    patterns x & S per subset."""
    idx = _bits.config_indices(table.n)
    total = 0.0
    for bits, prob in subset_support(spec, graph):
        law = np.bincount((idx & np.uint64(bits)).astype(np.int64), weights=table.p)
        law = law[law > 0]
        total += prob * float(-(law * np.log2(law)).sum())
    return total


def heat_bath_reference(cfgs, graph, params, sweeps, rng, frozen=None, coupled=False):
    """`ising.heat_bath` in its replica-major form: each colour class sums its
    neighbours with one (R, degree, sites) gather added up in int64 and sets
    the new spins with `np.where`. It draws the same uniforms in the same
    order, so the kernel must match it bit for bit."""
    n = graph.n_vertices
    geom = graph.geometry
    degmax = geom.max_degree
    p_plus = np.roll(_heat_bath_tables(params, degmax), -degmax)
    plan = []
    for sites in geom.classes:
        if frozen is not None:
            sites = sites[~np.asarray(frozen, dtype=bool)[sites]]
        if len(sites):
            shape = len(sites) if coupled else (len(cfgs), len(sites))
            plan.append((sites, geom.nbrs[sites].T.copy(), shape))
    work = np.zeros((len(cfgs), n + 1), dtype=np.int8)  # column n: the sentinel 0
    work[:, :n] = cfgs
    for _ in range(sweeps):
        for sites, slots, shape in plan:
            m = work.take(slots, axis=1).sum(axis=1)
            work[:, sites] = np.where(rng.random(shape) < p_plus[m], np.int8(1), np.int8(-1))
    cfgs[:] = work[:, :n]
    return cfgs


def component_labels_reference(graph, open_edges):
    """`graphs.component_labels` with its CSR row pointers read off a cumsum
    over every neighbour slot and its column indices compressed from all
    slots; the same matrix, so the same labels and count."""
    opens = np.asarray(open_edges, dtype=bool)
    geom = graph.geometry
    n, m, degmax = graph.n_vertices, graph.n_edges, geom.max_degree
    rows = np.atleast_2d(opens)
    size = len(rows) * n
    is_open = np.zeros((len(rows), m + 1), dtype=bool)
    is_open[:, :m] = rows
    open_slots = is_open.take(geom.slot_edge.ravel(), axis=1).ravel()
    indptr = np.zeros(size + 1, dtype=np.int32)
    if degmax:
        indptr[1:] = np.cumsum(open_slots, dtype=np.int32)[degmax - 1::degmax]
    offsets = n * np.arange(len(rows), dtype=np.int32)[:, None]
    indices = np.compress(open_slots, geom.nbrs.ravel().astype(np.int32) + offsets)
    mat = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(size, size))
    k, labels = connected_components(mat, directed=True, connection="strong")
    return labels.reshape(opens.shape[:-1] + (n,)), k


def swendsen_wang_step_reference(cfgs, graph, params, rng):
    """One step of `ising.swendsen_wang` on the (R, n) array `cfgs` with its
    bond ends read by fancy indexing, `component_labels_reference` and the
    cluster coins from `np.where`; returns (labels, k, new configurations)."""
    u, v = graph.edges.T
    opens = (cfgs[:, u] == cfgs[:, v]) & (rng.random((len(cfgs), graph.n_edges))
                                          < params.p_bond)
    labels, k = component_labels_reference(graph, opens)
    return labels, k, np.where(rng.random(k) < 0.5, np.int8(1), np.int8(-1))[labels]
