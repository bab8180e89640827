"""Exact reference computations that more than one test module checks the
package against."""

from dataclasses import dataclass

import numpy as np

from spinlab import _bits
from spinlab.graphs import subset_support
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
