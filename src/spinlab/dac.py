"""Divide-and-Color measures: cluster layer, parity-class Fourier
coefficients, the class-valued spectral sample, and clue upper bounds.

A bond set N partitions the vertices into clusters; subsets of vertices are
equivalent when they share all per-cluster intersection parities, and each
equivalence class collects 2^(|V| - k(N)) subsets. Coefficients of classes
are sums of plain Walsh coefficients over the class.

The cluster layer is `ising.BondConfig(graph, open_edges)`: its k clusters
are ranked by smallest vertex (`graphs.component_labels`), so cluster j is
bit j of a parity profile and of a position in `BondConfig.colourings()`,
and `BondConfig.cluster_masks[j]` is its vertex bitmask. An explicit bond
distribution is decoded once by `bond_configs` into (BondConfig,
probability) pairs, so each bond mask is labelled once; the exact table,
`dac_expectation` and `dac_clue_upper_bound` all read that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bits
from .graphs import Graph, SubsetSpec, revealment, subset_support
from .clue import expected_clue
from .ising import BondConfig, IsingParams, fk_clusters, swendsen_wang
from .measures import DacMeasure, Magnetization, exact_table, subset_sums, values_of, walsh_transform
from .rng import bootstrap_se


def bond_configs(bond_table, graph: Graph) -> tuple[tuple[BondConfig, float], ...]:
    """Decode (edge bitmask, probability) pairs into labelled
    (BondConfig, probability) pairs, in the same order."""
    return tuple(
        (BondConfig(graph, _bits.bits_to_mask(bond_bits, graph.n_edges)), prob)
        for bond_bits, prob in bond_table
    )


def class_count(bonds: BondConfig) -> int:
    """Number of subsets in each parity class: 2^(|V| - k)."""
    return 1 << (bonds.graph.n_vertices - bonds.k)


@dataclass
class DacCoefficients:
    bonds: BondConfig
    coefficients: np.ndarray  # f_hat of each parity class, indexed by profile
    conditional_mean: float  # E[f | uniform coloring of these clusters]
    conditional_second_moment: float

    def representative(self, profile: int) -> int:
        """Canonical member of the class: the smallest vertex of each
        odd-parity cluster."""
        bits = 0
        for j, mask in enumerate(self.bonds.cluster_masks):
            if (profile >> j) & 1:
                bits |= mask & (-mask)  # lowest set bit = smallest vertex
        return bits


def dac_coefficients(f, bonds: BondConfig) -> DacCoefficients:
    """Accumulate the full Walsh transform by parity class.

    Verifies the coefficient of the all-even class equals the conditional
    mean given the clustering, and the per-class Parseval identity
    E[f^2 | clustering] = sum over classes of coefficient^2.
    """
    graph = bonds.graph
    n = graph.n_vertices
    values = values_of(f, n)
    coef = walsh_transform(values, n)
    masks, k = bonds.cluster_masks, bonds.k
    idx = _bits.config_indices(n)
    profile = np.zeros(1 << n, dtype=np.int64)
    for j, mask in enumerate(masks):
        parity = (_bits.popcount(idx & np.uint64(mask)) & 1).astype(np.int64)
        profile |= parity << j
    class_sizes = np.bincount(profile, minlength=1 << k)
    if not np.all(class_sizes == (1 << (n - k))):
        raise AssertionError("parity classes have unequal sizes")
    coeffs = np.bincount(profile, weights=coef, minlength=1 << k)

    # Conditional moments under uniform coloring of the clusters.
    sampled = values[bonds.colourings()]
    cond_mean = float(sampled.mean())
    cond_second = float((sampled**2).mean())
    if abs(coeffs[0] - cond_mean) > 1e-10 * max(1.0, abs(cond_mean)):
        raise AssertionError(
            f"all-even coefficient {coeffs[0]!r} != conditional mean {cond_mean!r}"
        )
    total = float((coeffs**2).sum())
    if abs(total - cond_second) > 1e-10 * max(1.0, abs(cond_second)):
        raise AssertionError(
            "per-class Parseval failed: "
            f"sum of squared class coefficients {total!r} vs E[f^2 | clusters] {cond_second!r}"
        )
    return DacCoefficients(bonds, coeffs, cond_mean, cond_second)


@dataclass(frozen=True)
class DacExpectationReport:
    e_f: float
    e_fg: float | None
    direct_e_f: float
    direct_e_fg: float | None


def dac_expectation(f, bonds, graph: Graph, g=None) -> DacExpectationReport:
    """First and paired second moments under the coloring measure of the
    (BondConfig, probability) pairs `bonds`.

    Both the class-coefficient formulas and the induced spin table are
    evaluated and must agree to 1e-9.
    """
    n = graph.n_vertices
    f_vals = values_of(f, n)
    g_vals = None if g is None else values_of(g, n)
    e_f = 0.0
    e_fg = 0.0 if g_vals is not None else None
    for bond_config, prob in bonds:
        cf = dac_coefficients(f_vals, bond_config)
        e_f += prob * cf.coefficients[0]
        if g_vals is not None:
            cg = dac_coefficients(g_vals, bond_config)
            e_fg += prob * float(cf.coefficients @ cg.coefficients)
    table = exact_table(DacMeasure(tuple(bonds)), graph)
    direct_f = table.expectation(f_vals)
    direct_fg = table.expectation(f_vals * g_vals) if g_vals is not None else None
    if abs(e_f - direct_f) > 1e-9 * max(1.0, abs(direct_f)):
        raise AssertionError(f"first-moment formula {e_f!r} != direct {direct_f!r}")
    if g_vals is not None and abs(e_fg - direct_fg) > 1e-9 * max(1.0, abs(direct_fg)):
        raise AssertionError(f"pair-moment formula {e_fg!r} != direct {direct_fg!r}")
    return DacExpectationReport(e_f, e_fg, direct_f, direct_fg)


def spectral_sample_dac(
    f, bonds: BondConfig, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Draw parity profiles with probability proportional to the squared
    class coefficient, conditionally on the given bond layer."""
    cf = dac_coefficients(f, bonds)
    weights = cf.coefficients**2
    total = weights.sum()
    if total <= 0:
        raise ValueError("degenerate conditional: E[f^2 | clusters] = 0")
    return rng.choice(len(weights), size=size, p=weights / total).astype(np.int64)


def class_within(profile: int, bonds: BondConfig, subset_mask) -> bool:
    """True iff some member of the class fits inside the subset, i.e. every
    odd-parity cluster meets it."""
    bits = _bits.mask_to_bits(np.asarray(subset_mask, dtype=bool)) if not isinstance(
        subset_mask, (int, np.integer)
    ) else int(subset_mask)
    masks = bonds.cluster_masks
    if profile >= (1 << len(masks)):
        raise ValueError("profile does not match this clustering")
    for j, mask in enumerate(masks):
        if (profile >> j) & 1 and not (mask & bits):
            return False
    return True


@dataclass(frozen=True)
class DacClueBounds:
    exact_expected_clue: float
    spectral_bound: float
    theorem_bound: float
    cluster_ratio_bound: float
    singleton_bound_for_magnetization: float | None
    clue_given_bonds: float


def dac_clue_upper_bound(f, bonds, spec: SubsetSpec, graph: Graph) -> DacClueBounds:
    """All applicable clue upper bounds for a function of the coloring
    measure of the (BondConfig, probability) pairs `bonds`.

    The function is centered internally (the spectral bound needs mean
    zero). The exact expected clue is evaluated and verified to sit below
    each applicable bound.
    """
    n = graph.n_vertices
    f_vals = values_of(f, n)
    table = exact_table(DacMeasure(tuple(bonds)), graph)
    fc = f_vals - table.expectation(f_vals)
    var_f = table.variance(fc)
    if var_f <= 0:
        raise ValueError("constant function: bounds are vacuous")
    rev_vec, delta = revealment(spec, graph)
    support = subset_support(spec, graph)

    is_magnetization = bool(
        np.allclose(f_vals, Magnetization().table_values(n))
    )

    spectral = 0.0
    clue_given_bonds = 0.0
    e_max_cluster = 0.0
    sum_c1 = 0.0
    sum_c2 = 0.0
    singleton = 0.0 if is_magnetization else None
    for bond_config, prob in bonds:
        cf = dac_coefficients(fc, bond_config)
        sq = cf.coefficients**2
        clue_given_bonds += prob * sq[0]
        sizes = bond_config.cluster_sizes()
        e_max_cluster += prob * float(sizes.max())
        sum_c1 += prob * float(sizes.sum())
        sum_c2 += prob * float((sizes.astype(float) ** 2).sum())
        # Profile p fits inside U iff p avoids every cluster disjoint from U,
        # so the feasible mass is a subset sum over the good clusters.
        sq_subset_sums = subset_sums(sq, bond_config.k)
        masks = bond_config.cluster_masks
        for ubits, uprob in support:
            good = 0
            for j, mask in enumerate(masks):
                if mask & ubits:
                    good |= 1 << j
            inside = float(sq_subset_sums[good]) - sq[0]
            spectral += prob * uprob * inside
        if is_magnetization:
            # Per-vertex class probabilities weighted by membership
            # probability: the union-bound stage of the magnetization bound.
            for j in range(bond_config.k):
                verts = np.flatnonzero(bond_config.labels == j)
                class_weight = (len(verts) / n) ** 2
                singleton += prob * class_weight * float(rev_vec[verts].sum())

    clue_given_bonds /= var_f
    spectral = spectral / var_f + clue_given_bonds
    theorem = delta * e_max_cluster + clue_given_bonds
    cluster_ratio = delta * sum_c2 / sum_c1 if sum_c1 > 0 else math.nan
    if singleton is not None:
        singleton = singleton / var_f + clue_given_bonds

    exact = expected_clue(table, fc, spec, graph)
    tol = 1e-9
    if exact > spectral + tol:
        raise AssertionError(
            f"exact expected clue {exact!r} exceeded the spectral bound {spectral!r}"
        )
    if exact > theorem + tol:
        raise AssertionError(
            f"exact expected clue {exact!r} exceeded the cluster-size bound {theorem!r}"
        )
    if is_magnetization and exact > cluster_ratio + tol:
        raise AssertionError(
            f"exact expected clue {exact!r} exceeded the cluster-ratio bound"
        )
    return DacClueBounds(exact, spectral, theorem, cluster_ratio, singleton, clue_given_bonds)


# -- FK-driven magnetization bound --------------------------------------------


@dataclass(frozen=True)
class FkBoundReport:
    ratio_bound: float  # revealment * sum E|C_v|^2 / sum E|C_v|
    ratio_se: float
    max_cluster_bound: float  # revealment * E[max cluster]


def fk_magnetization_bound(
    graph: Graph,
    beta: float,
    spec: SubsetSpec,
    samples: int,
    rng: np.random.Generator,
    sweeps: int = 200,
    bootstrap: int = 200,
) -> FkBoundReport:
    """Monte Carlo cluster moments for the reconstruction bound on the
    average magnetization: both right-hand-side forms, the ratio form with
    a bootstrap SE.

    The `samples` independent cluster chains of `sweeps` steps each run as
    the replicas of one `swendsen_wang` call, followed by one bond draw
    whose labelling gives every replica's cluster sizes."""
    params = IsingParams(beta=beta, J=1.0)
    _, delta = revealment(spec, graph)
    if sweeps < 1:
        raise ValueError("need at least one step")
    cfgs = rng.choice(_bits.SPINS, size=(samples, graph.n_vertices))
    swendsen_wang(cfgs, graph, params, sweeps, rng)
    labels = fk_clusters(cfgs, graph, params, rng)
    sizes = np.bincount(labels.ravel())[labels].astype(float)
    sum1 = sizes.sum(axis=1)
    sum2 = (sizes**2).sum(axis=1)
    maxc = sizes.max(axis=1)
    ratio = delta * sum2.mean() / sum1.mean()
    se = bootstrap_se(lambda pick: delta * sum2[pick].mean() / sum1[pick].mean(),
                      samples, bootstrap, rng)
    return FkBoundReport(
        ratio_bound=float(ratio),
        ratio_se=se,
        max_cluster_bound=float(delta * maxc.mean()),
    )
