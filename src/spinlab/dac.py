"""Divide-and-Color measures: cluster layer, parity-class Fourier
coefficients, the class-valued spectral sample, and clue upper bounds.

A bond set N partitions the vertices into clusters; subsets of vertices are
equivalent when they share all per-cluster intersection parities, and each
equivalence class collects 2^(|V| - k(N)) subsets. Coefficients of classes
are sums of plain Walsh coefficients over the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bits
from .graphs import Graph, SubsetSpec, revealment, subset_support
from .ising import BondConfig, IsingParams, fk_sample
from .measures import DacMeasure, Magnetization, exact_table, subset_sums, values_of, walsh_transform


def clusters(graph: Graph, open_edges) -> BondConfig:
    """Label clusters of the open-edge subgraph; k and the class count
    2^(n - k) are exposed by the result."""
    return BondConfig(graph, np.asarray(open_edges, dtype=bool))


def class_count(bonds: BondConfig) -> int:
    """Number of subsets in each parity class: 2^(|V| - k)."""
    return 1 << (bonds.graph.n_vertices - bonds.k)


def _cluster_bit_masks(bonds: BondConfig) -> list[int]:
    """Vertex bitmask of each cluster, ordered by smallest member."""
    members = bonds.cluster_members()
    return [
        int(sum(1 << int(v) for v in verts))
        for _, verts in sorted(members.items())
    ]


@dataclass
class DacCoefficients:
    bonds: BondConfig
    k: int
    cluster_masks: list[int]  # bitmask per cluster, min-vertex order
    coefficients: np.ndarray  # f_hat of each parity class, indexed by profile
    conditional_mean: float  # E[f | uniform coloring of these clusters]
    conditional_second_moment: float

    def profile_of(self, subset_bits: int) -> int:
        prof = 0
        for j, mask in enumerate(self.cluster_masks):
            if bin(subset_bits & mask).count("1") & 1:
                prof |= 1 << j
        return prof

    def representative(self, profile: int) -> int:
        """Canonical member of the class: the smallest vertex of each
        odd-parity cluster."""
        bits = 0
        for j, mask in enumerate(self.cluster_masks):
            if (profile >> j) & 1:
                bits |= mask & (-mask)  # lowest set bit = smallest vertex
        return bits


def dac_coefficients(f, bonds: BondConfig, allow_large: bool = False) -> DacCoefficients:
    """Accumulate the full Walsh transform by parity class.

    Verifies the coefficient of the all-even class equals the conditional
    mean given the clustering, and the per-class Parseval identity
    E[f^2 | clustering] = sum over classes of coefficient^2.
    """
    graph = bonds.graph
    n = graph.n_vertices
    values = values_of(f, n, allow_large)
    coef = walsh_transform(values, n)
    masks = _cluster_bit_masks(bonds)
    k = len(masks)
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
    colorings = _bits.config_indices(k)
    config_bits = np.zeros(1 << k, dtype=np.int64)
    for j, mask in enumerate(masks):
        chosen = ((colorings >> np.uint64(j)) & np.uint64(1)).astype(bool)
        config_bits |= np.where(chosen, mask, 0)
    sampled = values[config_bits]
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
    return DacCoefficients(bonds, k, masks, coeffs, cond_mean, cond_second)


@dataclass(frozen=True)
class DacExpectationReport:
    e_f: float
    e_fg: float | None
    direct_e_f: float
    direct_e_fg: float | None
    se_f: float | None = None
    se_fg: float | None = None


def dac_expectation(
    f,
    bond_table,
    graph: Graph,
    g=None,
    rng: np.random.Generator | None = None,
    replicas: int | None = None,
) -> DacExpectationReport:
    """First and paired second moments under the coloring measure.

    With an explicit bond distribution both the class-coefficient formulas
    and the induced spin table are evaluated and must agree to 1e-9; with a
    sampler the comparison is Monte Carlo at matched replica counts.
    """
    n = graph.n_vertices
    f_vals = values_of(f, n)
    g_vals = None
    if g is not None:
        g_vals = values_of(g, n)

    if replicas is None:
        e_f = 0.0
        e_fg = 0.0 if g_vals is not None else None
        for bond_bits, prob in bond_table:
            bonds = BondConfig(graph, _bits.bits_to_mask(bond_bits, graph.n_edges))
            cf = dac_coefficients(f_vals, bonds)
            e_f += prob * cf.coefficients[0]
            if g_vals is not None:
                cg = dac_coefficients(g_vals, bonds)
                e_fg += prob * float(cf.coefficients @ cg.coefficients)
        table = exact_table(DacMeasure(tuple(bond_table)), graph)
        direct_f = table.expectation(f_vals)
        direct_fg = table.expectation(f_vals * g_vals) if g_vals is not None else None
        if abs(e_f - direct_f) > 1e-9 * max(1.0, abs(direct_f)):
            raise AssertionError(f"first-moment formula {e_f!r} != direct {direct_f!r}")
        if g_vals is not None and abs(e_fg - direct_fg) > 1e-9 * max(1.0, abs(direct_fg)):
            raise AssertionError(f"pair-moment formula {e_fg!r} != direct {direct_fg!r}")
        return DacExpectationReport(e_f, e_fg, direct_f, direct_fg)

    if rng is None:
        raise ValueError("sampled mode needs a stream")
    sampler = bond_table  # callable(rng) -> BondConfig
    from .ising import edwards_sokal_color

    vals_f, vals_fg, direct_fs, direct_fgs = [], [], [], []
    for _ in range(replicas):
        bonds = sampler(rng)
        cf = dac_coefficients(f_vals, bonds)
        vals_f.append(float(cf.coefficients[0]))
        cfg = edwards_sokal_color(bonds, rng)
        fx = float(f_vals[_bits.config_to_index(cfg)])
        direct_fs.append(fx)
        if g_vals is not None:
            cg = dac_coefficients(g_vals, bonds)
            vals_fg.append(float(cf.coefficients @ cg.coefficients))
            direct_fgs.append(fx * float(g_vals[_bits.config_to_index(cfg)]))
    vals_f = np.asarray(vals_f)
    se_f = float(vals_f.std(ddof=1) / math.sqrt(replicas))
    rep = DacExpectationReport(
        float(vals_f.mean()),
        float(np.mean(vals_fg)) if g_vals is not None else None,
        float(np.mean(direct_fs)),
        float(np.mean(direct_fgs)) if g_vals is not None else None,
        se_f,
        float(np.std(vals_fg, ddof=1) / math.sqrt(replicas)) if g_vals is not None else None,
    )
    return rep


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
    masks = _cluster_bit_masks(bonds)
    if profile >= (1 << len(masks)):
        raise ValueError("profile does not match this clustering")
    for j, mask in enumerate(masks):
        if (profile >> j) & 1 and not (mask & bits):
            return False
    return True


@dataclass(frozen=True)
class DacClueBounds:
    exact_expected_clue: float | None
    spectral_bound: float
    theorem_bound: float
    cluster_ratio_bound: float
    singleton_bound_for_magnetization: float | None
    clue_given_bonds: float
    centering_offset: float
    smallest_odd_cluster_diagnostic: float | None


def dac_clue_upper_bound(
    f,
    bond_table,
    spec: SubsetSpec,
    graph: Graph,
    compute_exact: bool = True,
) -> DacClueBounds:
    """All applicable clue upper bounds for a function of a coloring measure.

    The function is centered internally (the spectral bound needs mean
    zero); the offset is reported. With an explicit bond distribution and a
    table-sized graph the exact expected clue is evaluated and verified to
    sit below each applicable bound.
    """
    n = graph.n_vertices
    f_vals = values_of(f, n)
    table = exact_table(DacMeasure(tuple(bond_table)), graph)
    offset = table.expectation(f_vals)
    fc = f_vals - offset
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
    beta_diag_num = 0.0
    for bond_bits, prob in bond_table:
        bonds = BondConfig(graph, _bits.bits_to_mask(bond_bits, graph.n_edges))
        cf = dac_coefficients(fc, bonds)
        sq = cf.coefficients**2
        clue_given_bonds += prob * sq[0]
        sizes = bonds.cluster_sizes()
        e_max_cluster += prob * float(sizes.max())
        sum_c1 += prob * float(sizes.sum())
        sum_c2 += prob * float((sizes.astype(float) ** 2).sum())
        # Profile p fits inside U iff p avoids every cluster disjoint from U,
        # so the feasible mass is a subset sum over the good clusters.
        sq_subset_sums = subset_sums(sq, cf.k)
        cluster_bits = cf.cluster_masks
        for ubits, uprob in support:
            good = 0
            for j, mask in enumerate(cluster_bits):
                if mask & ubits:
                    good |= 1 << j
            inside = float(sq_subset_sums[good]) - sq[0]
            spectral += prob * uprob * inside
        if is_magnetization:
            # Per-vertex class probabilities weighted by membership
            # probability: the union-bound stage of the magnetization bound.
            for mask in _cluster_bit_masks(bonds):
                verts = _bits.mask_to_indices(_bits.bits_to_mask(mask, n))
                csz = float(len(verts))
                class_weight = (csz / n) ** 2
                singleton += prob * class_weight * float(rev_vec[verts].sum())
        # Diagnostic: smallest odd cluster per class, weighted by the class law.
        masks = _cluster_bit_masks(bonds)
        sizes_by_cluster = [bin(m).count("1") for m in masks]
        for p in range(len(sq)):
            if sq[p] <= 0:
                continue
            odd = [sizes_by_cluster[j] for j in range(len(masks)) if (p >> j) & 1]
            beta_diag_num += prob * sq[p] * (min(odd) if odd else 0)

    clue_given_bonds /= var_f
    spectral = spectral / var_f + clue_given_bonds
    theorem = delta * e_max_cluster + clue_given_bonds
    cluster_ratio = delta * sum_c2 / sum_c1 if sum_c1 > 0 else math.nan
    if singleton is not None:
        singleton = singleton / var_f + clue_given_bonds
    beta_diag = beta_diag_num / var_f

    exact = None
    if compute_exact:
        from .clue import expected_clue

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
    return DacClueBounds(
        exact, spectral, theorem, cluster_ratio, singleton,
        clue_given_bonds, offset, beta_diag,
    )


# -- FK-driven magnetization bound --------------------------------------------


@dataclass(frozen=True)
class FkBoundReport:
    ratio_bound: float  # revealment * sum E|C_v|^2 / sum E|C_v|
    ratio_se: float
    max_cluster_bound: float  # revealment * E[max cluster]
    max_cluster_se: float
    samples: int


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
    average magnetization; both right-hand-side forms with bootstrap SEs."""
    params = IsingParams(beta=beta, J=1.0)
    _, delta = revealment(spec, graph)
    sum1 = np.empty(samples)
    sum2 = np.empty(samples)
    maxc = np.empty(samples)
    for i in range(samples):
        bonds = fk_sample(graph, params, rng, sweeps)
        sizes = bonds.cluster_sizes().astype(float)
        sum1[i] = sizes.sum()
        sum2[i] = (sizes**2).sum()
        maxc[i] = sizes.max()
    ratio = delta * sum2.mean() / sum1.mean()
    boot_rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(rng.integers(2**63)))
    ))
    reps = np.empty(bootstrap)
    for b in range(bootstrap):
        pick = boot_rng.integers(0, samples, size=samples)
        reps[b] = delta * sum2[pick].mean() / sum1[pick].mean()
    return FkBoundReport(
        ratio_bound=float(ratio),
        ratio_se=float(reps.std(ddof=1)),
        max_cluster_bound=float(delta * maxc.mean()),
        max_cluster_se=float(delta * maxc.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )
