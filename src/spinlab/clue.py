"""The clue functional (fraction of a function's variance explained by a
subset of spins), exact and Monte Carlo, with the subset-averaging
operators and entropy inequalities built on it.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _bits
from .graphs import Graph, SubsetSpec, UnionOfKCopies, revealment, subset_support
from .measures import Observable, ProbabilityTable, values_of

EXACT_RANGE_TOL = 1e-10


def _subset_bits(subset) -> int:
    if isinstance(subset, (int, np.integer)):
        return int(subset)
    return _bits.mask_to_bits(np.asarray(subset, dtype=bool))


@dataclass(frozen=True)
class ClueEstimate:
    value: float
    standard_error: float | None = None
    outer_samples: int = 0
    inner_samples: int = 0

    def to_json(self, seed=None) -> str:
        doc = {
            "value": self.value,
            "se": self.standard_error,
            "outer": self.outer_samples,
            "inner": self.inner_samples,
            "seed": seed,
        }
        return json.dumps(doc, sort_keys=True)


def clue_exact(table: ProbabilityTable, f, subset) -> float:
    """Var(E[f | spins on subset]) / Var(f) by direct marginalization.

    Constant f returns 0 by convention.
    """
    values = values_of(f, table.n)
    bits = _subset_bits(subset)
    var_f = table.variance(values)
    if var_f <= 0:
        return 0.0
    cond = table.conditional_mean(values, bits)
    val = table.variance(cond) / var_f
    if val < -EXACT_RANGE_TOL or val > 1 + EXACT_RANGE_TOL:
        raise AssertionError(f"exact clue out of range: {val!r}")
    return min(max(val, 0.0), 1.0)


def iclue_exact(table: ProbabilityTable, f, subset) -> float:
    """I(f ; spins on subset) / H(f) from the exact joint law, base 2.

    f must be discrete-valued on the table's support.
    """
    values = values_of(f, table.n)
    bits = _subset_bits(subset)
    idx = _bits.config_indices(table.n)
    distinct, z_inverse = np.unique(values, return_inverse=True)
    if len(distinct) > 4096:
        raise ValueError(
            "information clue needs a discrete-valued function "
            f"(found {len(distinct)} distinct values)"
        )
    n_z = z_inverse.max() + 1
    patterns, pat_inverse = np.unique(
        (idx & np.uint64(bits)).astype(np.int64), return_inverse=True
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


def expected_clue(
    table: ProbabilityTable,
    f,
    spec: SubsetSpec,
    graph: Graph,
    cap: int = 10**6,
    rng: np.random.Generator | None = None,
    replicas: int | None = None,
):
    """E over the random subset of the exact clue.

    Enumerates the spec support when it fits under `cap`; otherwise draws
    `replicas` subsets and returns a ClueEstimate with a standard error.
    On product tables the low-revealment bound E[clue] <= max membership
    probability is asserted as a free invariant.
    """
    values = values_of(f, table.n)
    try:
        support = subset_support(spec, graph, cap)
    except ValueError:
        if rng is None or replicas is None:
            raise
        support = None
    if support is not None:
        val = 0.0
        for bits, prob in support:
            val += prob * clue_exact(table, values, bits)
        _maybe_assert_product_bound(table, spec, graph, val)
        return val
    from .graphs import sample_subset

    draws = np.array([
        clue_exact(table, values, _bits.mask_to_bits(sample_subset(spec, graph, rng)))
        for _ in range(replicas)
    ])
    se = float(draws.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else None
    return ClueEstimate(float(draws.mean()), se, replicas, 0)


def _is_product(table: ProbabilityTable) -> bool:
    marg = table.marginal_plus()
    idx = _bits.config_indices(table.n)
    prod = np.ones(1 << table.n)
    for v in range(table.n):
        bit = ((idx >> np.uint64(v)) & np.uint64(1)).astype(bool)
        prod *= np.where(bit, marg[v], 1.0 - marg[v])
    return bool(np.abs(prod - table.p).max() < 1e-12)


def _maybe_assert_product_bound(table, spec, graph, value):
    if table.n <= 12 and _is_product(table):
        _, delta = revealment(spec, graph)
        if value > delta + 1e-10:
            raise AssertionError(
                f"expected clue {value!r} exceeded the revealment bound {delta!r} "
                "on a product table"
            )


# -- conditional families and averaging operators ----------------------------


class ConditionalFamily:
    """For each subset S in a spec's support, an F_S-measurable variable Y_S
    given as a value vector over all configurations (exact mode)."""

    def __init__(self, table: ProbabilityTable, members: dict[int, np.ndarray]):
        self.table = table
        self.members = {int(k): np.asarray(v, dtype=np.float64)
                        for k, v in members.items()}

    @staticmethod
    def of_conditionals(
        table: ProbabilityTable, f, support_bits
    ) -> "ConditionalFamily":
        """Y_S = E[f | F_S] for every S in the support list."""
        values = values_of(f, table.n)
        return ConditionalFamily(
            table, {int(s): table.conditional_mean(values, int(s)) for s in support_bits}
        )

    def get(self, bits: int) -> np.ndarray:
        return self.members[int(bits)]


def apply_M_operator(
    family: ConditionalFamily, spec: SubsetSpec, graph: Graph, table: ProbabilityTable
) -> tuple[np.ndarray, list[int]]:
    """Normalized subset average: sum of P[U=S] Y_S / sd(Y_S).

    Zero-variance members are excluded from the sum and reported; the
    normalized form is undefined there.
    """
    out = np.zeros(1 << table.n)
    dropped: list[int] = []
    used = 0
    for bits, prob in subset_support(spec, graph):
        y = family.get(bits)
        sd = math.sqrt(max(table.variance(y), 0.0))
        if sd <= 0:
            dropped.append(bits)
            continue
        out += prob * y / sd
        used += 1
    if used == 0:
        raise ValueError("all family members are degenerate")
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} zero-variance member(s) from the "
            "normalized subset average",
            stacklevel=2,
        )
    return out, dropped


def average_correlation(
    family: ConditionalFamily, spec: SubsetSpec, graph: Graph, table: ProbabilityTable
) -> float:
    """E[Corr(Y_U1, Y_U2)] over two independent subset draws.

    Pairs involving a zero-variance member contribute 0, matching the
    convention that such members are dropped from the normalized average;
    with that convention Var(M-average) equals this quantity exactly.
    """
    support = subset_support(spec, graph)
    normalized = []
    probs = []
    for bits, prob in support:
        y = family.get(bits)
        mu = table.expectation(y)
        sd = math.sqrt(max(table.variance(y), 0.0))
        probs.append(prob)
        normalized.append(None if sd <= 0 else (y - mu) / sd)
    total = 0.0
    for i, yi in enumerate(normalized):
        if yi is None:
            continue
        for j, yj in enumerate(normalized):
            if yj is None:
                continue
            total += probs[i] * probs[j] * table.expectation(yi * yj)
    return total


def mean_correlation_with(
    z, family: ConditionalFamily, spec: SubsetSpec, graph: Graph, table: ProbabilityTable
) -> float:
    """E[Corr(Z, Y_U)] over the subset draw, zero-variance members contributing 0."""
    z_values = values_of(z, table.n)
    mu_z = table.expectation(z_values)
    sd_z = math.sqrt(max(table.variance(z_values), 0.0))
    if sd_z <= 0:
        raise ValueError("reference variable is constant")
    total = 0.0
    for bits, prob in subset_support(spec, graph):
        y = family.get(bits)
        mu = table.expectation(y)
        sd = math.sqrt(max(table.variance(y), 0.0))
        if sd <= 0:
            continue
        total += prob * table.expectation((z_values - mu_z) * (y - mu)) / (sd_z * sd)
    return total


@dataclass(frozen=True)
class BoostReport:
    guess_values: np.ndarray
    boosted_spec: SubsetSpec
    achieved: float
    lower_bound: float
    average_correlation: float
    unboosted: float


def boost_reconstruction(
    f, spec: SubsetSpec, k: int, table: ProbabilityTable, graph: Graph
) -> BoostReport:
    """Partial-to-full amplification: build the normalized subset average of
    the conditional means, observe the union of k independent subset draws,
    and verify the guaranteed lower bound
    1 - 1/(1 + k * E[Corr(Y_U1, Y_U2)]) on the achieved expected clue.
    """
    values = values_of(f, table.n)
    support = subset_support(spec, graph)
    family = ConditionalFamily.of_conditionals(table, values, [s for s, _ in support])
    for bits, prob in support:
        if prob > 0 and table.variance(family.get(bits)) <= 0:
            raise ValueError(
                "spec support contains a subset with degenerate conditional mean; "
                "the amplification bound needs unit-variance members"
            )
    avg_corr = average_correlation(family, spec, graph, table)
    if avg_corr <= 0:
        raise ValueError("zero average correlation: nothing to amplify")
    g, _ = apply_M_operator(family, spec, graph, table)
    boosted = UnionOfKCopies(spec, k)
    achieved = expected_clue(table, g, boosted, graph)
    bound = 1.0 - 1.0 / (1.0 + k * avg_corr)
    if achieved < bound - 1e-12:
        raise AssertionError(
            f"amplified clue {achieved!r} fell below the bound {bound!r}"
        )
    unboosted = expected_clue(table, values, spec, graph)
    return BoostReport(g, boosted, achieved, bound, avg_corr, unboosted)


# -- entropy inequality -------------------------------------------------------


@dataclass(frozen=True)
class ShearerReport:
    lhs: float  # H(all spins) * min_v P[v in U]
    rhs: float  # E[ H(spins on U) ]
    holds: bool


def shearer_check(table: ProbabilityTable, spec: SubsetSpec, graph: Graph) -> ShearerReport:
    """Subadditivity of entropy over a random subset independent of the spins."""
    vec, _ = revealment(spec, graph)
    lhs = table.entropy_bits() * float(vec.min())
    rhs = 0.0
    for bits, prob in subset_support(spec, graph):
        weights = table.boundary_weights(bits)
        pos = weights[weights > 0]
        rhs += prob * float(-(pos * np.log2(pos)).sum())
    return ShearerReport(lhs, rhs, lhs <= rhs + 1e-10)


# -- guessing -----------------------------------------------------------------


def majority_guess(config: np.ndarray, subset_mask: np.ndarray) -> int:
    """Sign of the observed sum; ties break to -1."""
    members = _bits.mask_to_indices(subset_mask)
    if len(members) == 0:
        raise ValueError("cannot guess from an empty observation set")
    total = float(np.asarray(config)[members].sum())
    return 1 if total > 0 else -1


# -- Monte Carlo estimator ----------------------------------------------------


def clue_mc(
    sampler,
    f: Observable,
    frozen_mask: np.ndarray,
    outer: int,
    inner: int,
    rng: np.random.Generator,
    bootstrap: int = 200,
) -> ClueEstimate:
    """Nested-variance estimator of the explained-variance fraction.

    For each outer group, draw a full configuration, freeze the observed
    spins, and repeatedly resample the complement; the between-group mean
    square minus (within mean square)/inner removes the O(1/inner) bias of
    the naive conditional-mean variance. The ratio is clamped to [0, 1] and
    its standard error comes from a replica bootstrap over outer groups.
    """
    if inner < 2:
        raise ValueError("need at least 2 inner samples per group")
    if outer < 2:
        raise ValueError("need at least 2 outer groups")
    frozen_mask = np.asarray(frozen_mask, dtype=bool)
    ys = np.empty((outer, inner))
    for g in range(outer):
        full = sampler.draw_full(rng)
        cfg = full
        for j in range(inner):
            cfg = sampler.resample_free(cfg, frozen_mask, rng)
            ys[g, j] = f.evaluate(cfg)

    def ratio(groups: np.ndarray) -> float:
        means = groups.mean(axis=1)
        s_between = means.var(ddof=1)
        s_within = groups.var(axis=1, ddof=1).mean()
        var_cond = s_between - s_within / groups.shape[1]
        var_f = var_cond + s_within
        if var_f <= 0:
            return 0.0
        return min(max(var_cond / var_f, 0.0), 1.0)

    value = ratio(ys)
    boot_rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(rng.integers(2**63)))
    ))
    reps = np.array([
        ratio(ys[boot_rng.integers(0, outer, size=outer)]) for _ in range(bootstrap)
    ])
    return ClueEstimate(value, float(reps.std(ddof=1)), outer, inner)
