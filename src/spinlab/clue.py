"""The clue functional (fraction of a function's variance explained by a
subset of spins), exact and Monte Carlo, with the subset-averaging
operators and entropy inequality built on it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _bits
from .graphs import Graph, SubsetSpec, UnionOfKCopies, revealment, subset_support
from .measures import Observable, ProbabilityTable, values_of
from .rng import bootstrap_se

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


def expected_clue(table: ProbabilityTable, f, spec: SubsetSpec, graph: Graph) -> float:
    """E over the random subset of the exact clue, by enumerating the spec
    support (`subset_support` raises above `SUPPORT_CAP` subsets).

    On product tables the low-revealment bound E[clue] <= max membership
    probability is asserted as a free invariant.
    """
    values = values_of(f, table.n)
    val = 0.0
    for bits, prob in subset_support(spec, graph):
        val += prob * clue_exact(table, values, bits)
    _maybe_assert_product_bound(table, spec, graph, val)
    return val


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

    def entropy_bits(weights: np.ndarray) -> float:
        pos = weights[weights > 0]
        return float(-(pos * np.log2(pos)).sum())

    vec, _ = revealment(spec, graph)
    lhs = entropy_bits(table.p) * float(vec.min())
    idx = _bits.config_indices(table.n)
    rhs = 0.0
    for bits, prob in subset_support(spec, graph):
        # law of the observed pattern idx & bits
        keys = (idx & np.uint64(bits)).astype(np.int64)
        rhs += prob * entropy_bits(np.bincount(keys, weights=table.p))
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

    Draw one full configuration per outer group, freeze the observed
    spins, and resample the complement of all groups together `inner`
    times (`sampler.resample_free` takes the groups as the rows of one
    array); the between-group mean
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
    cfgs = sampler.draw_full(rng, outer)
    for j in range(inner):
        cfgs = sampler.resample_free(cfgs, frozen_mask, rng)
        ys[:, j] = [f.evaluate(cfg) for cfg in cfgs]

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
    boot_rng = np.random.Generator(np.random.Philox(int(rng.integers(2**63))))
    se = bootstrap_se(lambda pick: ratio(ys[pick]), outer, bootstrap, boot_rng)
    return ClueEstimate(value, se, outer, inner)
