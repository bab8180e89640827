"""The clue functional (fraction of a function's variance explained by a
subset of spins), exact and Monte Carlo, with the subset-averaging
operator and entropy inequality built on it.

Every exact law of the boundary patterns of a subset comes from one sparse
aggregator, `subset_aggregator`. The exact clue of one function or of a
(T, 2^n) stack of them, on one subset or averaged over a spec's enumerated
support, comes from one kernel, `ClueKernel`, that scores with it. The
normalized subset average (`normalized_average`), the Shearer check and
the block operator of `block_dyn` each apply one aggregator over the whole
support, whose bytes `check_aggregator_size` bounds before it is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix

from . import _bits
from .graphs import Graph, SubsetSpec, UnionOfKCopies, revealment, subset_support
from .measures import Observable, ProbabilityTable, values_of
from .rng import bootstrap_se

EXACT_RANGE_TOL = 1e-10

#: Memory one `subset_aggregator` and a vector beside it may take (bytes);
#: see `check_aggregator_size`.
AGGREGATOR_BYTES_CAP = 1 << 30

#: Cells of 8 bytes that `ClueKernel` holds at once, whatever the number of
#: functions or subsets: 1/32 for one chunk of rows streamed through it, the
#: rest for the aggregator of one group of subsets and the transients of
#: its construction.
CLUE_CELL_BUDGET = 1 << 20


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


class ClueKernel:
    """sum_S P[U=S] Var(E[f | F_S]) / Var(f) for every row f of a
    (T, 2^n) stack, over an enumerated support of (bitmask, probability)
    pairs.

    The support is cut into groups of subsets. A group's aggregator
    (`subset_aggregator`) is one sparse matrix with a row for each boundary
    pattern b of each subset S (the pattern x & S ranked to
    0 .. 2^|S| - 1) and a column for each configuration x, holding
    1/sqrt(mu(b)) where x shows b, and 0 where mu(b) = 0. Applied to the
    p-weighted centred rows it gives
    num_b / sqrt(mu(b)); the squares summed over the patterns of S are
    Var(E[f | F_S]) = sum_b num_b^2 / mu(b). Each group takes all rows in
    chunks, one sparse product per chunk. The last aggregator built is
    kept, so a support of one group is built once however many calls
    the kernel serves. Working memory stays under CLUE_CELL_BUDGET while
    one subset's aggregator fits in a group, which holds for every subset
    up to n = 17.

    Every per-subset fraction is asserted to lie in [0, 1] up to
    EXACT_RANGE_TOL and clamped there. Rows are shifted by their value at
    the first state of positive mass before the two-pass variance, so a
    row constant on the table's support has Var(f) = 0 exactly and scores
    0. A finite `bound` is asserted on the largest value of every call.
    """

    def __init__(self, table: ProbabilityTable, support, bound: float = math.inf):
        self.table = table
        self.bound = bound
        size = 1 << table.n
        self._anchor = int(np.argmax(table.p > 0))
        chunk_cells = CLUE_CELL_BUDGET // 32
        room = CLUE_CELL_BUDGET - chunk_cells - 2 * size  # less the build transients
        self._groups: list[list[tuple[int, float]]] = []
        cells = 0
        for bits, prob in support:
            # 12 bytes per stored entry, two floats per boundary pattern
            need = 3 * size // 2 + (2 << _popcount(bits, table.n))
            if not self._groups or cells + need > room:
                self._groups.append([])
                cells = 0
            self._groups[-1].append((int(bits), float(prob)))
            cells += need
        patterns = max((sum(1 << _popcount(b, table.n) for b, _ in group)
                        for group in self._groups), default=0)
        #: Rows per chunk: a chunk holds two copies of its rows and the
        #: squared block sums of the widest group.
        self.rows = max(1, chunk_cells // (2 * size + patterns))
        self._built = None  # (group index, its SubsetAggregator)

    @classmethod
    def of_spec(cls, table: ProbabilityTable, spec: SubsetSpec, graph: Graph) -> "ClueKernel":
        """The kernel over the enumerated support of `spec` (`subset_support`
        raises above `SUPPORT_CAP` subsets). On product tables it asserts
        the low-revealment bound E[clue] <= max membership probability."""
        support = subset_support(spec, graph)
        bound = revealment(spec, graph)[1] if table.n <= 12 and _is_product(table) else math.inf
        return cls(table, support, bound)

    def __call__(self, stack) -> np.ndarray:
        """Expected clue of every row of a (T, 2^n) stack."""
        stack = np.asarray(stack, dtype=np.float64)
        return self.stream(lambda a, b: stack[a:b], len(stack))

    def stream(self, rows, count: int) -> np.ndarray:
        """Expected clue of `count` rows that `rows(a, b)` returns as an
        array of rows a .. b-1. Each group asks for all of them, in chunks
        from row 0 on, so a source that can replay its rows (a seeded
        stream restarted at row 0) never has to hold the whole stack."""
        out = np.zeros(count)
        for g in range(len(self._groups)):
            self._add_group(g, rows, out)
        if count and out.max() > self.bound + 1e-10:
            raise AssertionError(
                f"expected clue {out.max()!r} exceeded the revealment bound "
                f"{self.bound!r} on a product table"
            )
        return out

    def _add_group(self, g: int, rows, out: np.ndarray) -> None:
        """Add group g's share of the expected clue of every row to `out`."""
        agg, _, offsets, probs = self._aggregator(g)
        p = self.table.p
        for a in range(0, len(out), self.rows):
            chunk = np.asarray(rows(a, min(a + self.rows, len(out))), dtype=np.float64)
            c = chunk - chunk[:, self._anchor, None]
            del chunk
            c -= (c @ p)[:, None]
            var = np.square(c) @ p
            np.multiply(c, p, out=c)
            weighted = np.ascontiguousarray(c.T)
            del c
            num = agg @ weighted
            del weighted
            explained = np.add.reduceat(np.square(num, out=num), offsets, axis=0)
            frac = np.divide(explained, var, out=np.zeros_like(explained), where=var > 0)
            bad = (frac < -EXACT_RANGE_TOL) | (frac > 1 + EXACT_RANGE_TOL)
            if bad.any():
                raise AssertionError(f"exact clue out of range: {frac[bad][0]!r}")
            out[a:a + len(var)] += probs @ np.clip(frac, 0.0, 1.0)

    def _aggregator(self, g: int):
        if self._built is None or self._built[0] != g:
            self._built = None  # release the previous group before building
            self._built = (g, subset_aggregator(self.table, self._groups[g]))
        return self._built[1]


class SubsetAggregator(NamedTuple):
    """The boundary-pattern partitions of a list of subsets, as one sparse
    matrix; see `subset_aggregator`."""

    #: (patterns, 2^n) CSC matrix: 1/sqrt(mu(b)) at (row of b, x) where x
    #: shows pattern b, 0 there when mu(b) = 0.
    matrix: csc_matrix
    #: (2^n, subsets) int32: the row of each configuration's pattern under
    #: each subset; the matrix's own `indices`, viewed per configuration.
    keys: np.ndarray
    #: First row of each subset's patterns.
    offsets: np.ndarray
    #: P[U = S] of each subset.
    probs: np.ndarray


def subset_aggregator(table: ProbabilityTable, subsets) -> SubsetAggregator:
    """Aggregator of the (bitmask, probability) pairs `subsets` on `table`.

    Subset j owns rows offsets[j] .. offsets[j] + 2^|S_j| - 1, one per
    boundary pattern b, ranked by the spins of x & S_j read in vertex
    order; each configuration has exactly one entry per subset. Applied to
    p * f it gives E[f 1_b] / sqrt(mu(b)) on every row of positive mass.

    A configuration x = hi * 2^h + lo splits at vertex h = n // 2, and its
    row under S is the sum of the ranked keys of lo and of hi (plus the
    offset of S), each a small integer product over 2^(n/2) values; the
    sum over all (hi, lo) pairs writes the keys once. The pattern masses
    are the product of the 0/1 aggregator with p, which sums each pattern
    in configuration order like a `bincount`; the scales then overwrite
    the ones. Raises ValueError first when `check_aggregator_size` does.
    """
    check_aggregator_size(table.n, subsets)
    n, p = table.n, table.p
    size = 1 << n
    m = len(subsets)
    members = np.array([bits for bits, _ in subsets], dtype=np.int64)[:, None] >> np.arange(n) & 1
    sizes = 1 << members.sum(axis=1)
    offsets = np.cumsum(sizes) - sizes
    places = (members << (np.cumsum(members, axis=1) - members)).T  # 2^rank of each member
    h = n // 2
    low = np.arange(1 << h)[:, None] >> np.arange(h) & 1
    high = np.arange(1 << (n - h))[:, None] >> np.arange(n - h) & 1
    keys = np.empty((size, m), dtype=np.int32)
    np.add((high @ places[h:] + offsets)[:, None].astype(np.int32),
           (low @ places[:h]).astype(np.int32), out=keys.reshape(1 << (n - h), 1 << h, m))
    scales = np.ones((size, m))
    indptr = np.arange(size + 1, dtype=np.int32) * m
    matrix = csc_matrix((scales.ravel(), keys.ravel(), indptr), shape=(sizes.sum(), size))
    mass = matrix @ p
    scale = np.divide(1.0, np.sqrt(mass), out=np.zeros_like(mass), where=mass > 0)
    # `take` copies the keys it reads as intp: a block at a time, within the
    # 2^(n+1) cells of build transients and the chunk's cells that
    # `ClueKernel` leaves free while it builds
    step = max(1, (2 * size + CLUE_CELL_BUDGET // 32) // max(m, 1))
    for a in range(0, size, step):
        np.take(scale, keys[a:a + step], out=scales[a:a + step], mode="clip")
    return SubsetAggregator(matrix, keys, offsets, np.array([prob for _, prob in subsets]))


def _popcount(bits: int, n: int) -> int:
    """Members of a subset bitmask among the first n vertices."""
    return (bits & ((1 << n) - 1)).bit_count()


def _stack_of(f, n: int) -> tuple[np.ndarray, bool]:
    """f as a (T, 2^n) stack of values, and whether it was given as one."""
    if not isinstance(f, Observable) and np.ndim(f) == 2:
        stack = np.asarray(f, dtype=np.float64)
        if stack.shape[1] != 1 << n:
            raise ValueError("function values must cover all 2^n configurations")
        return stack, True
    return values_of(f, n)[None], False


def clue_exact(table: ProbabilityTable, f, subset) -> float:
    """Var(E[f | spins on subset]) / Var(f): `ClueKernel` on one subset.

    f constant on the table's support returns 0 by convention.
    """
    values = values_of(f, table.n)
    return float(ClueKernel(table, [(_subset_bits(subset), 1.0)])(values[None])[0])


def expected_clue(table: ProbabilityTable, f, spec: SubsetSpec, graph: Graph):
    """E over the random subset of the exact clue, by enumerating the spec
    support (`subset_support` raises above `SUPPORT_CAP` subsets).

    `f` is an Observable, one 2^n value vector, or a (T, 2^n) stack of
    them; a stack gives a length-T array, the others a float. One kernel
    build serves every row. On product tables the low-revealment bound
    E[clue] <= max membership probability is asserted on the largest value.
    """
    stack, batched = _stack_of(f, table.n)
    values = ClueKernel.of_spec(table, spec, graph)(stack)
    return values if batched else float(values[0])


def _is_product(table: ProbabilityTable) -> bool:
    marg = table.marginal_plus()
    idx = _bits.config_indices(table.n)
    prod = np.ones(1 << table.n)
    for v in range(table.n):
        bit = ((idx >> np.uint64(v)) & np.uint64(1)).astype(bool)
        prod *= np.where(bit, marg[v], 1.0 - marg[v])
    return bool(np.abs(prod - table.p).max() < 1e-12)


# -- the normalized subset average and the entropy inequality ----------------


def check_aggregator_size(n: int, subsets) -> int:
    """Bytes of `subset_aggregator` over the (bitmask, probability) pairs
    `subsets` on n vertices, with one float vector per configuration beside
    it; raise `ValueError`, before anything is allocated, when they exceed
    AGGREGATOR_BYTES_CAP.

    Each configuration holds one entry per subset: a 4 B int32 pattern row
    and an 8 B scale. On top of those come the column pointers and the
    vector (12 B per configuration), one float per pattern row (8 B) and
    the offset, pattern count and probability of each subset (24 B).
    """
    size = 1 << n
    patterns = sum(1 << _popcount(bits, n) for bits, _ in subsets)
    nbytes = 12 * size * len(subsets) + 12 * size + 4 + 8 * patterns + 24 * len(subsets)
    if nbytes > AGGREGATOR_BYTES_CAP:
        raise ValueError(
            f"subset aggregator needs about {nbytes} bytes for {len(subsets)} subsets "
            f"over {size} configurations (cap {AGGREGATOR_BYTES_CAP})")
    return nbytes


def normalized_average(
    table: ProbabilityTable, f, spec: SubsetSpec, graph: Graph
) -> tuple[np.ndarray, list[int]]:
    """M f = sum_S P[U=S] Y_S / sd(Y_S) over the conditional means
    Y_S = E[f | F_S] of every subset the spec draws, and the bitmasks of the
    members it dropped.

    One `subset_aggregator` A over the support serves every member: with
    c = f - E f, a = A (p * c) holds E[c 1_b] / sqrt(mu(b)) on the row of
    each pattern b, so the squares summed over the patterns of S give
    Var(Y_S), and A^T (w * a) with w = P[U=S] / sd(Y_S) on the rows of S
    sums w (Y_S - E f) at every configuration; the constant sum of w E f
    adds the means back (Y_S reads E f on patterns of measure zero). A
    member whose explained fraction Var(Y_S) / Var(f) is at most
    EXACT_RANGE_TOL is dropped with a warning, the normalized form being
    undefined there. Var(M f) is then exactly E[Corr(Y_U1, Y_U2)] over two
    independent draws, pairs with a dropped member counting 0.
    """
    values = values_of(f, table.n)
    support = [(bits, prob) for bits, prob in subset_support(spec, graph) if prob > 0]
    agg = subset_aggregator(table, support)
    p = table.p
    # shifted by the value at a state of positive mass, so that f constant
    # on the support centres to 0 exactly and drops every member
    c = values - values[np.argmax(p > 0)]
    c -= p @ c
    rows = agg.matrix @ (p * c)
    var = np.add.reduceat(np.square(rows), agg.offsets)
    kept = var > EXACT_RANGE_TOL * (p @ np.square(c))
    if not kept.any():
        raise ValueError("all family members are degenerate")
    weight = np.divide(agg.probs, np.sqrt(var), out=np.zeros_like(var), where=kept)
    patterns = np.diff(agg.offsets, append=len(rows))
    out = agg.matrix.T @ (np.repeat(weight, patterns) * rows) + weight.sum() * (p @ values)
    dropped = [bits for (bits, _), keep in zip(support, kept) if not keep]
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} zero-variance member(s) from the "
            "normalized subset average",
            stacklevel=2,
        )
    return out, dropped


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
    1 - 1/(1 + k * E[Corr(Y_U1, Y_U2)]) on the achieved expected clue, with
    E[Corr(Y_U1, Y_U2)] read as Var(M f) (`normalized_average`).
    """
    g, dropped = normalized_average(table, f, spec, graph)
    if dropped:
        raise ValueError(
            "spec support contains a subset with degenerate conditional mean; "
            "the amplification bound needs unit-variance members"
        )
    avg_corr = table.variance(g)
    if avg_corr <= 0:
        raise ValueError("zero average correlation: nothing to amplify")
    boosted = UnionOfKCopies(spec, k)
    achieved = expected_clue(table, g, boosted, graph)
    bound = 1.0 - 1.0 / (1.0 + k * avg_corr)
    if achieved < bound - 1e-12:
        raise AssertionError(
            f"amplified clue {achieved!r} fell below the bound {bound!r}"
        )
    unboosted = expected_clue(table, f, spec, graph)
    return BoostReport(g, boosted, achieved, bound, avg_corr, unboosted)


@dataclass(frozen=True)
class ShearerReport:
    lhs: float  # H(all spins) * min_v P[v in U]
    rhs: float  # E[ H(spins on U) ]
    holds: bool


def _entropy_terms(w: np.ndarray) -> np.ndarray:
    """-w log2 w, and 0 where w = 0."""
    return -w * np.log2(w, out=np.zeros_like(w), where=w > 0)


def shearer_check(table: ProbabilityTable, spec: SubsetSpec, graph: Graph) -> ShearerReport:
    """Subadditivity of entropy over a random subset independent of the
    spins. Each subset's pattern law is mu(b) = (A p)_b^2 on the rows of
    one `subset_aggregator` A over the support."""
    vec, _ = revealment(spec, graph)
    lhs = float(_entropy_terms(table.p).sum()) * float(vec.min())
    agg = subset_aggregator(table, subset_support(spec, graph))
    laws = np.square(agg.matrix @ table.p)
    rhs = float(agg.probs @ np.add.reduceat(_entropy_terms(laws), agg.offsets))
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
