"""Heat-bath block dynamics driven by a random vertex subset: the
matrix-free transition operator, its spectrum, Dirichlet forms, bottleneck
ratios, and one-step path-coupling contraction on lattices.

The chain keeps the spins on a sampled subset U and redraws the complement
from the conditional measure. Its transition operator
P = sum_S P[U=S] E_mu[. | F_S] is a mixture of orthogonal projections in
L^2(mu): self-adjoint and positive semidefinite, so its second eigenvalue
is also its largest nontrivial one in absolute value, and it equals the
maximal expected explained-variance fraction over all observables.

`BlockOperator` holds the boundary patterns of every subset in the sparse
aggregator that `clue.ClueKernel` scores clues with, built by the same
`clue.subset_aggregator`, so one apply is two sparse products.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from . import _bits
from .clue import ClueKernel, subset_aggregator
from .graphs import Graph, SubsetSpec, component_labels, subset_support, tiled_complement_mask
from .ising import IsingParams, conditional_exact_resample, heat_bath, sw_chain
from .measures import ProbabilityTable
from .rng import stream

#: Largest vertex count for which `BlockOperator.matrix` builds the dense
#: 2^n x 2^n oracle.
ORACLE_CAP = 10
#: Relative tolerance under which `sweep_cut_bottleneck` treats two values
#: of f as one level.
SWEEP_LEVEL_RTOL = 1e-9
#: Largest block that `path_coupling_rate` redraws by exact enumeration
#: (`ising.conditional_exact_resample`) rather than by coupled heat-bath sweeps.
EXACT_BLOCK_CAP = 16


class BlockOperator:
    """P f = sum_S P[U=S] E_mu[f | F_S] as two sparse products.

    Every subset of the support other than the full vertex set goes into
    one `clue.subset_aggregator` A, whose row for the boundary pattern b
    holds 1/sqrt(mu(b)) at each configuration showing b. With pi the
    probability of each row's subset, A^T (pi * (A (p * f))) sums
    P[U=S] E[f 1_b] / mu(b) over the patterns b that x shows. The full
    subset, on which P is the identity, and every pattern of measure zero
    (never entered from reachable states; there the chain stays put, which
    keeps P1 = 1 on every state) add up to the diagonal weight `stay`:
    P f = stay * f + A^T (pi * (A (p * f))).
    """

    def __init__(self, table: ProbabilityTable, support):
        self.table = table
        size = 1 << table.n
        full = size - 1
        self._agg = agg = subset_aggregator(table, [(b, q) for b, q in support if b != full])
        self._agg_t = agg.matrix.T
        #: boundary patterns of each stored subset
        self._patterns = np.diff(agg.offsets, append=agg.matrix.shape[0])
        self._row_prob = np.repeat(agg.probs, self._patterns)
        self._stay = np.full(size, float(sum(q for b, q in support if b == full)))
        if not agg.matrix.data.all():
            # entries of zero scale show patterns of measure zero; entry e
            # is subset e % m of configuration e // m
            null = np.flatnonzero(agg.matrix.data == 0)
            m = len(agg.probs)
            self._stay += np.bincount(null // m, weights=agg.probs[null % m], minlength=size)

    def apply(self, f) -> np.ndarray:
        values = np.asarray(f, dtype=np.float64)
        means = self._row_prob * (self._agg.matrix @ (self.table.p * values))
        return self._stay * values + self._agg_t @ means

    @property
    def matrix(self) -> np.ndarray:
        """Dense row-stochastic P, one operator apply per column; a test
        oracle for small systems."""
        n = self.table.n
        if n > ORACLE_CAP:
            raise ValueError(
                f"dense transition matrix capped at {ORACLE_CAP} vertices "
                f"(got {n}: {8 * 4**n} bytes)"
            )
        return np.column_stack([self.apply(e) for e in np.eye(1 << n)])

    def cut_increments(self, order: np.ndarray) -> np.ndarray:
        """delta[i] = E(1_{E_(i+1)}) - E(1_{E_i}) for the prefixes E_i of
        `order`, so that cumulative sums give every cut's Dirichlet form.

        Adding a state of mass a to a block B in which the cut already holds
        mass m and leaves mass r outside changes m (mu(B) - m) / mu(B) by
        a (r - m) / mu(B). Within each block the states keep their sweep
        order, and every block of S holds 2^(n - |S|) states, so each
        subset's blocks, read from the aggregator's ranked keys, form the
        rows of one array.
        """
        mu = self.table.p[order]
        delta = np.zeros(len(order))
        for j, prob in enumerate(self._agg.probs):
            rank = np.argsort(self._agg.keys[order, j], kind="stable")
            a = mu[rank].reshape(self._patterns[j], -1)
            held = np.zeros_like(a)
            np.cumsum(a[:, :-1], axis=1, out=held[:, 1:])
            rest = np.zeros_like(a)
            rest[:, :-1] = np.cumsum(a[:, :0:-1], axis=1)[:, ::-1]
            total = held[:, -1:] + a[:, -1:]
            step = a * (rest - held) / np.where(total > 0, total, 1.0)
            delta[rank] += prob * step.ravel()
        return delta


def block_operator(table: ProbabilityTable, spec: SubsetSpec, graph: Graph) -> BlockOperator:
    """Transition operator of the keep-subset / redraw-complement chain.

    Raises ValueError, before allocating, when the operator's arrays would
    exceed their cap (`clue.check_aggregator_size`). Checks P1 = 1 and, on seeded
    random pairs, the self-adjointness <f, Pg>_mu = <Pf, g>_mu that makes
    the chain reversible with mu stationary.
    """
    support = subset_support(spec, graph)
    size = 1 << table.n
    always = size - 1
    for bits, prob in support:
        if prob > 0:
            always &= bits
    if always:
        warnings.warn(
            "some vertex is kept with probability 1: the chain never "
            "resamples it and is reducible",
            stacklevel=2,
        )
    op = BlockOperator(table, support)
    if np.abs(op.apply(np.ones(size)) - 1.0).max() > 1e-12:
        raise AssertionError("P must fix constants")
    mu = table.p
    rng = stream(0)
    for _ in range(3):
        f, g = rng.standard_normal((2, size))
        if abs(mu @ (f * op.apply(g)) - mu @ (op.apply(f) * g)) > 1e-10:
            raise AssertionError("operator is not self-adjoint in L2(mu)")
    return op


@dataclass(frozen=True)
class SpectrumReport:
    lambda_2: float
    gap: float
    second_eigenfunction: np.ndarray


def spectrum(op: BlockOperator) -> SpectrumReport:
    """Top two eigenpairs of the symmetrized operator D^(1/2) P D^(-1/2).

    One Lanczos solve from a fixed start vector, so reruns agree bit for
    bit; the two-state chain, which the iteration cannot handle, uses the
    dense matrix. P is positive semidefinite, so lambda_2 is also the
    largest nontrivial eigenvalue in absolute value. The top nontrivial eigenfunction is cross-checked against the
    variational (Dirichlet) characterization of the gap at 1e-9.
    """
    mu = op.table.p
    if np.any(mu <= 0):
        # Restrict to the support; zero-probability states are unreachable.
        raise ValueError("spectrum needs a fully supported table")
    root = np.sqrt(mu)
    size = len(mu)
    if size > 2:
        sym = LinearOperator(
            (size, size), matvec=lambda v: root * op.apply(v / root), dtype=np.float64
        )
        start = root * stream(0).standard_normal(size)
        vals, vecs = eigsh(sym, k=2, which="LA", v0=start)
    else:
        vals, vecs = np.linalg.eigh(root[:, None] * op.matrix / root[None, :])
    second = int(np.argmin(vals))
    lam2 = float(vals[second])
    f2 = vecs[:, second] / root
    gap = 1.0 - lam2
    var_f2 = op.table.variance(f2)
    if var_f2 > 0:
        dirich = dirichlet_form(op, f2) / var_f2
        if abs(dirich - gap) > 1e-9 * max(1.0, abs(gap)):
            raise AssertionError(
                f"variational gap {dirich!r} disagrees with eigensolve {gap!r}"
            )
    return SpectrumReport(lam2, gap, f2)


def dirichlet_form(op: BlockOperator, f) -> float:
    """E(f) = (1/2) sum mu(x) P(x,y) (f(x) - f(y))^2 = <f, f - Pf>_mu."""
    values = np.asarray(f, dtype=np.float64)
    return float(op.table.p @ (values * (values - op.apply(values))))


@dataclass(frozen=True)
class EigenclueReport:
    lambda_2: float
    clue_of_eigenfunction: float
    max_trial_clue: float
    residual: float


def eigenclue_verify(
    table: ProbabilityTable,
    spec: SubsetSpec,
    graph: Graph,
    trials: int,
    rng: np.random.Generator,
) -> EigenclueReport:
    """Check that the second eigenvalue is attained by the second
    eigenfunction's expected clue and dominates random trial functions.

    With a degenerate top eigenspace every member still attains the same
    expected clue, so any basis vector works. One `ClueKernel` scores the
    stack whose row 0 is the eigenfunction and whose other rows are the
    trials. The trials are drawn in chunks of the kernel's rows, which takes
    the same numbers from `rng` as one `standard_normal(2^n)` per trial; a
    support of several groups replays them from the saved generator state.
    """
    rep = spectrum(block_operator(table, spec, graph))
    kernel = ClueKernel.of_spec(table, spec, graph)
    f2 = rep.second_eigenfunction
    start = rng.bit_generator.state

    def rows(a: int, b: int) -> np.ndarray:
        if a == 0:
            rng.bit_generator.state = start
            return np.vstack([f2, rng.standard_normal((b - 1, len(f2)))])
        return rng.standard_normal((b - a, len(f2)))

    clues = kernel.stream(rows, trials + 1)
    achieved = float(clues[0])
    max_trial = float(clues[1:].max(initial=-math.inf))
    if max_trial > rep.lambda_2 + 1e-9:
        raise AssertionError(f"trial clue {max_trial!r} exceeded lambda_2 {rep.lambda_2!r}")
    return EigenclueReport(rep.lambda_2, achieved, max_trial, abs(rep.lambda_2 - achieved))


def bottleneck_ratio(op: BlockOperator, event_mask) -> float:
    """Phi(E) = escape flux / mu(E), for events with mu(E) <= 1/2."""
    ind = np.asarray(event_mask, dtype=np.float64)
    if set(np.unique(ind)) - {0.0, 1.0}:
        raise ValueError("event must be an indicator over configurations")
    mu_e = float(op.table.p @ ind)
    if mu_e <= 0:
        raise ValueError("event has zero probability")
    if mu_e > 0.5 + 1e-12:
        raise ValueError("bottleneck ratio needs mu(E) <= 1/2")
    return dirichlet_form(op, ind) / mu_e


def sweep_cut_bottleneck(op: BlockOperator, f) -> float:
    """Smallest bottleneck ratio over the level-set cuts {f > t}, where f is
    normally the second eigenfunction.

    This is an upper bound on the true expansion constant, and the classical
    spectral argument guarantees its square over 2 is below the gap, so it
    certifies the Cheeger-type inequality without scanning all 2^(2^n)
    events. Values within SWEEP_LEVEL_RTOL * max|f| of their neighbour in
    sorted order form one level, so rounding noise in a computed
    eigenfunction never splits a level; the sweep visits levels from the
    top and states within a level by index, so the result depends on the
    levels alone. Each cut's flux is summed from the end of the sweep that
    holds its lighter side, so its rounding error stays small relative to
    the mass it is divided by.
    """
    values = np.asarray(f, dtype=np.float64)
    ranked = np.sort(values)[::-1]
    tol = SWEEP_LEVEL_RTOL * np.abs(values).max(initial=0.0)
    tops = ranked[np.concatenate(([True], ranked[:-1] - ranked[1:] > tol))]
    height = np.searchsorted(tops[::-1], values)  # level tops below each value
    order = np.lexsort((np.arange(len(values)), -height))
    cut = np.flatnonzero(np.diff(height[order]))
    mu = op.table.p[order]
    delta = op.cut_increments(order)
    held = np.cumsum(mu)[cut]  # mu of each level-set cut
    rest = np.cumsum(mu[::-1])[::-1][cut + 1]  # mu of its complement
    flux_held = np.cumsum(delta)[cut]
    flux_rest = np.cumsum(-delta[::-1])[::-1][cut + 1]
    light = held <= 0.5
    side = np.where(light, held, rest)
    flux = np.where(light, flux_held, flux_rest)
    ok = side > 0
    return float((flux[ok] / side[ok]).min(initial=math.inf))


# -- path coupling on tiled lattices ------------------------------------------


@dataclass(frozen=True)
class PathCouplingReport:
    eta1_mean: float
    eta1_se: float


def _coupled_block_resample(
    graph: Graph,
    params: IsingParams,
    x_cfg: np.ndarray,
    y_cfg: np.ndarray,
    block: np.ndarray,
    rng: np.random.Generator,
    sweeps: int,
) -> None:
    """Redraw one block in two coupled copies with identical randomness.

    Tiny blocks use an exact conditional draw through a shared uniform;
    larger blocks run the pair as two replicas of the coupled heat-bath
    kernel. Equal boundaries yield equal redraws by construction.
    """
    if len(block) <= EXACT_BLOCK_CAP:
        u = rng.random()
        x_cfg[block] = conditional_exact_resample(graph, params, x_cfg, block, u)[block]
        y_cfg[block] = conditional_exact_resample(graph, params, y_cfg, block, u)[block]
        return
    frozen = np.ones(graph.n_vertices, dtype=bool)
    frozen[block] = False
    pair = heat_bath(np.stack([x_cfg, y_cfg]), graph, params, sweeps, rng,
                     frozen=frozen, coupled=True)
    x_cfg[block] = pair[0, block]
    y_cfg[block] = pair[1, block]


def _seeded_disagreement(graph: Graph, params: IsingParams | None, cfg: np.ndarray, L: int,
                         rng: np.random.Generator, sweeps: int) -> float:
    """Disagreements left by one tiled block step from `cfg` and a copy of
    it with one uniform vertex flipped (`params` None: beta = 0)."""
    n = graph.n_vertices
    v = int(rng.integers(n))
    anchor = rng.integers(L + 3, size=len(graph.shape))
    removed = tiled_complement_mask(graph, L, anchor)
    if removed[v]:
        # The seed itself is redrawn; all boundaries agree, so both
        # copies coalesce under the shared randomness.
        return 0.0
    row = graph.geometry.nbrs[v]
    row = row[row < n]  # without the sentinel n
    touched = row[removed[row]]
    if params is None or not len(touched):
        return 1.0
    x, y = cfg.copy(), cfg.copy()
    y[v] = -y[v]
    # The blocks are the clusters of the edges with both ends removed, on
    # the actual graph (torus seams can merge clipped blocks); each kept
    # vertex is a cluster of its own.
    labels, _ = component_labels(graph, removed[graph.edges].all(axis=1))
    for label in np.unique(labels[touched]):
        block = np.flatnonzero(labels == label)
        _coupled_block_resample(graph, params, x, y, block, rng, sweeps)
    return float((x != y).sum())


def path_coupling_rate(
    graph: Graph,
    beta: float,
    Ls: list[int],
    trials: int,
    rng: np.random.Generator,
    warmup_steps: int = 60,
    resample_sweeps: int = 40,
    thin: int = 3,
) -> list[PathCouplingReport]:
    """One-step contraction of the tiled block chain from a single seeded
    disagreement, one report per block side in `Ls`.

    Each trial advances one long-running cluster chain `thin` steps for a
    near-stationary configuration (at beta = 0, a fresh uniform one), and
    every L scores that configuration: flip one uniform vertex in a copy,
    draw one tiled subset, redraw all removed blocks under the
    identical-randomness coupling, and count disagreements. Blocks not
    adjacent to the seed redraw identically and are skipped; the blocks it
    touches are redrawn in label order. The chain draws from the first
    stream of `rng.spawn(1 + len(Ls))` and `Ls[j]` from stream j + 1, so
    each report has the law of a run for its L alone, and appending an L
    leaves the earlier reports unchanged.
    """
    if graph.kind != "torus" or len(graph.shape) not in (2, 3):
        raise ValueError("path coupling runs on 2D or 3D tori")
    if beta < 0:
        raise ValueError(f"need beta >= 0, got {beta}")
    params = IsingParams(beta=beta, J=1.0) if beta > 0 else None
    chain_rng, *trial_rngs = rng.spawn(1 + len(Ls))
    etas = np.empty((len(Ls), trials))
    chain = sw_chain(graph, params, chain_rng, warmup_steps) if beta > 0 else None
    for t in range(trials):
        if beta > 0:
            chain = sw_chain(graph, params, chain_rng, thin, chain)
        else:
            chain = chain_rng.choice(_bits.SPINS, size=graph.n_vertices)
        for j, L in enumerate(Ls):
            etas[j, t] = _seeded_disagreement(
                graph, params, chain, L, trial_rngs[j], resample_sweeps)
    se = (etas.std(ddof=1, axis=1) / math.sqrt(trials) if trials > 1
          else np.full(len(Ls), math.nan))
    return [PathCouplingReport(float(m), float(s)) for m, s in zip(etas.mean(axis=1), se)]
