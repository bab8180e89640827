"""Heat-bath block dynamics driven by a random vertex subset: the
matrix-free transition operator, its spectrum, Dirichlet forms, bottleneck
ratios, and one-step path-coupling contraction on lattices.

The chain keeps the spins on a sampled subset U and redraws the complement
from the conditional measure. Its transition operator
P = sum_S P[U=S] E_mu[. | F_S] is a mixture of orthogonal projections in
L^2(mu): self-adjoint and positive semidefinite, so its second eigenvalue
is also its largest nontrivial one in absolute value, and it equals the
maximal expected explained-variance fraction over all observables.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from . import _bits
from .graphs import (
    Graph,
    SubsetSpec,
    component_labels,
    sample_subset,
    subset_support,
    tiled_complement_mask,
)
from .ising import IsingParams, conditional_exact_resample, sw_chain
from .measures import ProbabilityTable

#: Memory the boundary keys and block masses may take (bytes).
OPERATOR_BYTES_CAP = 1 << 30
#: Largest vertex count for which `BlockOperator.matrix` builds the dense
#: 2^n x 2^n oracle.
ORACLE_CAP = 10
#: Relative tolerance under which `sweep_cut_bottleneck` treats two values
#: of f as one level.
SWEEP_LEVEL_RTOL = 1e-9


class BlockOperator:
    """P f = sum_S P[U=S] E_mu[f | F_S], applied in O(|support| 2^n).

    For every subset S of the support other than the full vertex set
    it stores the boundary key x & S of each configuration and the mass of
    each boundary pattern. Boundary patterns of measure zero are never
    entered from reachable states; there the chain stays put, which keeps
    P1 = 1 on every state.
    """

    def __init__(self, table: ProbabilityTable, support):
        self.table = table
        size = 1 << table.n
        idx = _bits.config_indices(table.n)
        self._keep = 0.0  # weight of the full subset, on which P is the identity
        self._terms = []  # (prob, subset bits, keys, pattern masses, stay mask)
        for bits, prob in support:
            if bits == size - 1:
                self._keep += prob
                continue
            keys = (idx & np.uint64(bits)).astype(np.intp)
            mass = np.bincount(keys, weights=table.p)
            null = mass[keys] <= 0
            mass[mass <= 0] = 1.0  # numerators vanish there; `stay` applies
            self._terms.append((prob, bits, keys, mass, null if null.any() else None))

    def apply(self, f) -> np.ndarray:
        values = np.asarray(f, dtype=np.float64)
        weighted = self.table.p * values
        out = self._keep * values
        for prob, _, keys, mass, stay in self._terms:
            cond = (np.bincount(keys, weights=weighted) / mass)[keys]
            if stay is not None:
                cond = np.where(stay, values, cond)
            out += prob * cond
        return out

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
        subset's blocks form the rows of one array.
        """
        mu = self.table.p[order]
        delta = np.zeros(len(order))
        for prob, bits, keys, _, _ in self._terms:
            rank = np.argsort(keys[order], kind="stable")
            a = mu[rank].reshape(1 << bits.bit_count(), -1)
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

    Raises ValueError, before allocating, when the boundary keys and block
    masses would exceed OPERATOR_BYTES_CAP. Checks P1 = 1 and, on seeded
    random pairs, the self-adjointness <f, Pg>_mu = <Pf, g>_mu that makes
    the chain reversible with mu stationary.
    """
    support = subset_support(spec, graph)
    size = 1 << table.n
    stored = sum(1 for bits, _ in support if bits != size - 1)
    nbytes = 16 * size * stored
    if nbytes > OPERATOR_BYTES_CAP:
        raise ValueError(
            f"block operator needs about {nbytes} bytes for {stored} subsets "
            f"over {size} configurations (cap {OPERATOR_BYTES_CAP})"
        )
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
    rng = np.random.default_rng(0)
    for _ in range(3):
        f, g = rng.standard_normal((2, size))
        if abs(mu @ (f * op.apply(g)) - mu @ (op.apply(f) * g)) > 1e-10:
            raise AssertionError("operator is not self-adjoint in L2(mu)")
    return op


@dataclass(frozen=True)
class SpectrumReport:
    lambda_2: float
    lambda_star: float
    gap: float
    relaxation_time: float
    second_eigenfunction: np.ndarray


def spectrum(op: BlockOperator) -> SpectrumReport:
    """Top two eigenpairs of the symmetrized operator D^(1/2) P D^(-1/2).

    One Lanczos solve from a fixed start vector, so reruns agree bit for
    bit; the two-state chain, which the iteration cannot handle, uses the
    dense matrix. P is positive semidefinite, so lambda_star = lambda_2.
    The top nontrivial eigenfunction is cross-checked against the
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
        start = root * np.random.default_rng(0).standard_normal(size)
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
    rel = math.inf if lam2 >= 1.0 else 1.0 / (1.0 - lam2)
    return SpectrumReport(lam2, lam2, gap, rel, f2)


def spectrum_report_json(report: SpectrumReport) -> str:
    return json.dumps(
        {
            "lambda_2": report.lambda_2,
            "lambda_star": report.lambda_star,
            "gap": report.gap,
            "relaxation_time": report.relaxation_time,
        },
        sort_keys=True,
    )


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
    trials: int = 100,
    rng: np.random.Generator | None = None,
) -> EigenclueReport:
    """Check that the second eigenvalue is attained by the second
    eigenfunction's expected clue and dominates random trial functions.

    With a degenerate top eigenspace every member still attains the same
    expected clue, so any basis vector works.
    """
    from .clue import expected_clue

    rep = spectrum(block_operator(table, spec, graph))
    f2 = rep.second_eigenfunction
    achieved = expected_clue(table, f2, spec, graph)
    residual = abs(rep.lambda_2 - achieved)
    max_trial = -math.inf
    if trials > 0:
        if rng is None:
            raise ValueError("random trials need a stream")
        for _ in range(trials):
            f = rng.standard_normal(1 << table.n)
            max_trial = max(max_trial, expected_clue(table, f, spec, graph))
            if max_trial > rep.lambda_2 + 1e-9:
                raise AssertionError(
                    f"trial clue {max_trial!r} exceeded lambda_2 {rep.lambda_2!r}"
                )
    return EigenclueReport(rep.lambda_2, achieved, max_trial, residual)


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


def exhaustive_bottleneck(op: BlockOperator) -> float:
    """True expansion constant by scanning every event; only feasible for
    state spaces of at most 16 configurations (n <= 4)."""
    size = 1 << op.table.n
    if size > 16:
        raise ValueError("exhaustive event scan is impossible beyond 16 states")
    best = math.inf
    for ebits in range(1, 1 << size):
        ind = np.array([(ebits >> j) & 1 for j in range(size)], dtype=np.float64)
        mu_e = float(op.table.p @ ind)
        if 0 < mu_e <= 0.5:
            best = min(best, dirichlet_form(op, ind) / mu_e)
    return best


# -- one-step simulation ------------------------------------------------------


def block_chain_step(
    table: ProbabilityTable,
    spec: SubsetSpec,
    graph: Graph,
    state_index: int,
    rng: np.random.Generator,
) -> int:
    """Sample a subset, keep its spins, redraw the complement from the exact
    conditional; used to validate the dense oracle matrix row by row."""
    bits = _bits.mask_to_bits(sample_subset(spec, graph, rng))
    idx = _bits.config_indices(table.n)
    keys = (idx & np.uint64(bits)).astype(np.int64)
    target = int(state_index) & bits
    members = np.flatnonzero(keys == target)
    weights = table.p[members]
    total = weights.sum()
    if total <= 0:
        return int(state_index)
    return int(rng.choice(members, p=weights / total))


# -- path coupling on tiled lattices ------------------------------------------


@dataclass(frozen=True)
class PathCouplingReport:
    beta: float
    block_side: int
    eta1_mean: float
    eta1_se: float
    trials: int


def _tiled_blocks(graph: Graph, L: int, anchor) -> list[np.ndarray]:
    """Connected components of the removed set, on the actual graph (torus
    seams can merge clipped blocks into one component)."""
    removed = tiled_complement_mask(graph, L, anchor)
    labels, _ = component_labels(
        graph.n_vertices, graph.edges, vertex_mask=removed
    )
    comps: dict[int, list[int]] = {}
    for v in np.flatnonzero(removed):
        comps.setdefault(int(labels[v]), []).append(int(v))
    return [np.asarray(c, dtype=np.int64) for _, c in sorted(comps.items())]


def _coupled_block_resample(
    graph: Graph,
    params: IsingParams,
    x_cfg: np.ndarray,
    y_cfg: np.ndarray,
    block: np.ndarray,
    rng: np.random.Generator,
    sweeps: int,
    exact_cap: int = 16,
) -> None:
    """Redraw one block in two coupled copies with identical randomness.

    Tiny blocks use an exact conditional draw through a shared uniform;
    larger blocks run the heat-bath grand coupling (shared uniforms, index
    order). Equal boundaries yield equal redraws by construction.
    """
    if len(block) <= exact_cap:
        u = rng.random()
        x_cfg[block] = conditional_exact_resample(graph, params, x_cfg, block, u)[block]
        y_cfg[block] = conditional_exact_resample(graph, params, y_cfg, block, u)[block]
        return
    nbrs = graph.neighbor_lists()
    degmax = max(len(nbrs[int(v)]) for v in block)
    from .ising import _heat_bath_tables

    p_plus = _heat_bath_tables(params, degmax)
    xs = x_cfg.tolist()
    ys = y_cfg.tolist()
    block_list = [int(v) for v in block]
    for _ in range(sweeps):
        us = rng.random(len(block_list))
        for i, v in enumerate(block_list):
            mx = my = 0
            for u_ in nbrs[v]:
                mx += xs[u_]
                my += ys[u_]
            xs[v] = 1 if us[i] < p_plus[mx + degmax] else -1
            ys[v] = 1 if us[i] < p_plus[my + degmax] else -1
    x_cfg[block] = np.asarray(xs, dtype=np.int8)[block]
    y_cfg[block] = np.asarray(ys, dtype=np.int8)[block]


def path_coupling_rate(
    graph: Graph,
    beta: float,
    L: int,
    trials: int,
    rng: np.random.Generator,
    warmup_steps: int = 60,
    resample_sweeps: int = 40,
    thin: int = 3,
) -> PathCouplingReport:
    """One-step contraction of the tiled block chain from a single seeded
    disagreement.

    Each trial: advance one long-running cluster chain `thin` steps for a
    near-stationary configuration, flip one uniform vertex in the copy,
    draw one tiled subset, redraw all removed blocks under the
    identical-randomness coupling, and count disagreements. Blocks not
    adjacent to the seed redraw identically and are skipped.
    """
    if graph.kind != "torus" or graph.kind_params["d"] not in (2, 3):
        raise ValueError("path coupling runs on 2D or 3D tori")
    d = graph.kind_params["d"]
    params = IsingParams(beta=beta, J=1.0) if beta > 0 else None
    etas = np.empty(trials)
    nbrs = graph.neighbor_lists()
    chain = sw_chain(graph, params, rng, warmup_steps) if beta > 0 else None
    for t in range(trials):
        if beta > 0:
            chain = sw_chain(graph, params, rng, thin, chain)
            x = chain.copy()
        else:
            x = rng.choice(np.array([-1, 1], dtype=np.int8), size=graph.n_vertices)
        v = int(rng.integers(graph.n_vertices))
        anchor = rng.integers(L + 3, size=d)
        removed = tiled_complement_mask(graph, L, anchor)
        if removed[v]:
            # The seed itself is redrawn; all boundaries agree, so both
            # copies coalesce under the shared randomness.
            etas[t] = 0.0
            continue
        y = x.copy()
        y[v] = -y[v]
        eta = 1.0
        if beta > 0:
            touched = [u for u in nbrs[v] if removed[u]]
            if touched:
                blocks = _tiled_blocks(graph, L, anchor)
                pars = IsingParams(beta=beta, J=1.0)
                for block in blocks:
                    block_set = set(int(b) for b in block)
                    if not any(u in block_set for u in touched):
                        continue
                    _coupled_block_resample(
                        graph, pars, x, y, block, rng, resample_sweeps
                    )
                eta = float((x != y).sum())
        etas[t] = eta
    se = float(etas.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.nan
    return PathCouplingReport(beta, L, float(etas.mean()), se, trials)
