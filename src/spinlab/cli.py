"""Named, seeded experiment recipes with CSV/JSON emission.

Usage::

    spinlab <recipe> --config params.json --seed 7 --out results/ --format csv

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage error.
Outputs are deterministic functions of (config, seed) and never contain
wall-clock data, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import block_dyn, clue as clue_mod, curie_weiss as cw, dac, graphs, ising, measures
from .rng import bootstrap_se, parallel_map, stream


# ---------------------------------------------------------------------------
# infrastructure


@dataclass
class Budget:
    seconds: float
    start: float = field(default_factory=time.monotonic)

    def exceeded(self) -> bool:
        return time.monotonic() - self.start > self.seconds


@dataclass
class Assertion:
    name: str
    status: str  # pass | fail | budget
    detail: str = ""
    margin: float | None = None  # a numeric check's slack: see _numeric
    z: float | None = None


def check(name: str, ok: bool, detail: str = "") -> Assertion:
    return Assertion(name, "pass" if ok else "fail", detail)


def _numeric(name, ok, slack, se, z, detail) -> Assertion:
    """Record a numeric check with margin = its smallest slack, in SEs (with
    `z` beside it) when se > 0 and absolute otherwise; NaN fails, margin None."""
    margin = float(np.min(slack / se if se > 0 else slack))
    return Assertion(name, "pass" if np.all(ok) else "fail", f"{detail} (margin {margin!r})",
                     margin if math.isfinite(margin) else None, z if se > 0 else None)


def at_most(name, value, limit, tol=0.0, se=0.0, z=0.0, strict=False) -> Assertion:
    """Check value <= limit + z*se + tol (< if strict) entrywise. A floor is
    at_most(name, floor, value); z < 0 asks for |z| SEs of clearance."""
    value, limit = np.asarray(value, dtype=float), np.asarray(limit, dtype=float)
    bound = limit + z * se + tol
    ok, op = (value < bound, "<") if strict else (value <= bound, "<=")
    return _numeric(name, ok, bound - value, se, z,
                    f"{value.tolist()} {op} {limit.tolist()} + {z}*{se} + {tol}")


def close(name, value, target, tol=0.0, se=0.0, z=0.0, rel=False) -> Assertion:
    """Check |value - target| <= z*se + tol entrywise; `rel` scales tol by max(1, |target|)."""
    value, target = np.asarray(value, dtype=float), np.asarray(target, dtype=float)
    tol = np.asarray(tol, dtype=float) * (np.maximum(1.0, np.abs(target)) if rel else 1.0)
    gap, bound = np.abs(value - target), z * se + tol
    return _numeric(name, gap <= bound, bound - gap, se, z,
                    f"|{value.tolist()} - {target.tolist()}| <= {z}*{se} + {tol.tolist()}")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


@dataclass
class OutputWriter:
    outdir: Path
    fmt: str
    tables: dict = field(default_factory=dict)
    schemas: dict = field(default_factory=dict)

    def table(self, name: str, columns: list[str]):
        self.tables.setdefault(name, [])
        self.schemas[name] = columns

    def row(self, name: str, *values):
        cols = self.schemas[name]
        if len(values) != len(cols):
            raise ValueError(f"row width mismatch for table {name}")
        self.tables[name].append(values)

    def flush(self) -> list[str]:
        written = []
        for name, rows in self.tables.items():
            cols = self.schemas[name]
            if self.fmt == "csv":
                path = self.outdir / f"{name}.csv"
                with open(path, "w", newline="") as fh:
                    fh.write(",".join(cols) + "\n")
                    for r in rows:
                        fh.write(",".join(_fmt(v) for v in r) + "\n")
            else:
                path = self.outdir / f"{name}.json"
                docs = [
                    {c: (float(v) if isinstance(v, (float, np.floating)) else
                         int(v) if isinstance(v, (int, np.integer)) else str(v))
                     for c, v in zip(cols, r)}
                    for r in rows
                ]
                with open(path, "w") as fh:
                    json.dump(docs, fh, sort_keys=True, indent=1)
            written.append(path.name)
        return written


@dataclass
class Recipe:
    """A named experiment. A parameter's default fixes its type: an int takes
    an integer (not a bool), a float a finite real, a list a non-empty list
    of its first entry's type, a dict (`graph`, `spec`) a JSON object. Ints
    lie in [1, inf) and reals in [0, inf) unless `ranges` declares (low,
    high); `check(params)` raises on the cross-field and size limits."""

    name: str
    claim: str
    defaults: dict
    run: object  # callable(params, seed, writer, budget) -> list[Assertion]
    ranges: dict
    check: object  # callable(params) -> None

    def bounds(self, key: str) -> tuple:
        """(low, high) of an int or real parameter, or of its list entries."""
        first = self.defaults[key]
        first = first[0] if isinstance(first, list) else first
        return self.ranges.get(key, (1, math.inf) if isinstance(first, int) else (0.0, math.inf))


RECIPES: dict[str, Recipe] = {}

UNIT = (0.0, 1.0)
LATTICE_SIDE = (3, math.inf)  # graphs.torus needs side >= 3


def _chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split `total` draws into n = min(chunks, total) fixed chunks, the
    first total % n of them one draw larger.

    Chunk i draws from its own stream, so the split, not the run, fixes the
    output; the spread of the chunk means gives a batch-means standard
    error that stays honest under within-chunk correlation.
    """
    n = min(chunks, total)
    base, extra = divmod(total, n)
    return [base + (i < extra) for i in range(n)]


def _pooled(parts) -> tuple[float, float, int]:
    """Pool chunk results (mean, se, count) into the count-weighted mean, its
    between-chunk standard error (a lone chunk keeps its own) and the total."""
    total = sum(c for _, _, c in parts)
    mean = sum(m * c for m, _, c in parts) / total
    if len(parts) == 1:
        return mean, parts[0][1], total
    between = sum((c / total) * (m - mean) ** 2 for m, _, c in parts)
    return mean, math.sqrt(between / (len(parts) - 1)), total


def recipe(name: str, claim: str, defaults: dict, ranges=None, check=lambda params: None):
    def wrap(fn):
        RECIPES[name] = Recipe(name, claim, defaults, fn, ranges or {}, check)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# mean-field recipes


def _check_cw_grid(params):
    cw.check_pmf_size(params["n"])
    for k in params["ks"]:
        cw.check_grid_size(params["n"], k)


def _check_cw_pmfs(params):
    for n in params["ns"]:
        cw.check_pmf_size(n)


@recipe(
    "cw-clue",
    "Exact mean-field reconstruction curves: explained-variance and "
    "information shares of majority/magnetization are monotone in the "
    "observation count, and the information share obeys the entropy bound.",
    {"n": 2000, "betas": [0.5, 1.0, 1.5], "ks": [10, 20, 50, 100, 200, 500]},
    check=_check_cw_grid,
)
def run_cw_clue(params, seed, writer, budget):
    n = params["n"]
    writer.table("cw_clue", [
        "n", "beta", "k", "clue_m", "clue_maj", "iclue_maj",
        "guess_success", "entropy_deficit",
    ])
    checks = []
    for beta in params["betas"]:
        pmf = cw.cw_magnetization_pmf(n, beta)
        deficit = pmf.entropy.deficit_bits
        curves = []  # (clue_m, clue_maj, iclue_maj) per k
        for k in sorted(params["ks"]):
            if budget.exceeded():
                checks.append(Assertion("budget", "budget", f"stopped at beta={beta}, k={k}"))
                return checks
            law = cw.cw_observed_law(pmf, k)
            cm, cj = law.clue("magnetization"), law.clue("majority")
            ic, gs = law.iclue(), law.guess_success()
            writer.row("cw_clue", n, beta, k, cm, cj, ic.iclue, gs, deficit)
            curves.append((cm, cj, ic.iclue))
            checks.append(at_most(f"iclue-entropy-bound-beta{beta}-k{k}", ic.iclue, ic.bound,
                                  tol=1e-9))
        for label, curve in zip(("clue", "clue-maj", "iclue-maj"), zip(*curves)):
            checks.append(check(f"{label}-monotone-in-k-beta{beta}",
                                all(b >= a - 1e-12 for a, b in zip((-1.0,) + curve, curve))))
    return checks


@recipe(
    "cw-entropy",
    "Exact mean-field entropy: the total-entropy deficit equals the "
    "relative entropy against fair coins and is dominated by the "
    "second-moment bound with a nonnegative normalizer gap.",
    {"ns": [100, 1000, 10000], "betas": [0.5, 1.0]},
    check=_check_cw_pmfs,
)
def run_cw_entropy(params, seed, writer, budget):
    writer.table("cw_entropy", [
        "n", "beta", "entropy_bits", "deficit_bits", "d_bits",
        "moment_bound_bits", "gap_bits",
    ])
    checks = []
    for beta in params["betas"]:
        for n in params["ns"]:
            pmf = cw.cw_magnetization_pmf(n, beta)
            ent, rel = pmf.entropy, pmf.relative_entropy
            writer.row("cw_entropy", n, beta, ent.entropy_bits, ent.deficit_bits,
                       rel.d_bits, rel.moment_bound_bits, rel.gap_bits)
            checks += [close(f"identity-deficit-equals-d-n{n}-beta{beta}", ent.deficit_bits,
                             rel.d_bits, tol=1e-9, rel=True),
                       at_most(f"gap-nonnegative-n{n}-beta{beta}", 0.0, rel.gap_bits, tol=1e-12),
                       at_most(f"moment-bound-n{n}-beta{beta}", rel.d_bits,
                               rel.moment_bound_bits, tol=1e-9)]
    return checks


@recipe(
    "cw-guess",
    "Majority of an observed sample predicts the global majority with the "
    "exactly computed success probability.",
    {"n": 2000, "betas": [0.5, 1.5], "ks": [1, 10, 50, 200]},
    check=_check_cw_grid,
)
def run_cw_guess(params, seed, writer, budget):
    writer.table("cw_guess", ["n", "beta", "k", "success"])
    checks = []
    for beta in params["betas"]:
        pmf = cw.cw_magnetization_pmf(params["n"], beta)
        for k in sorted(params["ks"]):
            s = cw.cw_observed_law(pmf, k).guess_success()
            writer.row("cw_guess", params["n"], beta, k, s)
            checks.append(at_most(f"success-in-range-beta{beta}-k{k}", [0.0, s],
                                  [s, 1.0 + 1e-12]))
    return checks


@recipe(
    "en-moments",
    "Exact mean-field moments: the scaled second moment approaches its "
    "known limits and the fourth moment never exceeds three times the "
    "squared second moment.",
    {"ns": [2000, 4000, 8000], "betas": [0.5, 1.0]},
    check=_check_cw_pmfs,
)
def run_en_moments(params, seed, writer, budget):
    writer.table("en_moments", [
        "n", "beta", "second_moment_nm2", "sqrtn_m2", "fourth_ratio",
    ])
    checks = []
    for beta in params["betas"]:
        for n in params["ns"]:
            pmf = cw.cw_magnetization_pmf(n, beta)
            m2, m4 = pmf.moment(2).value, pmf.moment(4)
            writer.row("en_moments", n, beta, m2, m2 / math.sqrt(n),
                       m4.lebowitz_ratio)
            checks.append(at_most(f"fourth-moment-bound-n{n}-beta{beta}",
                                  m4.lebowitz_ratio, 1.0, tol=1e-12))
    return checks


# ---------------------------------------------------------------------------
# block-dynamics recipes


def _check_block_chain(params):
    g = graphs.build_graph(params["graph"])
    measures.check_exact_size(g.n_vertices)
    spec = graphs.SubsetSpec.from_json(params["spec"], g.n_vertices)
    clue_mod.check_aggregator_size(g.n_vertices, graphs.subset_support(spec, g))


@recipe(
    "eigenclue-verify",
    "The second eigenvalue of the keep-subset/redraw chain equals the "
    "maximal expected explained-variance fraction: attained by the second "
    "eigenfunction, dominating random trials.",
    {
        "graph": {"type": "cycle", "n": 6},
        "beta": 0.4,
        "spec": {"kind": "uniform_k", "k": 2},
        "trials": 100,
    },
    check=_check_block_chain,
)
def run_eigenclue(params, seed, writer, budget):
    g = graphs.build_graph(params["graph"])
    table = measures.exact_table(measures.IsingMeasure(params["beta"]), g)
    spec = graphs.SubsetSpec.from_json(params["spec"], g.n_vertices)
    rep = block_dyn.eigenclue_verify(table, spec, g, params["trials"], stream(seed, 0))
    writer.table("eigenclue", ["lambda_2", "clue_second_eigenfunction",
                               "residual", "max_trial_clue"])
    writer.row("eigenclue", rep.lambda_2, rep.clue_of_eigenfunction,
               rep.residual, rep.max_trial_clue)
    return [at_most("eigenfunction-attains-lambda2", rep.residual, 0.0, tol=1e-8),
            at_most("trials-below-lambda2", rep.max_trial_clue, rep.lambda_2, tol=1e-9)]


def _check_cheeger(params):
    _check_block_chain(params)
    if graphs.build_graph(params["graph"]).n_vertices < 2:
        raise ValueError("dirichlet-cheeger needs n >= 2: its events hold 1 to "
                         "2^(n-1) - 1 of the 2^n states")


@recipe(
    "dirichlet-cheeger",
    "Every low-probability event's escape flux lower-bounds its "
    "explained-variance fraction, and the sweep-cut expansion certifies "
    "the spectral-gap inequality.",
    {
        "graph": {"type": "cycle", "n": 6},
        "beta": 0.4,
        "spec": {"kind": "uniform_k", "k": 2},
        "events": 20,
    },
    check=_check_cheeger,
)
def run_dirichlet_cheeger(params, seed, writer, budget):
    g = graphs.build_graph(params["graph"])
    table = measures.exact_table(measures.IsingMeasure(params["beta"]), g)
    spec = graphs.SubsetSpec.from_json(params["spec"], g.n_vertices)
    op = block_dyn.block_operator(table, spec, g)
    rep = block_dyn.spectrum(op)
    rng = stream(seed, 0)
    writer.table("cheeger", ["event", "mu", "phi", "expected_clue", "flux_floor"])
    size = 1 << table.n
    events, indicators = [], []  # the events with 0 < mu(E) <= 1/2
    for e in range(params["events"]):
        ind = np.zeros(size)
        members = rng.choice(size, size=rng.integers(1, size // 2), replace=False)
        ind[members] = 1.0
        if table.p @ ind > 0.5 or table.p @ ind <= 0:
            ind = 1.0 - ind
        mu_e = float(table.p @ ind)
        if 0 < mu_e <= 0.5:
            events.append((e, mu_e))
            indicators.append(ind)
    clues = clue_mod.expected_clue(table, np.reshape(indicators, (-1, size)), spec, g)
    checks = []
    for (e, mu_e), ind, ec in zip(events, indicators, clues.tolist()):
        phi = block_dyn.bottleneck_ratio(op, ind)
        writer.row("cheeger", e, mu_e, phi, ec, 1.0 - 2.0 * phi)
        checks.append(at_most(f"flux-floor-event{e}", 1.0 - 2.0 * phi, ec, tol=1e-9))
    sweep = block_dyn.sweep_cut_bottleneck(op, rep.second_eigenfunction)
    writer.table("cheeger_summary", ["lambda_2", "gap", "sweep_cut_phi"])
    writer.row("cheeger_summary", rep.lambda_2, rep.gap, sweep)
    checks.append(at_most("sweep-cut-certifies-gap", sweep**2 / 2.0, rep.gap, tol=1e-12))
    return checks


def _check_tiling(params):
    g = graphs.torus(params["d"], params["side"])
    for L in params["Ls"]:
        graphs.revealment(graphs.Tiled(L), g)
    if sorted(set(params["Ls"])) != params["Ls"]:
        raise ValueError(f"Ls must be strictly increasing, got {params['Ls']}")


def _tiled_chunk(g, params, seed, i, count):
    reps = block_dyn.path_coupling_rate(g, params["beta"], params["Ls"], count, stream(seed, i),
                                        params["warmup_steps"], params["resample_sweeps"],
                                        params["thin"])
    return [(rep.eta1_mean, rep.eta1_se, count) for rep in reps]


@recipe(
    "tiled-coupling",
    "One-step contraction of the tiled block chain: a seeded disagreement "
    "dies out faster for larger blocks; at infinite temperature the "
    "survival probability is the exact complement-coverage fraction.",
    {
        "side": 60, "d": 2, "beta": 0.3, "Ls": [5, 10, 15], "trials": 2400,
        "warmup_steps": 60, "resample_sweeps": 40, "thin": 3, "chunks": 16,
    },
    {"side": LATTICE_SIDE, "d": (2, 3)},  # path coupling runs on 2D and 3D tori
    _check_tiling,
)
def run_tiled_coupling(params, seed, writer, budget):
    g = graphs.torus(params["d"], params["side"])
    writer.table("tiled_coupling", ["beta", "L", "eta1_mean", "eta1_se", "trials"])
    if budget.exceeded():
        return [Assertion("budget", "budget", "stopped before the chunks")]
    sizes = _chunk_sizes(params["trials"], params["chunks"])
    jobs = [(g, params, seed, i, c) for i, c in enumerate(sizes)]
    chunks = parallel_map(_tiled_chunk, jobs, ising.check_sw_bytes(g, 1))
    beta = params["beta"]
    results = [(L, *_pooled(parts)) for L, parts in zip(params["Ls"], zip(*chunks))]
    for row in results:
        writer.row("tiled_coupling", beta, *row)
    if beta == 0.0:
        return [close(f"coin-flip-survival-L{L}", mean, 1.0 - (L / (L + 3)) ** params["d"],
                      tol=1e-12, se=se, z=3) for L, mean, se, _ in results]
    # the drop m1 - m2 must exceed 2 combined SEs, strictly
    return [at_most(f"contraction-improves-L{l1}-to-L{l2}", 0.0, m1 - m2,
                    se=math.sqrt(s1**2 + s2**2), z=-2.0, strict=True)
            for (l1, m1, s1, _), (l2, m2, s2, _) in zip(results, results[1:])]


# ---------------------------------------------------------------------------
# coloring-measure recipes


def _random_dac_instance(params, rng):
    """A path on n vertices plus random extra edges, a random bond table on
    it, and a Gaussian function over the configurations, drawn in that
    order from `rng`."""
    n = params["n"]
    path = [[i, i + 1] for i in range(n - 1)]
    extra = set()
    while len(extra) < params["extra_edges"]:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if [u, v] not in path:
            extra.add((u, v))
    g = graphs.custom(n, path + [list(e) for e in sorted(extra)])
    support = params["bond_support"]
    masks = rng.integers(0, 1 << g.n_edges, size=support)
    probs = rng.dirichlet(np.ones(support))
    agg: dict[int, float] = {}
    for m, p in zip(masks, probs):
        agg[int(m)] = agg.get(int(m), 0.0) + float(p)
    return g, sorted(agg.items()), rng.standard_normal(1 << n)


def _check_dac_instance(params):
    measures.check_exact_size(params["n"])
    # extra edges join non-path pairs, and bond masks are int64: at most 63 edges
    room = min((params["n"] - 1) * (params["n"] - 2) // 2, 64 - params["n"])
    if params["extra_edges"] > room:
        raise ValueError(f"a path on {params['n']} vertices has room for {room} extra edges")


def _check_dac_bounds(params):
    _check_dac_instance(params)
    graphs.revealment(graphs.UniformK(params["spec_k"]), graphs.custom(params["n"], []))


@recipe(
    "dac-identities",
    "Coloring-measure moment formulas match brute-force enumeration; each "
    "parity class collects exactly 2^(V-k) subsets; class feasibility "
    "matches literal member enumeration.",
    {"instances": 20, "n": 5, "extra_edges": 3, "bond_support": 6},
    {"extra_edges": (0, math.inf)},
    _check_dac_instance,
)
def run_dac_identities(params, seed, writer, budget):
    checks = []
    writer.table("dac_identities", [
        "instance", "e_f_formula", "e_f_direct", "e_fg_formula", "e_fg_direct",
    ])
    n = params["n"]
    for inst in range(params["instances"]):
        rng = stream(seed, 7, inst)
        g, bond_table, fv = _random_dac_instance(params, rng)
        gv = rng.standard_normal(1 << n)
        labelled = dac.bond_configs(bond_table, g)
        rep = dac.dac_expectation(fv, labelled, g, g=gv)
        writer.row("dac_identities", inst, rep.e_f, rep.direct_e_f, rep.e_fg,
                   rep.direct_e_fg)
        checks.append(close(f"moment-formulas-match-{inst}", [rep.e_f, rep.e_fg],
                            [rep.direct_e_f, rep.direct_e_fg], tol=1e-9, rel=True))
        # class-size law and feasibility semantics on one bond mask, read off
        # the literal classes: 2^k classes of class_count that cover 2^n are disjoint
        bonds = labelled[rng.integers(len(labelled))][0]
        cf = dac.dac_coefficients(fv, bonds)
        ubits = int(rng.integers(0, 1 << n))
        sized, feasible, seen = True, True, set()
        for profile in range(1 << bonds.k):
            members = set(_class_members(cf.representative(profile), bonds, n))
            sized &= len(members) == dac.class_count(bonds)
            seen |= members
            literal = any((s | ubits) == ubits for s in members)
            feasible &= literal == dac.class_within(profile, bonds, ubits)
        checks.append(check(f"class-count-{inst}", sized and len(seen) == 1 << n))
        checks.append(check(f"class-feasibility-{inst}", feasible))
    return checks


def _class_members(rep_bits: int, bonds, n: int):
    """All subsets equivalent to rep_bits: XOR with the even-subset span."""
    span = [0]
    for u, v in bonds.graph.edges[bonds.open_edges]:
        gen = (1 << int(u)) | (1 << int(v))
        span = list({s ^ x for s in span for x in (0, gen)})
    return [rep_bits ^ s for s in span]


@recipe(
    "dac-bounds",
    "Explained variance under a coloring measure is dominated by the "
    "class-spectral bound, in turn by the max-cluster bound; for the "
    "average magnetization the singleton stage equals the cluster-ratio "
    "form exactly.",
    {"instances": 50, "n": 6, "extra_edges": 2, "bond_support": 5, "spec_k": 2},
    {"extra_edges": (0, math.inf)},
    _check_dac_bounds,
)
def run_dac_bounds(params, seed, writer, budget):
    checks = []
    writer.table("dac_bounds", [
        "instance", "exact", "spectral", "theorem", "cluster_ratio",
    ])
    spec = graphs.UniformK(params["spec_k"])
    for inst in range(params["instances"]):
        g, bond_table, fv = _random_dac_instance(params, stream(seed, 8, inst))
        labelled = dac.bond_configs(bond_table, g)
        rep = dac.dac_clue_upper_bound(fv, labelled, spec, g)
        repm = dac.dac_clue_upper_bound(measures.Magnetization(), labelled, spec, g)
        writer.row("dac_bounds", inst, rep.exact_expected_clue, rep.spectral_bound,
                   rep.theorem_bound, rep.cluster_ratio_bound)
        checks += [at_most(f"bound-chain-{inst}", [rep.exact_expected_clue, rep.spectral_bound],
                           [rep.spectral_bound, rep.theorem_bound], tol=1e-9),
                   close(f"magnetization-singleton-identity-{inst}",
                         repm.singleton_bound_for_magnetization, repm.cluster_ratio_bound,
                         tol=1e-9, rel=True)]
    return checks


def _check_fk_bound(params) -> int:
    """Refuse a config whose batches exceed their caps, before any work;
    return the bytes of the largest job."""
    g = graphs.torus(2, params["side"])
    graphs.revealment(graphs.UniformK(params["spec_k"]), g)
    # the fk_samples chains and each clue_mc's `outer` full draws are
    # replica batches of one swendsen_wang call, its inner draws one heat_bath batch
    return max(ising.check_sw_bytes(g, params["fk_samples"]),
               ising.check_sw_bytes(g, params["outer"]),
               clue_mod.check_batch_bytes(params["outer"], params["inner"], g.n_vertices))


def _fk_job(g, params, seed, bi, r):
    """Job r of the bi-th beta: its cluster-moment bound for r = -1, else
    the clue of the magnetization on the r-th drawn subset."""
    beta, spec = params["betas"][bi], graphs.UniformK(params["spec_k"])
    if r < 0:
        return dac.fk_magnetization_bound(g, beta, spec, params["fk_samples"],
                                          stream(seed, 20, bi), sweeps=params["fk_sweeps"])
    sampler = ising.ConditionalGibbsSampler(g, ising.IsingParams(beta),
                                            params["inner_sweeps"], params["sw_burnin"])
    rng = stream(seed, 21, bi, r)
    mask = graphs.sample_subset(spec, g, rng)
    return clue_mod.clue_mc(sampler, measures.Magnetization(), mask, params["outer"],
                            params["inner"], rng, bootstrap=50).value


@recipe(
    "fk-bound",
    "Monte Carlo explained-variance of the average magnetization stays "
    "below the revealment times the cluster second-to-first moment ratio "
    "of the coupled bond layer.",
    {
        "side": 8, "betas": [0.3, ising.BETA_C_2D, 0.6], "spec_k": 4,
        "fk_samples": 300, "fk_sweeps": 25, "u_draws": 10,
        "outer": 20, "inner": 12, "sw_burnin": 25, "inner_sweeps": 600,
    },
    # ddof=1 standard errors over u_draws; fk_samples feeds a bootstrap too
    {"side": LATTICE_SIDE, "u_draws": (2, math.inf), "fk_samples": (2, math.inf),
     "outer": (2, math.inf), "inner": (2, math.inf)},
    _check_fk_bound,
)
def run_fk_bound(params, seed, writer, budget):
    g = graphs.torus(2, params["side"])
    writer.table("fk_bound", [
        "beta", "clue_mc", "clue_se", "ratio_bound", "ratio_se",
        "max_cluster_bound",
    ])
    if budget.exceeded():
        return [Assertion("budget", "budget", "stopped before the chunks")]
    per_beta = params["u_draws"] + 1  # the bound, then the clue draws
    jobs = [(g, params, seed, bi, r)
            for bi in range(len(params["betas"])) for r in range(-1, params["u_draws"])]
    results = parallel_map(_fk_job, jobs, _check_fk_bound(params))
    checks = []
    for bi, beta in enumerate(params["betas"]):
        bound, *values = results[bi * per_beta:(bi + 1) * per_beta]
        mc = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        writer.row("fk_bound", beta, mc, se, bound.ratio_bound, bound.ratio_se,
                   bound.max_cluster_bound)
        checks.append(at_most(f"clue-below-cluster-ratio-beta{beta:.6g}", mc,
                              bound.ratio_bound, se=math.sqrt(se**2 + bound.ratio_se**2), z=3))
    return checks


# ---------------------------------------------------------------------------
# lattice Monte Carlo recipes


def _integrated_autocorr(x: np.ndarray) -> float:
    """Integrated autocorrelation time tau(W) = 1 + 2 sum_{t<=W} rho(t) of
    the series x, at Sokal's automatic window: the smallest W >= 6 tau(W)
    (Madras & Sokal, J. Stat. Phys. 50, 1988)."""
    x = x - x.mean()
    n = len(x)
    denom = float(x @ x)
    if denom <= 0:
        return 1.0
    spec = np.fft.rfft(x, 2 * n)  # zero-padded: no wrap-around
    rho = np.fft.irfft(spec * spec.conj(), 2 * n)[:n] / denom
    tau = 2.0 * np.cumsum(rho) - 1.0
    window = np.arange(n) >= 6.0 * tau
    return float(tau[np.argmax(window) if window.any() else n - 1])


@recipe(
    "ising2d-sublattice",
    "At the planar critical point the average magnetization correlates "
    "almost perfectly with coarse sublattice averages, nonincreasing in "
    "the mesh.",
    {
        "side": 64, "beta": ising.BETA_C_2D, "meshes": [2, 4, 8, 16], "samples": 1200,
        "thin": 3, "burnin": 300, "min_ess": 200, "corr_floor": 0.9,
        "bootstrap": 200,
    },
    {"side": LATTICE_SIDE, "corr_floor": UNIT, "bootstrap": (2, math.inf)},
    lambda p: graphs.check_lattice_size(2, p["side"]),
)
def run_sublattice(params, seed, writer, budget):
    g = graphs.torus(2, params["side"])
    par = ising.IsingParams(params["beta"])
    rng = stream(seed, 30)
    cfg = ising.sw_chain(g, par, rng, params["burnin"])
    sub_idx = {
        s: np.flatnonzero((g.coords % s == 0).all(axis=0))
        for s in params["meshes"]
    }
    N = params["samples"]
    m_full = np.empty(N)
    m_sub = {s: np.empty(N) for s in params["meshes"]}
    budget_note = None
    for i in range(N):
        if budget.exceeded():
            budget_note = Assertion("budget", "budget", f"stopped at sample {i}")
            if i < 10:
                return [budget_note]
            N = i
            m_full = m_full[:N]
            m_sub = {s: v[:N] for s, v in m_sub.items()}
            break
        cfg = ising.sw_chain(g, par, rng, params["thin"], cfg)
        m_full[i] = cfg.mean()
        for s in params["meshes"]:
            m_sub[s][i] = cfg[sub_idx[s]].mean()
    # SW cluster coins re-randomise the sign of M every step, so the
    # statistic's memory is that of M^2
    tau = _integrated_autocorr(m_full**2)
    ess = N / tau
    # the bootstrap resamples non-overlapping blocks of ceil(tau) samples
    # (at least two blocks), so the SE carries the chain's memory
    size = min(max(math.ceil(tau), 1), N // 2)
    blocks = np.arange(N // size * size).reshape(-1, size)
    boot = stream(seed, 31)
    writer.table("sublattice", ["mesh", "sublattice_size", "corr", "corr_se"])
    results = []
    for s in params["meshes"]:
        c = float(np.corrcoef(m_full, m_sub[s])[0, 1])
        pair = np.stack([m_full, m_sub[s]])[:, blocks]  # (2, blocks, size)
        se = bootstrap_se(lambda pick: np.corrcoef(pair[:, pick].reshape(2, -1))[0, 1],
                          len(blocks), params["bootstrap"], boot)
        writer.row("sublattice", s, len(sub_idx[s]), c, se)
        results.append((s, c, se))
    writer.table("sublattice_summary", ["beta", "samples", "ess"])
    writer.row("sublattice_summary", params["beta"], N, ess)
    checks = [] if budget_note is None else [budget_note]
    checks += [at_most("effective-samples", params["min_ess"], ess),
               at_most("finest-mesh-correlation", params["corr_floor"], results[0][1])]
    return checks + [at_most(f"nonincreasing-mesh{s1}-to-{s2}", c2, c1,
                             se=math.sqrt(e1**2 + e2**2), z=2)
                     for (s1, c1, e1), (s2, c2, e2) in zip(results, results[1:])]


def _supercrit_chunk(g, params, seed, i, count):
    """(largest cluster, total spin, sparse guess hit or None) per sample."""
    par, rng, cfg, rows = ising.IsingParams(params["beta"]), stream(seed, 40, i), None, []
    maj = measures.Majority()
    for _ in range(count):
        cfg = ising.sw_chain(g, par, rng, params["thin"] if rows else params["sw_burnin"], cfg)
        labels = ising.fk_clusters(cfg[None], g, par, rng)[0]
        mask = rng.random(g.n_vertices) < params["bern_p"]
        hit = clue_mod.majority_guess(cfg, mask) == maj.evaluate(cfg) if mask.any() else None
        rows.append((float(np.bincount(labels).max()), float(cfg.sum()), hit))
    return rows


@recipe(
    "supercrit-giant",
    "In the ordered phase the bond layer carries a giant cluster, a "
    "sparse random sample predicts the majority, and the total spin shows "
    "macroscopic fluctuations.",
    {
        "side": 16, "beta": 0.6, "samples": 300, "bern_p": 0.05,
        "giant_fraction": 0.3, "giant_floor": 0.9, "guess_floor": 0.8,
        "pz_coefficient": 0.3, "pz_floor": 0.2, "sw_burnin": 200, "thin": 30,
        "chunks": 8,
    },
    {"side": LATTICE_SIDE, "bern_p": UNIT, "giant_fraction": UNIT, "giant_floor": UNIT,
     "guess_floor": UNIT, "pz_floor": UNIT},
    lambda p: graphs.check_lattice_size(2, p["side"]),
)
def run_supercrit(params, seed, writer, budget):
    g = graphs.torus(2, params["side"])
    writer.table("supercrit_giant", [
        "beta", "samples", "giant_freq", "guess_freq", "fluctuation_freq",
    ])
    if budget.exceeded():
        return [Assertion("budget", "budget", "stopped before the chunks")]
    sizes = _chunk_sizes(params["samples"], params["chunks"])
    jobs = [(g, params, seed, i, c) for i, c in enumerate(sizes)]
    chunks = parallel_map(_supercrit_chunk, jobs, ising.check_sw_bytes(g, 1))
    rows = [row for chunk in chunks for row in chunk]
    giants = np.array([r[0] for r in rows])
    sums = np.array([r[1] for r in rows])
    hits = [r[2] for r in rows if r[2] is not None]
    giant_freq = float(np.mean(giants >= params["giant_fraction"] * g.n_vertices))
    guess_freq = float(np.mean(hits)) if hits else math.nan
    pz_freq = float(np.mean(np.abs(sums) >= params["pz_coefficient"]
                            * math.sqrt(np.mean(sums**2))))
    writer.row("supercrit_giant", params["beta"], len(rows), giant_freq,
               guess_freq, pz_freq)
    return [at_most("giant-cluster-frequency", params["giant_floor"], giant_freq),
            at_most("sparse-majority-guess", params["guess_floor"], guess_freq),
            at_most("macroscopic-fluctuations", params["pz_floor"], pz_freq)]


@recipe(
    "ffiid-demo",
    "The first-repeated-pair scan on a cycle: forbidden three-spin "
    "alternation patterns appear only on the alternating-source error "
    "branch, whose frequency matches 2^(1-cycle length).",
    {"n_half": 3, "draws": 20000},
    check=lambda p: measures.check_ffiid_size(p["n_half"], p["draws"]),
)
def run_ffiid_demo(params, seed, writer, budget):
    n = 2 * params["n_half"]
    draws = params["draws"]
    sigma, omega = measures.sample_ffiid_parity_cycle(params["n_half"], stream(seed, 50), draws)
    alternating = np.all(omega != np.roll(omega, -1, axis=1), axis=1)
    error_count = int(np.count_nonzero(alternating))
    # pattern -+- or +-+ at position i means sign flips at i and i+1
    flips = sigma * np.roll(sigma, -1, axis=1) == -1
    forbidden = np.any(flips & np.roll(flips, -1, axis=1), axis=1)
    forbidden_off_error = int(np.count_nonzero(forbidden & ~alternating))
    p_err = 2.0 ** (1 - n)
    se = math.sqrt(p_err * (1 - p_err) / draws)
    freq = error_count / draws
    writer.table("ffiid_demo", [
        "cycle_length", "draws", "error_branch_freq", "expected_error_freq",
        "forbidden_patterns_off_error",
    ])
    writer.row("ffiid_demo", n, draws, freq, p_err, forbidden_off_error)
    return [check("no-forbidden-patterns-off-error", forbidden_off_error == 0),
            close("error-branch-frequency", freq, p_err, tol=1e-12, se=se, z=4)]


# ---------------------------------------------------------------------------
# driver


def _check_value(value, default, low, high) -> None:
    """Check one value against the type of its default and [low, high]."""
    if isinstance(default, (list, dict)):  # a dict is a document that `check` builds
        if not isinstance(value, type(default)) or not value:
            raise TypeError(f"expected a non-empty {type(default).__name__}, got {value!r}")
        for v in value if isinstance(value, list) else ():
            _check_value(v, default[0], low, high)
        return
    if isinstance(default, int):
        graphs._index(value)
    elif isinstance(value, bool) or not (isinstance(value, numbers.Real) and abs(value) < math.inf):
        raise TypeError(f"expected a finite real, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{value!r} is outside [{low}, {high}]")


def _validate_params(name: str, overrides: dict, seed: int) -> tuple[Recipe, dict]:
    """Resolve the recipe and check its parameters against their
    declarations and its `check`, so that bad configs and seeds fail before
    any output."""
    if name not in RECIPES:
        raise KeyError(f"unknown recipe {name!r}")
    if graphs._index(seed) < 0:
        raise ValueError(f"the seed must be an integer >= 0, got {seed!r}")
    rec = RECIPES[name]
    if not isinstance(overrides, dict):
        raise TypeError("the config must be a JSON object of parameter overrides")
    params = dict(rec.defaults)
    for key, value in overrides.items():
        if key not in rec.defaults:
            raise KeyError(f"unknown parameter {key!r} for recipe {rec.name}")
        params[key] = value
    for key, value in params.items():
        try:
            _check_value(value, rec.defaults[key], *rec.bounds(key))
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"parameter {key!r}: {exc}") from None
    rec.check(params)
    return rec, params


def run_recipe(name: str, overrides: dict, seed: int, outdir: Path, fmt: str = "csv",
               budget_seconds: float = 600.0) -> dict:
    rec, params = _validate_params(name, overrides, seed)
    return _run_checked(rec, params, seed, outdir, fmt, budget_seconds)


def _run_checked(rec, params, seed, outdir, fmt, budget_seconds) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    writer = OutputWriter(outdir, fmt)
    budget = Budget(budget_seconds)
    assertions = rec.run(params, seed, writer, budget)
    files = writer.flush()
    status = "pass"
    if any(a.status == "fail" for a in assertions):
        status = "fail"
    elif any(a.status == "budget" for a in assertions):
        status = "budget"
    summary = {
        "recipe": rec.name,
        "claim": rec.claim,
        "seed": seed,
        "params": params,
        "assertions": [dict(vars(a)) for a in assertions],
        "status": status,
        "outputs": files,
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    manifest = {
        "recipe": rec.name,
        "format": fmt,
        "tables": {tname: writer.schemas[tname] for tname in writer.tables},
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="Seeded spin-system experiments with machine-readable "
                    "pass/fail summaries.",
    )
    parser.add_argument("recipe", nargs="?", help="recipe name; omit with --list")
    parser.add_argument("--list", action="store_true", help="list recipes and exit")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with parameter overrides")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--budget-seconds", type=float, default=600.0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.list:
        for name, rec in sorted(RECIPES.items()):
            print(f"{name}: {rec.claim}")
        return 0
    if not args.recipe or args.out is None:
        print("error: recipe and --out are required", file=sys.stderr)
        return 2
    overrides = {}
    if args.config is not None:
        try:
            overrides = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    try:
        rec, params = _validate_params(args.recipe, overrides, args.seed)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    summary = _run_checked(rec, params, args.seed, args.out, args.format, args.budget_seconds)
    elapsed = time.monotonic() - started
    print(f"{args.recipe}: {summary['status']} "
          f"({len(summary['assertions'])} assertions, {elapsed:.1f}s)",
          file=sys.stderr)
    return 0 if summary["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
