"""Named, seeded experiment recipes with CSV/JSON emission.

Usage::

    spinlab <recipe> --config params.json --seed 7 --out results/ --format csv

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage error.
Outputs are deterministic functions of (config, seed) and never contain
wall-clock data, so reruns and different thread counts are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _bits, block_dyn, clue as clue_mod, curie_weiss as cw, dac, graphs, ising, measures
from .rng import parallel_map, stream


# ---------------------------------------------------------------------------
# infrastructure


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()
        self.hit = False

    def exceeded(self) -> bool:
        if not self.hit and time.monotonic() - self.start > self.seconds:
            self.hit = True
        return self.hit


@dataclass
class Assertion:
    name: str
    status: str  # pass | fail | budget
    detail: str = ""

    def as_doc(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def check(name: str, ok: bool, detail: str = "") -> Assertion:
    return Assertion(name, "pass" if ok else "fail", detail)


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
    name: str
    claim: str
    defaults: dict
    run: object  # callable(params, seed, writer, budget, threads) -> list[Assertion]


RECIPES: dict[str, Recipe] = {}


def recipe(name: str, claim: str, defaults: dict):
    def wrap(fn):
        RECIPES[name] = Recipe(name, claim, defaults, fn)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# mean-field recipes


@recipe(
    "cw-clue",
    "Exact mean-field reconstruction curves: explained-variance and "
    "information shares of majority/magnetization are monotone in the "
    "observation count, and the information share obeys the entropy bound.",
    {"n": 2000, "betas": [0.5, 1.0, 1.5], "ks": [10, 20, 50, 100, 200, 500]},
)
def run_cw_clue(params, seed, writer, budget, threads):
    n = params["n"]
    writer.table("cw_clue", [
        "n", "beta", "k", "clue_m", "clue_maj", "iclue_maj",
        "guess_success", "entropy_deficit",
    ])
    checks = []
    for beta in params["betas"]:
        deficit = cw.cw_entropy(n, beta).deficit_bits
        prev = -1.0
        monotone = True
        for k in sorted(params["ks"]):
            if budget.exceeded():
                checks.append(Assertion("budget", "budget", f"stopped at beta={beta}, k={k}"))
                return checks
            cm = cw.cw_exact_clue(n, beta, k, "magnetization")
            cj = cw.cw_exact_clue(n, beta, k, "majority")
            ic = cw.cw_iclue(n, beta, k)
            gs = cw.cw_majority_guess_success(n, beta, k)
            writer.row("cw_clue", n, beta, k, cm, cj, ic.iclue, gs, deficit)
            monotone &= cm >= prev - 1e-12
            prev = cm
            checks.append(check(
                f"iclue-entropy-bound-beta{beta}-k{k}", ic.iclue <= ic.bound + 1e-9,
                f"iclue={ic.iclue!r} bound={ic.bound!r}",
            ))
        checks.append(check(f"clue-monotone-in-k-beta{beta}", monotone))
    return checks


@recipe(
    "cw-entropy",
    "Exact mean-field entropy: the total-entropy deficit equals the "
    "relative entropy against fair coins and is dominated by the "
    "second-moment bound with a nonnegative normalizer gap.",
    {"ns": [100, 1000, 10000], "betas": [0.5, 1.0]},
)
def run_cw_entropy(params, seed, writer, budget, threads):
    writer.table("cw_entropy", [
        "n", "beta", "entropy_bits", "deficit_bits", "d_bits",
        "moment_bound_bits", "gap_bits",
    ])
    checks = []
    for beta in params["betas"]:
        for n in params["ns"]:
            ent = cw.cw_entropy(n, beta)
            rel = cw.cw_relative_entropy(n, beta)
            writer.row("cw_entropy", n, beta, ent.entropy_bits, ent.deficit_bits,
                       rel.d_bits, rel.moment_bound_bits, rel.gap_bits)
            checks.append(check(
                f"identity-deficit-equals-d-n{n}-beta{beta}",
                abs(ent.deficit_bits - rel.d_bits) <= 1e-9 * max(1.0, rel.d_bits),
            ))
            checks.append(check(
                f"gap-nonnegative-n{n}-beta{beta}", rel.gap_bits >= -1e-12))
            checks.append(check(
                f"moment-bound-n{n}-beta{beta}",
                rel.d_bits <= rel.moment_bound_bits + 1e-9,
            ))
    return checks


@recipe(
    "cw-guess",
    "Majority of an observed sample predicts the global majority with the "
    "exactly computed success probability.",
    {"n": 2000, "betas": [0.5, 1.5], "ks": [1, 10, 50, 200]},
)
def run_cw_guess(params, seed, writer, budget, threads):
    writer.table("cw_guess", ["n", "beta", "k", "success"])
    checks = []
    for beta in params["betas"]:
        for k in sorted(params["ks"]):
            s = cw.cw_majority_guess_success(params["n"], beta, k)
            writer.row("cw_guess", params["n"], beta, k, s)
            checks.append(check(
                f"success-in-range-beta{beta}-k{k}", 0.0 <= s <= 1.0 + 1e-12))
    return checks


@recipe(
    "en-moments",
    "Exact mean-field moments: the scaled second moment approaches its "
    "known limits and the fourth moment never exceeds three times the "
    "squared second moment.",
    {"ns": [2000, 4000, 8000], "betas": [0.5, 1.0]},
)
def run_en_moments(params, seed, writer, budget, threads):
    writer.table("en_moments", [
        "n", "beta", "second_moment_nm2", "sqrtn_m2", "fourth_ratio",
    ])
    checks = []
    for beta in params["betas"]:
        for n in params["ns"]:
            m2 = cw.cw_moment(n, beta, 2).value
            m4 = cw.cw_moment(n, beta, 4)
            writer.row("en_moments", n, beta, m2, m2 / math.sqrt(n),
                       m4.lebowitz_ratio)
            checks.append(check(
                f"fourth-moment-bound-n{n}-beta{beta}",
                m4.lebowitz_ratio <= 1.0 + 1e-12,
                f"ratio={m4.lebowitz_ratio!r}",
            ))
    return checks


# ---------------------------------------------------------------------------
# block-dynamics recipes


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
)
def run_eigenclue(params, seed, writer, budget, threads):
    g = graphs.build_graph(params["graph"])
    table = measures.exact_table(measures.IsingMeasure(params["beta"]), g)
    spec = graphs.SubsetSpec.from_json(params["spec"], g.n_vertices)
    rep = block_dyn.eigenclue_verify(table, spec, g, params["trials"], stream(seed, 0))
    writer.table("eigenclue", ["lambda_2", "clue_second_eigenfunction",
                               "residual", "max_trial_clue"])
    writer.row("eigenclue", rep.lambda_2, rep.clue_of_eigenfunction,
               rep.residual, rep.max_trial_clue)
    return [
        check("eigenfunction-attains-lambda2", rep.residual <= 1e-8,
              f"residual={rep.residual!r}"),
        check("trials-below-lambda2",
              rep.max_trial_clue <= rep.lambda_2 + 1e-9),
    ]


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
)
def run_dirichlet_cheeger(params, seed, writer, budget, threads):
    g = graphs.build_graph(params["graph"])
    table = measures.exact_table(measures.IsingMeasure(params["beta"]), g)
    spec = graphs.SubsetSpec.from_json(params["spec"], g.n_vertices)
    op = block_dyn.block_operator(table, spec, g)
    rep = block_dyn.spectrum(op)
    rng = stream(seed, 0)
    writer.table("cheeger", ["event", "mu", "phi", "expected_clue", "flux_floor"])
    checks = []
    size = 1 << table.n
    for e in range(params["events"]):
        ind = np.zeros(size)
        members = rng.choice(size, size=rng.integers(1, size // 2), replace=False)
        ind[members] = 1.0
        if table.p @ ind > 0.5 or table.p @ ind <= 0:
            ind = 1.0 - ind
        mu_e = float(table.p @ ind)
        if mu_e > 0.5 or mu_e <= 0:
            continue
        phi = block_dyn.bottleneck_ratio(op, ind)
        ec = clue_mod.expected_clue(table, ind, spec, g)
        writer.row("cheeger", e, mu_e, phi, ec, 1.0 - 2.0 * phi)
        checks.append(check(
            f"flux-floor-event{e}", 1.0 - 2.0 * phi <= ec + 1e-9,
            f"1-2phi={1 - 2 * phi!r} clue={ec!r}",
        ))
    sweep = block_dyn.sweep_cut_bottleneck(op, rep.second_eigenfunction)
    writer.table("cheeger_summary", ["lambda_2", "gap", "sweep_cut_phi"])
    writer.row("cheeger_summary", rep.lambda_2, rep.gap, sweep)
    checks.append(check(
        "sweep-cut-certifies-gap", sweep**2 / 2.0 <= rep.gap + 1e-12,
        f"phi^2/2={sweep ** 2 / 2!r} gap={rep.gap!r}",
    ))
    return checks


@recipe(
    "tiled-coupling",
    "One-step contraction of the tiled block chain: a seeded disagreement "
    "dies out faster for larger blocks; at infinite temperature the "
    "survival probability is the exact complement-coverage fraction.",
    {
        "side": 60, "d": 2, "beta": 0.3, "Ls": [5, 10, 15], "trials": 2400,
        "warmup_steps": 60, "resample_sweeps": 40, "thin": 3, "chunks": 16,
    },
)
def run_tiled_coupling(params, seed, writer, budget, threads):
    g = graphs.torus(params["d"], params["side"])
    writer.table("tiled_coupling", ["beta", "L", "eta1_mean", "eta1_se", "trials"])
    checks = []
    beta = params["beta"]
    results = []
    for L in params["Ls"]:
        if budget.exceeded():
            checks.append(Assertion("budget", "budget", f"stopped before L={L}"))
            return checks
        trials = params["trials"]

        def one_chunk(args, L=L):
            chunk_idx, count = args
            rng = stream(seed, L, chunk_idx)
            rep = block_dyn.path_coupling_rate(
                g, beta, L, count, rng,
                warmup_steps=params["warmup_steps"],
                resample_sweeps=params["resample_sweeps"],
                thin=params["thin"],
            )
            return rep.eta1_mean, rep.eta1_se, count

        # Work is split into a fixed chunk count (not the thread count), so
        # outputs are identical however many workers run them. Each chunk
        # runs its own chain; the batch-means spread across chunks gives an
        # honest standard error even with within-chunk correlation.
        n_chunks = min(params["chunks"], trials)
        base = trials // n_chunks
        sizes = [base + (1 if i < trials % n_chunks else 0) for i in range(n_chunks)]
        chunks = [(i, c) for i, c in enumerate(sizes) if c > 0]
        parts = parallel_map(one_chunk, chunks, threads)
        total = sum(c for _, _, c in parts)
        mean = sum(m * c for m, _, c in parts) / total
        if len(parts) > 1:
            between = sum((c / total) * (m - mean) ** 2 for m, _, c in parts)
            se = math.sqrt(between / (len(parts) - 1))
        else:
            se = parts[0][1]
        writer.row("tiled_coupling", beta, L, mean, se, total)
        results.append((L, mean, se))
    if beta == 0.0:
        for L, mean, se in results:
            target = 1.0 - (L / (L + 3)) ** params["d"]
            checks.append(check(
                f"coin-flip-survival-L{L}", abs(mean - target) <= 3 * se + 1e-12,
                f"mean={mean!r} target={target!r} se={se!r}",
            ))
    else:
        for (l1, m1, s1), (l2, m2, s2) in zip(results, results[1:]):
            gap = m1 - m2
            checks.append(check(
                f"contraction-improves-L{l1}-to-L{l2}",
                gap > 2.0 * math.sqrt(s1**2 + s2**2),
                f"drop={gap!r} combined_se={math.sqrt(s1 ** 2 + s2 ** 2)!r}",
            ))
    return checks


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


@recipe(
    "dac-identities",
    "Coloring-measure moment formulas match brute-force enumeration; each "
    "parity class collects exactly 2^(V-k) subsets; class feasibility "
    "matches literal member enumeration.",
    {"instances": 20, "n": 5, "extra_edges": 3, "bond_support": 6},
)
def run_dac_identities(params, seed, writer, budget, threads):
    checks = []
    writer.table("dac_identities", [
        "instance", "e_f_formula", "e_f_direct", "e_fg_formula", "e_fg_direct",
    ])
    n = params["n"]
    for inst in range(params["instances"]):
        rng = stream(seed, 7, inst)
        g, bond_table, fv = _random_dac_instance(params, rng)
        gv = rng.standard_normal(1 << n)
        rep = dac.dac_expectation(fv, bond_table, g, g=gv)
        writer.row("dac_identities", inst, rep.e_f, rep.direct_e_f, rep.e_fg,
                   rep.direct_e_fg)
        checks.append(check(
            f"moment-formulas-match-{inst}",
            abs(rep.e_f - rep.direct_e_f) <= 1e-9 * max(1, abs(rep.direct_e_f))
            and abs(rep.e_fg - rep.direct_e_fg) <= 1e-9 * max(1, abs(rep.direct_e_fg)),
        ))
        # class-size law and feasibility semantics on one bond mask
        bond_bits = bond_table[rng.integers(len(bond_table))][0]
        bonds = dac.clusters(g, _bits.bits_to_mask(bond_bits, g.n_edges))
        checks.append(check(
            f"class-count-{inst}",
            dac.class_count(bonds) == 2 ** (n - bonds.k),
        ))
        cf = dac.dac_coefficients(fv, bonds)
        ubits = int(rng.integers(0, 1 << n))
        ok = True
        for profile in range(1 << bonds.k):
            rep_bits = cf.representative(profile)
            literal = any(
                (s | ubits) == ubits
                for s in _class_members(rep_bits, bonds, n)
            )
            ok &= literal == dac.class_within(profile, bonds, ubits)
        checks.append(check(f"class-feasibility-{inst}", ok))
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
)
def run_dac_bounds(params, seed, writer, budget, threads):
    checks = []
    writer.table("dac_bounds", [
        "instance", "exact", "spectral", "theorem", "cluster_ratio",
    ])

    def one(inst):
        g, bond_table, fv = _random_dac_instance(params, stream(seed, 8, inst))
        spec = graphs.UniformK(params["spec_k"])
        rep = dac.dac_clue_upper_bound(fv, bond_table, spec, g)
        repm = dac.dac_clue_upper_bound(
            measures.Magnetization(), bond_table, spec, g)
        return inst, rep, repm

    for inst, rep, repm in parallel_map(one, range(params["instances"]), threads):
        writer.row("dac_bounds", inst, rep.exact_expected_clue, rep.spectral_bound,
                   rep.theorem_bound, rep.cluster_ratio_bound)
        checks.append(check(
            f"bound-chain-{inst}",
            rep.exact_expected_clue <= rep.spectral_bound + 1e-9
            and rep.spectral_bound <= rep.theorem_bound + 1e-9,
            f"exact={rep.exact_expected_clue!r} spectral={rep.spectral_bound!r} "
            f"theorem={rep.theorem_bound!r}",
        ))
        checks.append(check(
            f"magnetization-singleton-identity-{inst}",
            abs(repm.singleton_bound_for_magnetization - repm.cluster_ratio_bound)
            <= 1e-9 * max(1.0, repm.cluster_ratio_bound),
            f"singleton={repm.singleton_bound_for_magnetization!r} "
            f"ratio={repm.cluster_ratio_bound!r}",
        ))
    return checks


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
)
def run_fk_bound(params, seed, writer, budget, threads):
    g = graphs.torus(2, params["side"])
    spec = graphs.UniformK(params["spec_k"])
    writer.table("fk_bound", [
        "beta", "clue_mc", "clue_se", "ratio_bound", "ratio_se",
        "max_cluster_bound",
    ])
    checks = []
    for bi, beta in enumerate(params["betas"]):
        if budget.exceeded():
            checks.append(Assertion("budget", "budget", f"stopped before beta={beta}"))
            return checks
        bound = dac.fk_magnetization_bound(
            g, beta, spec, params["fk_samples"], stream(seed, 20, bi),
            sweeps=params["fk_sweeps"],
        )
        sampler = ising.ConditionalGibbsSampler(
            g, ising.IsingParams(beta),
            sw_burnin=params["sw_burnin"], sweeps_between=params["inner_sweeps"],
        )

        def one_draw(r, beta=beta, sampler=sampler, bi=bi):
            rng = stream(seed, 21, bi, r)
            mask = graphs.sample_subset(spec, g, rng)
            est = clue_mod.clue_mc(
                sampler, measures.Magnetization(), mask,
                outer=params["outer"], inner=params["inner"], rng=rng, bootstrap=50,
            )
            return est.value

        values = np.array(parallel_map(one_draw, range(params["u_draws"]), threads))
        mc = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(len(values)))
        writer.row("fk_bound", beta, mc, se, bound.ratio_bound, bound.ratio_se,
                   bound.max_cluster_bound)
        comb = math.sqrt(se**2 + bound.ratio_se**2)
        checks.append(check(
            f"clue-below-cluster-ratio-beta{beta:.6g}",
            mc <= bound.ratio_bound + 3 * comb,
            f"clue={mc!r} rhs={bound.ratio_bound!r} combined_se={comb!r}",
        ))
    return checks


# ---------------------------------------------------------------------------
# lattice Monte Carlo recipes


def _integrated_autocorr(x: np.ndarray) -> float:
    x = x - x.mean()
    denom = float(x @ x)
    if denom <= 0:
        return 1.0
    tau = 1.0
    for t in range(1, len(x) // 2):
        rho = float(x[:-t] @ x[t:]) / denom
        if rho < 0.05:
            break
        tau += 2.0 * rho
    return tau


@recipe(
    "ising2d-sublattice",
    "At the planar critical point the average magnetization correlates "
    "almost perfectly with coarse sublattice averages, nonincreasing in "
    "the mesh.",
    {
        "side": 64, "beta": None, "meshes": [2, 4, 8, 16], "samples": 1200,
        "thin": 3, "burnin": 300, "min_ess": 200, "corr_floor": 0.9,
        "bootstrap": 200,
    },
)
def run_sublattice(params, seed, writer, budget, threads):
    side = params["side"]
    beta = params["beta"] if params["beta"] is not None else ising.BETA_C_2D
    g = graphs.torus(2, side)
    par = ising.IsingParams(beta)
    rng = stream(seed, 30)
    cfg = rng.choice(np.array([-1, 1], dtype=np.int8), size=g.n_vertices)
    for _ in range(params["burnin"]):
        _, cfg = ising.swendsen_wang_step(cfg, g, par, rng)
    coords = np.unravel_index(np.arange(side * side), (side, side))
    sub_idx = {
        s: np.flatnonzero((coords[0] % s == 0) & (coords[1] % s == 0))
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
        for _ in range(params["thin"]):
            _, cfg = ising.swendsen_wang_step(cfg, g, par, rng)
        m_full[i] = cfg.mean()
        for s in params["meshes"]:
            m_sub[s][i] = cfg[sub_idx[s]].mean()
    tau = _integrated_autocorr(m_full)
    ess = N / tau
    boot = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(31,))))
    writer.table("sublattice", ["mesh", "sublattice_size", "corr", "corr_se"])
    results = []
    for s in params["meshes"]:
        c = float(np.corrcoef(m_full, m_sub[s])[0, 1])
        reps = np.empty(params["bootstrap"])
        for b in range(params["bootstrap"]):
            pick = boot.integers(0, N, size=N)
            reps[b] = np.corrcoef(m_full[pick], m_sub[s][pick])[0, 1]
        se = float(reps.std(ddof=1))
        writer.row("sublattice", s, len(sub_idx[s]), c, se)
        results.append((s, c, se))
    writer.table("sublattice_summary", ["beta", "samples", "ess"])
    writer.row("sublattice_summary", beta, N, ess)
    checks = [] if budget_note is None else [budget_note]
    checks += [
        check("effective-samples", ess >= params["min_ess"], f"ess={ess!r}"),
        check("finest-mesh-correlation",
              results[0][1] >= params["corr_floor"],
              f"corr={results[0][1]!r}"),
    ]
    for (s1, c1, e1), (s2, c2, e2) in zip(results, results[1:]):
        checks.append(check(
            f"nonincreasing-mesh{s1}-to-{s2}",
            c2 <= c1 + 2.0 * math.sqrt(e1**2 + e2**2),
            f"corr{s1}={c1!r} corr{s2}={c2!r}",
        ))
    return checks


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
)
def run_supercrit(params, seed, writer, budget, threads):
    g = graphs.torus(2, params["side"])
    n = g.n_vertices
    par = ising.IsingParams(params["beta"])
    N = params["samples"]

    def one_chunk(args):
        chunk_idx, count = args
        rng = stream(seed, 40, chunk_idx)
        cfg = None
        rows = []
        for i in range(count):
            bonds = ising.fk_sample(
                g, par, rng,
                sweeps=params["sw_burnin"] if cfg is None else params["thin"],
                config=cfg,
            )
            cfg = ising.edwards_sokal_color(bonds, rng)
            mask = rng.random(n) < params["bern_p"]
            guess_hit = None
            if mask.any():
                guess = clue_mod.majority_guess(cfg, mask)
                maj = 1 if cfg.sum() > 0 else -1
                guess_hit = guess == maj
            rows.append((
                float(bonds.cluster_sizes().max()), float(cfg.sum()), guess_hit,
            ))
        return rows

    # Fixed chunk count keeps outputs independent of the worker count.
    n_chunks = min(params["chunks"], N)
    base = N // n_chunks
    sizes = [base + (1 if i < N % n_chunks else 0) for i in range(n_chunks)]
    chunks = [(i, c) for i, c in enumerate(sizes) if c > 0]
    rows = [r for part in parallel_map(one_chunk, chunks, threads) for r in part]
    giants = np.array([r[0] for r in rows])
    sums = np.array([r[1] for r in rows])
    hits = [r[2] for r in rows if r[2] is not None]
    giant_freq = float(np.mean(giants >= params["giant_fraction"] * n))
    guess_freq = float(np.mean(hits)) if hits else math.nan
    pz_freq = float(np.mean(np.abs(sums) >= params["pz_coefficient"]
                            * math.sqrt(np.mean(sums**2))))
    writer.table("supercrit_giant", [
        "beta", "samples", "giant_freq", "guess_freq", "fluctuation_freq",
    ])
    writer.row("supercrit_giant", params["beta"], len(rows), giant_freq,
               guess_freq, pz_freq)
    return [
        check("giant-cluster-frequency", giant_freq >= params["giant_floor"],
              f"freq={giant_freq!r}"),
        check("sparse-majority-guess", guess_freq >= params["guess_floor"],
              f"freq={guess_freq!r}"),
        check("macroscopic-fluctuations", pz_freq >= params["pz_floor"],
              f"freq={pz_freq!r}"),
    ]


@recipe(
    "ffiid-demo",
    "The first-repeated-pair scan on a cycle: forbidden three-spin "
    "alternation patterns appear only on the alternating-source error "
    "branch, whose frequency matches 2^(1-cycle length).",
    {"n_half": 3, "draws": 20000},
)
def run_ffiid_demo(params, seed, writer, budget, threads):
    n = 2 * params["n_half"]
    rng = stream(seed, 50)
    draws = params["draws"]
    error_count = 0
    forbidden_off_error = 0
    for _ in range(draws):
        sigma, omega = measures.sample_ffiid_parity_cycle(
            params["n_half"], rng, return_source=True)
        alternating = bool(np.all(omega != np.roll(omega, -1)))
        error_count += alternating
        if not alternating:
            trip = sigma * np.roll(sigma, -1)
            # pattern -+- or +-+ at position i means sign flips at i and i+1
            flips = trip == -1
            if np.any(flips & np.roll(flips, -1)):
                forbidden_off_error += 1
    p_err = 2.0 ** (1 - n)
    se = math.sqrt(p_err * (1 - p_err) / draws)
    freq = error_count / draws
    writer.table("ffiid_demo", [
        "cycle_length", "draws", "error_branch_freq", "expected_error_freq",
        "forbidden_patterns_off_error",
    ])
    writer.row("ffiid_demo", n, draws, freq, p_err, forbidden_off_error)
    return [
        check("no-forbidden-patterns-off-error", forbidden_off_error == 0),
        check("error-branch-frequency", abs(freq - p_err) <= 4 * se + 1e-12,
              f"freq={freq!r} expected={p_err!r}"),
    ]


# ---------------------------------------------------------------------------
# driver


def _validate_params(name: str, overrides: dict) -> tuple[Recipe, dict]:
    """Resolve the recipe and its parameters, building any graph and subset
    spec they describe, so that bad configs fail before any output."""
    if name not in RECIPES:
        raise KeyError(f"unknown recipe {name!r}")
    rec = RECIPES[name]
    params = dict(rec.defaults)
    for key, value in overrides.items():
        if key == "budget_seconds":
            continue
        if key not in rec.defaults:
            raise KeyError(f"unknown parameter {key!r} for recipe {rec.name}")
        params[key] = value
    if "graph" in params:
        g = graphs.build_graph(params["graph"])
        if "spec" in params:
            graphs.revealment(graphs.SubsetSpec.from_json(params["spec"], g.n_vertices), g)
    return rec, params


def run_recipe(
    name: str,
    overrides: dict,
    seed: int,
    outdir: Path,
    fmt: str = "csv",
    threads: int = 1,
    budget_seconds: float = 600.0,
) -> dict:
    rec, params = _validate_params(name, overrides)
    outdir.mkdir(parents=True, exist_ok=True)
    writer = OutputWriter(outdir, fmt)
    budget = Budget(float(overrides.get("budget_seconds", budget_seconds)))
    assertions = rec.run(params, seed, writer, budget, threads)
    files = writer.flush()
    status = "pass"
    if any(a.status == "fail" for a in assertions):
        status = "fail"
    elif any(a.status == "budget" for a in assertions):
        status = "budget"
    summary = {
        "recipe": name,
        "claim": rec.claim,
        "seed": seed,
        "params": params,
        "assertions": [a.as_doc() for a in assertions],
        "status": status,
        "outputs": files,
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    manifest = {
        "recipe": name,
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
    parser.add_argument("--threads", type=int, default=1)
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
        _validate_params(args.recipe, overrides)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        summary = run_recipe(
            args.recipe, overrides, args.seed, args.out, args.format,
            args.threads, args.budget_seconds,
        )
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    print(f"{args.recipe}: {summary['status']} "
          f"({len(summary['assertions'])} assertions, {elapsed:.1f}s)",
          file=sys.stderr)
    return 0 if summary["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
