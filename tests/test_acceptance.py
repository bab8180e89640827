"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with its measured values (run with -s to see them inline).
"""

import math
import time

import numpy as np

from spinlab import _bits, block_dyn, clue, curie_weiss as cw, dac, graphs, ising, measures
from spinlab.cli import run_recipe
from spinlab.measures import (
    CurieWeissMeasure,
    IsingMeasure,
    Magnetization,
    Majority,
    Parity,
    ProductMeasure,
    exact_table,
)
from spinlab.rng import stream
from oracles import average_correlation_by_subset, mean_correlation_by_subset


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_eigenvalue_identity():
    started = time.monotonic()
    g = graphs.cycle(6)
    table = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    rep = block_dyn.eigenclue_verify(table, spec, g, trials=100, rng=stream(101, 0))
    elapsed = time.monotonic() - started
    ok = (rep.residual <= 1e-8
          and rep.max_trial_clue <= rep.lambda_2 + 1e-9
          and elapsed < 60)
    report(1, "second eigenvalue equals maximal expected clue", ok,
           f"lambda2={rep.lambda_2:.6f} residual={rep.residual:.2e} "
           f"max_trial={rep.max_trial_clue:.6f} elapsed={elapsed:.1f}s")


def test_criterion_02_product_measure_bound():
    ok = True
    detail = []
    for n in range(2, 13):
        g = graphs.custom(n, [])
        table = exact_table(ProductMeasure(), g)
        for kind in ("majority", "parity"):
            obs = (Majority() if kind == "majority"
                   else Parity(range(n)))
            vals = obs.table_values(n)
            coef2 = measures.walsh_transform(vals, n) ** 2
            sums = measures.subset_sums(coef2, n)
            var = coef2.sum() - coef2[0]
            for ubits in range(1 << n):
                via_spectrum = (sums[ubits] - coef2[0]) / var
                size = bin(ubits).count("1")
                if via_spectrum > size / n + 1e-12:
                    ok = False
                    detail.append(f"{kind} n={n} U={ubits:b}")
                if kind == "parity" and ubits != (1 << n) - 1 and via_spectrum != 0.0:
                    ok = False
                    detail.append(f"parity nonzero n={n} U={ubits:b}")
            # the squared-coefficient route agrees with the direct
            # conditional-variance route
            if n <= 9:
                for ubits in range(1 << n):
                    direct = clue.clue_exact(table, vals, ubits)
                    if abs(direct - (sums[ubits] - coef2[0]) / var) > 1e-10:
                        ok = False
                        detail.append(f"route mismatch {kind} n={n} U={ubits:b}")
    report(2, "membership-fraction bound for majority and parity, all subsets",
           ok, "; ".join(detail[:3]) or "n=2..12, both routes")


def test_criterion_03_mean_field_moments():
    started = time.monotonic()
    m2 = cw.cw_magnetization_pmf(2000, 0.5).moment(2).value
    ok = abs(m2 - 2.0) <= 0.2
    d1 = cw.cw_magnetization_pmf(4000, 1.0).moment(2).value / math.sqrt(4000)
    d2 = cw.cw_magnetization_pmf(8000, 1.0).moment(2).value / math.sqrt(8000)
    drift = abs(d2 - d1) / d1
    ok &= drift <= 0.10
    worst = 0.0
    for n in (500, 2000, 8000):
        for beta in (0.25, 0.5, 0.75, 1.0):
            ratio = cw.cw_magnetization_pmf(n, beta).moment(4).lebowitz_ratio
            worst = max(worst, ratio)
            ok &= ratio <= 1.0 + 1e-12
    elapsed = time.monotonic() - started
    ok &= elapsed < 60
    report(3, "mean-field second/fourth moment laws", ok,
           f"E[nM2]={m2:.4f} sqrt-n drift={drift:.4f} "
           f"max fourth-ratio={worst:.6f} elapsed={elapsed:.1f}s")


def test_criterion_04_mean_field_entropy():
    ok = True
    details = []
    for n in (100, 1000, 10_000):
        pmfs = {beta: cw.cw_magnetization_pmf(n, beta) for beta in (0.5, 1.0)}
        for pmf in pmfs.values():
            ent, rel = pmf.entropy, pmf.relative_entropy
            ok &= abs(rel.d_bits - ent.deficit_bits) <= 1e-9
            ok &= rel.d_bits <= rel.moment_bound_bits + 1e-9
            ok &= rel.gap_bits >= -1e-12
        deficit_half = pmfs[0.5].entropy.deficit_bits
        ok &= deficit_half <= 0.9
        details.append(f"deficit(0.5,{n})={deficit_half:.3f}")
    scaled = [cw.cw_magnetization_pmf(n, 1.0).entropy.deficit_bits / math.sqrt(n)
              for n in (1000, 2000, 4000, 8000)]
    for a, b in zip(scaled, scaled[1:]):
        ok &= abs(b - a) / a <= 0.10
    report(4, "entropy deficit identities and growth", ok,
           "; ".join(details) + f"; critical deficit/sqrt(n): "
           f"{', '.join(f'{x:.4f}' for x in scaled)}")


def test_criterion_05_mean_field_reconstruction():
    pmf = cw.cw_magnetization_pmf(2000, 1.5)
    c = cw.cw_observed_law(pmf, 200).clue("majority")
    ok = c >= 0.99
    s = cw.cw_observed_law(pmf, 50).guess_success()
    ok &= s >= 0.95
    bound_ok = True
    pmf = cw.cw_magnetization_pmf(1000, 0.5)
    for k in range(1, 101):
        rep = cw.cw_observed_law(pmf, k).iclue()
        bound_ok &= rep.iclue <= rep.bound + 1e-9
    ok &= bound_ok
    r1 = cw.cw_threshold_k(1000, 1.0, 0.5, "majority") / math.sqrt(1000)
    r2 = cw.cw_threshold_k(10_000, 1.0, 0.5, "majority") / math.sqrt(10_000)
    ratio_drift = abs(r2 - r1) / r1
    ok &= ratio_drift <= 0.25
    report(5, "mean-field reconstruction thresholds", ok,
           f"clue(maj|200)={c:.5f} guess(50)={s:.5f} "
           f"info-bound k<=100: {bound_ok} threshold ratios {r1:.3f}/{r2:.3f}")


def test_criterion_06_operator_identities():
    rng = stream(106, 0)
    ok = True
    worst = 0.0
    for inst in range(50):
        n = int(rng.integers(3, 9))
        g = graphs.custom(n, [])
        table = measures.ProbabilityTable(n, rng.dirichlet(np.ones(1 << n)))
        f = rng.standard_normal(1 << n)
        k = int(rng.integers(1, max(2, n // 2)))
        spec = graphs.UniformK(k)
        mvals, _ = clue.normalized_average(table, f, spec, g)
        mu_f, mu_m = table.expectation(f), table.expectation(mvals)
        corr_zm = table.expectation((f - mu_f) * (mvals - mu_m)) / math.sqrt(
            table.variance(f) * table.variance(mvals))
        lhs = corr_zm * mean_correlation_by_subset(table, mvals, f, spec, g)
        rhs = mean_correlation_by_subset(table, f, f, spec, g)
        worst = max(worst, abs(lhs - rhs))
        ok &= abs(lhs - rhs) <= 1e-9
        strange_lhs = average_correlation_by_subset(table, f, spec, g)
        strange_rhs = mean_correlation_by_subset(table, mvals, f, spec, g) ** 2
        worst = max(worst, abs(strange_lhs - strange_rhs), abs(strange_lhs - table.variance(mvals)))
        ok &= abs(strange_lhs - strange_rhs) <= 1e-9
        ok &= abs(strange_lhs - table.variance(mvals)) <= 1e-9
        boost = clue.boost_reconstruction(f, spec, 3, table, g)
        ok &= boost.achieved >= boost.lower_bound - 1e-12
    # the worked two-coordinate instance: members sigma_0 and sigma_1
    g2 = graphs.custom(2, [])
    t2 = exact_table(ProductMeasure(), g2)
    spec2 = graphs.UniformK(1)
    hand = average_correlation_by_subset(t2, Magnetization(), spec2, g2)
    m2, _ = clue.normalized_average(t2, Magnetization(), spec2, g2)
    hand2 = mean_correlation_by_subset(t2, m2, Magnetization(), spec2, g2) ** 2
    ok &= abs(hand - 0.5) <= 1e-12 and abs(hand2 - 0.5) <= 1e-12
    report(6, "subset-averaging operator identities and amplification bound",
           ok, f"50 random systems, worst residual {worst:.2e}, hand value 1/2")


def test_criterion_07_coloring_measure_suite():
    rng = stream(107, 0)
    ok = True

    # moment formulas vs brute force, and the class-size law, exhaustively
    g = graphs.custom(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 3], [1, 4]])
    p = 0.4
    bond_table = []
    for mask in range(1 << g.n_edges):
        o = bin(mask).count("1")
        bond_table.append((mask, p**o * (1 - p) ** (g.n_edges - o)))
    fv = rng.standard_normal(64)
    gv = rng.standard_normal(64)
    labelled = dac.bond_configs(bond_table, g)  # every mask, in mask order
    rep = dac.dac_expectation(fv, labelled, g, g=gv)
    ok &= abs(rep.e_f - rep.direct_e_f) <= 1e-9
    ok &= abs(rep.e_fg - rep.direct_e_fg) <= 1e-9
    for bonds, _ in labelled:
        if dac.class_count(bonds) != 2 ** (6 - bonds.k):
            ok = False
            break

    # bound chain on 50 random centered instances
    chain_ok = True
    for inst in range(50):
        n = int(rng.integers(4, 7))
        edges = [[i, i + 1] for i in range(n - 1)]
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if [u, v] not in edges:
            edges.append([u, v])
        gi = graphs.custom(n, edges)
        masks = rng.integers(0, 1 << gi.n_edges, size=5)
        probs = rng.dirichlet(np.ones(5))
        agg = {}
        for m, q in zip(masks, probs):
            agg[int(m)] = agg.get(int(m), 0.0) + float(q)
        spec = graphs.UniformK(int(rng.integers(1, n)))
        f = rng.standard_normal(1 << n)
        b = dac.dac_clue_upper_bound(f, dac.bond_configs(sorted(agg.items()), gi), spec, gi)
        chain_ok &= b.exact_expected_clue <= b.spectral_bound + 1e-9
        chain_ok &= b.spectral_bound <= b.theorem_bound + 1e-9
    ok &= chain_ok

    # singleton stage equals the cluster-ratio form for the average
    ident_ok = True
    for k in (1, 2, 3):
        b = dac.dac_clue_upper_bound(Magnetization(), labelled, graphs.UniformK(k), g)
        ident_ok &= abs(
            b.singleton_bound_for_magnetization - b.cluster_ratio_bound
        ) <= 1e-9 * max(1.0, b.cluster_ratio_bound)
        ident_ok &= b.exact_expected_clue <= b.spectral_bound + 1e-9
    ok &= ident_ok
    report(7, "coloring-measure moments, class law, and bound chain", ok,
           "exhaustive bond masks on 7 edges; 50 random bound instances")


def test_criterion_08_fk_cluster_bound(tmp_path):
    started = time.monotonic()
    summary = run_recipe("fk-bound", {}, 108, tmp_path / "fk-bound")
    elapsed = time.monotonic() - started
    ok = summary["status"] == "pass" and elapsed < 300
    detail = "; ".join(a["detail"] for a in summary["assertions"])
    report(8, "Monte Carlo clue below the cluster-moment bound", ok,
           f"elapsed={elapsed:.0f}s " + detail[:160])


def test_criterion_09_critical_sublattice(tmp_path):
    started = time.monotonic()
    summary = run_recipe("ising2d-sublattice", {}, 109, tmp_path / "sublattice")
    elapsed = time.monotonic() - started
    ok = summary["status"] == "pass" and elapsed <= 600
    report(9, "critical sublattice averages track the full average", ok,
           f"elapsed={elapsed:.0f}s "
           + "; ".join(a["detail"] for a in summary["assertions"] if a["detail"])[:160])


def test_criterion_10_supercritical_giant(tmp_path):
    summary = run_recipe("supercrit-giant", {}, 110, tmp_path / "supercrit")
    ok = summary["status"] == "pass"
    report(10, "ordered-phase giant cluster, sparse guess, fluctuations", ok,
           "; ".join(a["detail"] for a in summary["assertions"]))


def test_criterion_11_path_coupling(tmp_path):
    started = time.monotonic()
    out = tmp_path / "tiled"
    contraction = run_recipe("tiled-coupling", {}, 111, out / "warm")
    coin = run_recipe(
        "tiled-coupling", {"beta": 0.0, "trials": 3000}, 111, out / "coin")
    elapsed = time.monotonic() - started
    ok = contraction["status"] == "pass" and coin["status"] == "pass"
    report(11, "tiled-chain contraction improves with block size", ok,
           f"elapsed={elapsed:.0f}s "
           + "; ".join(a["detail"] for a in contraction["assertions"])[:200])


def _tv_glauber(g, beta, J, sweeps, seed, frozen=None, start=None):
    table = exact_table(IsingMeasure(beta, J=J), g)
    par = ising.IsingParams(beta, J=J)
    rng = stream(112, seed)
    n = g.n_vertices
    if frozen is None:
        target = table.p
        state = ising.ChainState(rng.choice(_bits.SPINS, size=n), 0, rng)
    else:
        idx = _bits.config_indices(n)
        fbits = _bits.mask_to_bits(frozen)
        key = _bits.config_to_index(start) & fbits
        sel = (idx & np.uint64(fbits)).astype(np.int64) == key
        target = np.where(sel, table.p, 0.0)
        target = target / target.sum()
        state = ising.ChainState(start.copy(), rng=rng)
    ising.glauber_sweep(state, g, par, frozen=frozen, sweeps=200)
    counts = np.zeros(1 << n)
    for _ in range(sweeps):
        ising.glauber_sweep(state, g, par, frozen=frozen)
        counts[_bits.config_to_index(state.config)] += 1
    return 0.5 * np.abs(counts / counts.sum() - target).sum()


def _tv_sw(g, beta, J, steps, seed):
    table = exact_table(IsingMeasure(beta, J=J), g)
    par = ising.IsingParams(beta, J=J)
    rng = stream(113, seed)
    cfg = ising.sw_chain(g, par, rng, 100)
    counts = np.zeros(1 << g.n_vertices)
    for _ in range(steps):
        _, cfg = ising.swendsen_wang_step(cfg, g, par, rng)
        counts[_bits.config_to_index(cfg)] += 1
    return 0.5 * np.abs(counts / counts.sum() - table.p).sum()


def test_criterion_12_samplers_vs_exact_oracle():
    fixtures = [
        (graphs.cycle(6), 0.4, 1.0),
        (graphs.cycle(8), 0.3, 1.0),
        (graphs.complete(5), 0.8, 0.2),  # mean-field normalization
    ]
    ok = True
    details = []
    for i, (g, beta, J) in enumerate(fixtures):
        tv_g = _tv_glauber(g, beta, J, 600_000, i)
        tv_s = _tv_sw(g, beta, J, 350_000, i)
        details.append(f"n={g.n_vertices}: glauber={tv_g:.4f} sw={tv_s:.4f}")
        ok &= tv_g <= 0.02 and tv_s <= 0.02
    # frozen-spin conditional law
    g6 = graphs.cycle(6)
    frozen = _bits.indices_to_mask([0, 3], 6)
    start = np.array([1, 1, -1, -1, 1, 1], dtype=np.int8)
    tv_f = _tv_glauber(g6, 0.4, 1.0, 400_000, 9, frozen=frozen, start=start)
    details.append(f"frozen={tv_f:.4f}")
    ok &= tv_f <= 0.02
    # two-point identity through the bond layer
    g2 = graphs.torus(2, 3)
    beta = 0.5
    table = exact_table(IsingMeasure(beta), g2)
    idx = _bits.config_indices(9)
    exact = table.expectation(_bits.spins_of(idx, 0) * _bits.spins_of(idx, 4))
    rng = stream(112, 99)
    par = ising.IsingParams(beta)
    hits, n_samp = 0, 6000
    cfg = None
    for i in range(n_samp):
        cfg = ising.sw_chain(g2, par, rng, 100 if i == 0 else 4, cfg)
        labels = ising.fk_clusters(cfg[None], g2, par, rng)[0]
        hits += labels[0] == labels[4]
    freq = hits / n_samp
    se = math.sqrt(freq * (1 - freq) / n_samp)
    details.append(f"two-point {freq:.4f} vs {exact:.4f} (se {se:.4f})")
    ok &= abs(freq - exact) <= 3 * se + 1e-9
    report(12, "sampler stationary laws match exact tables", ok,
           "; ".join(details))


MINI_CONFIGS = {
    "cw-clue": {"n": 300, "ks": [5, 30]},
    "cw-entropy": {"ns": [100, 500]},
    "cw-guess": {"n": 100, "ks": [1, 10]},
    "en-moments": {"ns": [500, 1000]},
    "eigenclue-verify": {"trials": 30},
    "dirichlet-cheeger": {"events": 8},
    "tiled-coupling": {"side": 16, "Ls": [3], "trials": 40, "warmup_steps": 10},
    "dac-identities": {"instances": 4},
    "dac-bounds": {"instances": 4},
    "fk-bound": {"betas": [0.3], "fk_samples": 40, "u_draws": 3, "outer": 6,
                 "inner": 4, "inner_sweeps": 60, "sw_burnin": 10},
    "ising2d-sublattice": {"side": 16, "samples": 120, "burnin": 60,
                           "meshes": [2, 4], "min_ess": 20, "bootstrap": 60},
    "supercrit-giant": {"side": 8, "samples": 48, "sw_burnin": 40, "thin": 5},
    "ffiid-demo": {"draws": 4000},
}


def test_criterion_13_reproducibility(tmp_path):
    ok = True
    bad = []
    for name, params in MINI_CONFIGS.items():
        outs = []
        for rerun in (1, 2):
            outdir = tmp_path / f"{name}-run{rerun}"
            run_recipe(name, params, 1300, outdir)
            outs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
        if outs[0] != outs[1]:
            ok = False
            bad.append(name)
    report(13, "byte-identical outputs across reruns, all recipes",
           ok, ("mismatch: " + ", ".join(bad)) if bad else
           f"{len(MINI_CONFIGS)} recipes x 2 runs")
