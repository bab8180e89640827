import numpy as np
import pytest

from spinlab import _bits, clue, dac, graphs, ising, measures
from spinlab.measures import (
    IsingMeasure,
    Magnetization,
    Majority,
    Parity,
    SingleSpin,
    exact_table,
)
from spinlab.rng import stream


def bernoulli_bond_table(g, p):
    m = g.n_edges
    table = []
    for mask in range(1 << m):
        o = bin(mask).count("1")
        table.append((mask, p**o * (1 - p) ** (m - o)))
    return table


def test_clusters_examples():
    g = graphs.custom(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    empty = dac.clusters(g, [False] * 4)
    assert empty.k == 5
    assert dac.class_count(empty) == 1
    spanning = dac.clusters(g, [True] * 4)
    assert spanning.k == 1
    assert dac.class_count(spanning) == 16
    two = dac.clusters(graphs.custom(4, [[0, 1], [1, 2], [2, 3]]),
                       [True, False, True])
    assert two.k == 2
    assert dac.class_count(two) == 4


def test_class_count_exhaustive():
    # every bond mask on a small graph: the number of subsets per parity
    # class is 2^(n-k), checked against a direct orbit count
    g = graphs.custom(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 3]])
    rng = stream(31, 0)
    f = rng.standard_normal(32)
    for mask in range(1 << g.n_edges):
        bonds = dac.clusters(g, _bits.bits_to_mask(mask, g.n_edges))
        assert dac.class_count(bonds) == 2 ** (5 - bonds.k)
        dac.dac_coefficients(f, bonds)  # internal equal-size assertion


def test_coefficients_empty_bonds_are_plain_walsh():
    g = graphs.custom(4, [[0, 1], [2, 3]])
    rng = stream(31, 1)
    f = rng.standard_normal(16)
    bonds = dac.clusters(g, [False, False])
    cf = dac.dac_coefficients(f, bonds)
    plain = measures.walsh_transform(f, 4)
    # classes are singleton subsets; profile bit j is membership of vertex j
    assert np.allclose(np.sort(cf.coefficients), np.sort(plain), atol=1e-12)


def test_coefficients_spanning_single_spin():
    g = graphs.custom(3, [[0, 1], [1, 2]])
    bonds = dac.clusters(g, [True, True])
    cf = dac.dac_coefficients(SingleSpin(0), bonds)
    assert cf.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert cf.coefficients[1] == pytest.approx(1.0, abs=1e-12)


def test_coefficients_magnetization_cluster_sizes():
    g = graphs.custom(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    bonds = dac.clusters(g, [True, True, False, True])  # clusters {0,1,2},{3,4}
    cf = dac.dac_coefficients(Magnetization(), bonds)
    # odd-in-first-cluster class carries 3/5; odd-in-second 2/5
    assert cf.coefficients[0b01] == pytest.approx(3 / 5)
    assert cf.coefficients[0b10] == pytest.approx(2 / 5)
    assert cf.coefficients[0b00] == pytest.approx(0.0, abs=1e-12)
    assert cf.coefficients[0b11] == pytest.approx(0.0, abs=1e-12)


def test_representative_and_profile_roundtrip():
    g = graphs.custom(4, [[0, 1], [2, 3]])
    bonds = dac.clusters(g, [True, True])
    cf = dac.dac_coefficients(np.arange(16.0), bonds)
    for profile in range(4):
        rep = cf.representative(profile)
        assert cf.profile_of(rep) == profile


def test_dac_expectation_point_mass():
    g = graphs.custom(2, [[0, 1]])
    f = Parity([0, 1])
    rep = dac.dac_expectation(f, [(0b1, 1.0)], g, g=f)
    assert rep.e_fg == pytest.approx(1.0, abs=1e-12)
    assert rep.e_f == pytest.approx(1.0, abs=1e-12)


def test_dac_expectation_odd_function_vanishes():
    g = graphs.custom(4, [[0, 1], [1, 2], [2, 3]])
    rng = stream(31, 2)
    table = bernoulli_bond_table(g, 0.45)
    rep = dac.dac_expectation(Magnetization(), table, g)
    assert rep.e_f == pytest.approx(0.0, abs=1e-12)


def test_dac_expectation_random_vs_brute_force():
    # the internal check compares against the induced spin table; run it on
    # random graphs with full coin-flip bond laws
    rng = stream(31, 3)
    for rep_i in range(6):
        n = 6
        edges = [[i, i + 1] for i in range(5)]
        extra = sorted(rng.choice(6, size=2, replace=False).tolist())
        if extra not in edges:
            edges.append(extra)
        g = graphs.custom(n, edges)
        table = bernoulli_bond_table(g, 0.4)
        fv = rng.standard_normal(64)
        gv = rng.standard_normal(64)
        rep = dac.dac_expectation(fv, table, g, g=gv)
        assert rep.e_f == pytest.approx(rep.direct_e_f, abs=1e-9)
        assert rep.e_fg == pytest.approx(rep.direct_e_fg, abs=1e-9)


def test_dac_expectation_sampled_mode():
    g = graphs.custom(3, [[0, 1], [1, 2]])
    par = ising.IsingParams(0.5)

    def sampler(rng):
        return ising.fk_sample(g, par, rng, sweeps=4)

    fv = Magnetization().table_values(3)
    rep = dac.dac_expectation(fv, sampler, g, rng=stream(31, 4), replicas=500)
    assert abs(rep.e_f - rep.direct_e_f) <= 4 * (rep.se_f + 0.03)


def test_spectral_sample_dac_cases():
    g = graphs.custom(3, [[0, 1], [1, 2]])
    rng = stream(31, 5)
    spanning = dac.clusters(g, [True, True])
    draws = dac.spectral_sample_dac(SingleSpin(0), spanning, rng, size=40)
    assert np.all(draws == 1)  # always the odd class
    empty = dac.clusters(g, [False, False])
    f = Majority()
    draws = dac.spectral_sample_dac(f, empty, rng, size=30_000)
    coef = measures.walsh_transform(f.table_values(3), 3)
    # empty bonds: profiles coincide with subsets
    law = coef**2 / (coef**2).sum()
    freq = np.bincount(draws, minlength=8) / len(draws)
    se = np.sqrt(law * (1 - law) / len(draws))
    assert np.all(np.abs(freq - law) <= 4 * se + 1e-9)


def test_spectral_sample_magnetization_cluster_weights():
    g = graphs.custom(4, [[0, 1], [1, 2], [2, 3]])
    bonds = dac.clusters(g, [True, False, True])  # clusters {0,1}, {2,3}
    rng = stream(31, 6)
    draws = dac.spectral_sample_dac(Magnetization(), bonds, rng, size=20_000)
    # both clusters have size 2: equal squared weight
    freq = np.bincount(draws, minlength=4) / len(draws)
    assert freq[0b01] == pytest.approx(0.5, abs=0.02)
    assert freq[0b10] == pytest.approx(0.5, abs=0.02)


def test_class_within_examples_and_exhaustive():
    g = graphs.custom(4, [[0, 1], [1, 2], [2, 3]])
    bonds = dac.clusters(g, [True, False, False])  # clusters {0,1},{2},{3}
    all_even = 0
    assert dac.class_within(all_even, bonds, np.zeros(4, dtype=bool))
    # odd cluster {2} disjoint from U={0}
    assert not dac.class_within(0b010, bonds, _bits.indices_to_mask([0], 4))
    # exhaustive check against literal member enumeration
    rng = stream(31, 7)
    f = rng.standard_normal(16)
    cf = dac.dac_coefficients(f, bonds)
    open_pairs = [tuple(g.edges[i]) for i in range(3) if [True, False, False][i]]
    span = [0]
    for u, v in open_pairs:
        gen = (1 << u) | (1 << v)
        span = sorted({s ^ x for s in span for x in (0, gen)})
    for profile in range(1 << bonds.k):
        rep_bits = cf.representative(profile)
        members = [rep_bits ^ s for s in span]
        for ubits in range(16):
            literal = any((m | ubits) == ubits for m in members)
            assert literal == dac.class_within(profile, bonds, ubits)


def test_bounds_empty_bonds_reduce_to_iid():
    # point mass on no bonds: clusters are singletons, the ratio bound is
    # the bare membership fraction
    n = 5
    g = graphs.custom(n, [[i, i + 1] for i in range(n - 1)])
    bond_table = [(0, 1.0)]
    spec = graphs.UniformK(2)
    rep = dac.dac_clue_upper_bound(Magnetization(), bond_table, spec, g)
    assert rep.cluster_ratio_bound == pytest.approx(2 / n, abs=1e-12)
    assert rep.exact_expected_clue == pytest.approx(2 / n, abs=1e-10)
    assert rep.clue_given_bonds == pytest.approx(0.0, abs=1e-12)


def test_bounds_odd_function_no_bond_information():
    g = graphs.custom(4, [[0, 1], [1, 2], [2, 3]])
    bond_table = bernoulli_bond_table(g, 0.5)
    spec = graphs.UniformK(2)
    # odd function: knowing the clustering alone gives nothing
    rng = stream(31, 8)
    fv = rng.standard_normal(16)
    odd = fv - fv[::-1]  # f(-x) = -f(x) under index complement
    rep = dac.dac_clue_upper_bound(odd, bond_table, spec, g)
    assert rep.clue_given_bonds == pytest.approx(0.0, abs=1e-12)
    assert rep.exact_expected_clue <= rep.spectral_bound + 1e-9
    assert rep.spectral_bound <= rep.theorem_bound + 1e-9


def test_bound_chain_random_instances():
    rng = stream(31, 9)
    for inst in range(12):
        n = 6
        edges = [[i, i + 1] for i in range(n - 1)]
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if [u, v] not in edges:
            edges.append([u, v])
        g = graphs.custom(n, edges)
        masks = rng.integers(0, 1 << g.n_edges, size=5)
        probs = rng.dirichlet(np.ones(5))
        agg = {}
        for m, p in zip(masks, probs):
            agg[int(m)] = agg.get(int(m), 0) + float(p)
        spec = graphs.UniformK(int(rng.integers(1, 4)))
        fv = rng.standard_normal(1 << n)
        rep = dac.dac_clue_upper_bound(fv, sorted(agg.items()), spec, g)
        assert rep.exact_expected_clue <= rep.spectral_bound + 1e-9
        assert rep.spectral_bound <= rep.theorem_bound + 1e-9


def test_magnetization_singleton_identity():
    g = graphs.custom(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 3]])
    bond_table = bernoulli_bond_table(g, 0.35)
    for k in (1, 2, 3):
        spec = graphs.UniformK(k)
        rep = dac.dac_clue_upper_bound(
            Magnetization(), bond_table, spec, g)
        assert rep.singleton_bound_for_magnetization == pytest.approx(
            rep.cluster_ratio_bound, abs=1e-9)
        assert rep.exact_expected_clue <= rep.singleton_bound_for_magnetization + 1e-9


def test_fk_bound_beta0_gives_revealment():
    g = graphs.torus(2, 3)
    spec = graphs.UniformK(2)
    rep = dac.fk_magnetization_bound(g, 0.0, spec, samples=50, rng=stream(31, 10),
                                     sweeps=2)
    assert rep.ratio_bound == pytest.approx(2 / 9, abs=1e-12)
    assert rep.max_cluster_bound == pytest.approx(2 / 9, abs=1e-12)


def test_fk_bound_two_path_matches_enumeration():
    # exact FK enumeration on the 2-path vs the Monte Carlo moments
    g = graphs.custom(2, [[0, 1]])
    beta = 0.5
    p = ising.IsingParams(beta).p_bond
    # bond open with probability p' = p / (p + 2(1-p)) under the q=2 law
    w_open = p * 2  # one cluster, factor 2^1
    w_closed = (1 - p) * 4  # two clusters, factor 2^2
    p_open = w_open / (w_open + w_closed)
    exact_ratio = (p_open * (4 + 4) + (1 - p_open) * (1 + 1)) / (
        p_open * (2 + 2) + (1 - p_open) * (1 + 1))
    spec = graphs.UniformK(1)
    rep = dac.fk_magnetization_bound(g, beta, spec, samples=4000,
                                     rng=stream(31, 11), sweeps=3)
    assert abs(rep.ratio_bound - 0.5 * exact_ratio) <= 3 * rep.ratio_se


def test_fk_bound_dominates_mc_clue_small_torus():
    # the full pipeline at desk scale: MC clue of the average vs the bound
    g = graphs.torus(2, 3)
    beta = 0.5
    spec = graphs.UniformK(2)
    rng = stream(31, 12)
    bound = dac.fk_magnetization_bound(g, beta, spec, samples=150, rng=rng, sweeps=10)
    table = exact_table(IsingMeasure(beta), g)
    exact = clue.expected_clue(table, Magnetization(), spec, g)
    assert exact <= bound.ratio_bound + 3 * bound.ratio_se


def test_spectral_bound_equals_joint_conditional_variance():
    # the class-spectral quantity is exactly the variance of the projection
    # onto (observed spins, bond layer), computed here by literal joint
    # enumeration over bonds x configurations
    g = graphs.custom(4, [[0, 1], [1, 2], [2, 3], [0, 2]])
    rng = stream(77, 0)
    masks = [0b0000, 0b0101, 0b1011, 0b1111]
    probs = rng.dirichlet(np.ones(4))
    bond_table = list(zip(masks, map(float, probs)))
    fv = rng.standard_normal(16)
    table = exact_table(measures.DacMeasure(tuple(bond_table)), g)
    fc = fv - table.expectation(fv)
    var_f = table.variance(fc)
    for k in (1, 2, 3):
        spec = graphs.UniformK(k)
        rep = dac.dac_clue_upper_bound(fc, bond_table, spec, g)
        # oracle: E over (U, N) of E[ E[f | sigma_U, N]^2 ]
        total = 0.0
        for ubits, uprob in graphs.subset_support(spec, g):
            for bond_bits, bprob in bond_table:
                bonds = dac.clusters(g, _bits.bits_to_mask(bond_bits, g.n_edges))
                # conditional spin law given this bond layer
                labels = bonds.labels
                weights = np.zeros(16)
                reps = np.unique(labels)
                for coloring in range(1 << len(reps)):
                    cfg_bits = 0
                    for j, r in enumerate(reps):
                        if (coloring >> j) & 1:
                            cfg_bits |= _bits.mask_to_bits(labels == r)
                    weights[cfg_bits] += 1.0
                weights /= weights.sum()
                # project onto the observed pattern
                idx = _bits.config_indices(4)
                keys = (idx & np.uint64(ubits)).astype(np.int64)
                denom = np.bincount(keys, weights=weights, minlength=16)
                numer = np.bincount(keys, weights=weights * fc, minlength=16)
                with np.errstate(invalid="ignore", divide="ignore"):
                    cond = np.where(denom > 0, numer / np.maximum(denom, 1e-300), 0.0)
                total += uprob * bprob * float(weights @ cond[keys] ** 2)
        assert rep.spectral_bound * var_f == pytest.approx(total, abs=1e-10)
