import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import _bits, graphs, ising
from spinlab.measures import IsingMeasure, exact_table
from spinlab.rng import stream
from oracles import heat_bath_reference, susceptibility, swendsen_wang_step_reference
from test_graphs import _custom_with_isolated, _union_find_labels


def hamiltonian(graph, params, config) -> float:
    """Energy of one configuration: -J sum_edges s_u s_v - h sum_v s_v."""
    config = np.asarray(config, dtype=np.float64)
    edge_term = float(config[graph.edges[:, 0]] @ config[graph.edges[:, 1]])
    return -params.J * edge_term - params.h * float(config.sum())


def test_hamiltonian_examples():
    g = graphs.cycle(4)
    p = ising.IsingParams(1.0)
    assert hamiltonian(g, p, np.ones(4)) == -4.0
    assert hamiltonian(g, p, np.array([1, -1, 1, -1])) == 4.0
    # one flip from all-plus frustrates exactly two edges
    assert hamiltonian(g, p, np.array([-1, 1, 1, 1])) == 0.0


def test_hamiltonian_all_matches_scalar():
    g = graphs.cycle(5)
    p = ising.IsingParams(0.7, J=1.3, h=0.2)
    energies = ising.hamiltonian_all(g, p)
    for idx in range(32):
        cfg = _bits.index_to_config(idx, 5)
        assert energies[idx] == pytest.approx(hamiltonian(g, p, cfg))


def test_params_validation():
    with pytest.raises(ValueError):
        ising.IsingParams(-0.1)
    with pytest.raises(ValueError):
        ising.IsingParams(1.0, J=0.0)
    with pytest.raises(ValueError):
        ising.IsingParams(math.inf)


def test_bond_probability_convention():
    p = ising.IsingParams(0.5, J=1.0)
    assert p.p_bond == pytest.approx(1.0 - math.exp(-1.0))


def test_glauber_beta0_fair_coins():
    g = graphs.cycle(6)
    p = ising.IsingParams(0.0)
    rng = stream(1, 0)
    state = ising.ChainState(np.ones(6, dtype=np.int8), rng=rng)
    total = np.zeros(6)
    for _ in range(4000):
        ising.glauber_sweep(state, g, p)
        total += state.config
    assert np.abs(total / 4000).max() < 4 / math.sqrt(4000)


def test_glauber_frozen_untouched():
    g = graphs.cycle(6)
    p = ising.IsingParams(0.5)
    rng = stream(1, 1)
    state = ising.ChainState(np.ones(6, dtype=np.int8), rng=rng)
    frozen = _bits.indices_to_mask([0, 3], 6)
    for _ in range(50):
        ising.glauber_sweep(state, g, p, frozen=frozen)
        assert state.config[0] == 1 and state.config[3] == 1
    full = np.ones(6, dtype=bool)
    before = state.config.copy()
    ising.glauber_sweep(state, g, p, frozen=full, sweeps=10)
    assert np.array_equal(state.config, before)


def test_glauber_marginal_matches_table():
    g = graphs.cycle(6)
    beta = 0.3
    t = exact_table(IsingMeasure(beta), g)
    exact_mean = 2 * t.marginal_plus()[0] - 1
    rng = stream(1, 2)
    state = ising.ChainState(rng.choice(_bits.SPINS, size=g.n_vertices), 0, rng)
    ising.glauber_sweep(state, g, ising.IsingParams(beta), sweeps=300)
    total = 0.0
    n_samp = 20_000
    for _ in range(n_samp):
        ising.glauber_sweep(state, g, ising.IsingParams(beta))
        total += state.config[0]
    se = 1.0 / math.sqrt(n_samp)  # generous: autocorrelation adds a factor
    assert abs(total / n_samp - exact_mean) < 5 * se


def test_sw_beta0_no_bonds():
    g = graphs.cycle(6)
    rng = stream(2, 0)
    bonds, cfg = ising.swendsen_wang_step(
        np.ones(6, dtype=np.int8), g, ising.IsingParams(0.0), rng)
    assert not bonds.open_edges.any()
    assert bonds.k == 6


def test_sw_strong_coupling_opens_everything():
    g = graphs.cycle(6)
    rng = stream(2, 1)
    bonds, cfg = ising.swendsen_wang_step(
        np.ones(6, dtype=np.int8), g, ising.IsingParams(30.0), rng)
    assert bonds.open_edges.all()
    assert abs(cfg.sum()) == 6  # one cluster, one coin


def test_sw_requires_zero_field():
    g = graphs.cycle(4)
    with pytest.raises(ValueError):
        ising.swendsen_wang_step(
            np.ones(4, dtype=np.int8), g, ising.IsingParams(0.5, h=0.1), stream(2, 2))


def test_sw_two_point_matches_table():
    g = graphs.cycle(6)
    beta = 0.4
    t = exact_table(IsingMeasure(beta), g)
    idx = _bits.config_indices(6)
    exact = t.expectation(_bits.spins_of(idx, 0) * _bits.spins_of(idx, 1))
    rng = stream(2, 3)
    par = ising.IsingParams(beta)
    cfg = ising.sw_chain(g, par, rng, 100)
    total, n_samp = 0.0, 12_000
    for _ in range(n_samp):
        _, cfg = ising.swendsen_wang_step(cfg, g, par, rng)
        total += cfg[0] * cfg[1]
    se = math.sqrt(1.0 / n_samp)
    assert abs(total / n_samp - exact) < 4 * se


def fk_brute_force_cluster_count(g, beta):
    """Expected cluster count under the bond law p^o (1-p)^c 2^k, by direct
    enumeration over all bond masks."""
    p = ising.IsingParams(beta).p_bond
    total_w = 0.0
    total_k = 0.0
    m = g.n_edges
    for mask in range(1 << m):
        open_mask = _bits.bits_to_mask(mask, m)
        _, k = graphs.component_labels(g, open_mask)
        o = bin(mask).count("1")
        w = p**o * (1 - p) ** (m - o) * 2**k
        total_w += w
        total_k += w * k
    return total_k / total_w


def test_fk_beta0_empty():
    g = graphs.cycle(4)
    par, rng = ising.IsingParams(0.0), stream(3, 0)
    cfg = ising.sw_chain(g, par, rng, 3)
    labels = ising.fk_clusters(cfg[None], g, par, rng)[0]
    assert labels.tolist() == [0, 1, 2, 3]  # no open bond: four singletons


def test_fk_cluster_count_matches_enumeration():
    g = graphs.cycle(4)
    beta = 0.4
    oracle = fk_brute_force_cluster_count(g, beta)
    rng = stream(3, 1)
    par = ising.IsingParams(beta)
    cfg = ising.sw_chain(g, par, rng, 100)
    ks = []
    for _ in range(8000):
        bonds, cfg = ising.swendsen_wang_step(cfg, g, par, rng)
        ks.append(bonds.k)
    ks = np.asarray(ks, dtype=float)
    se = ks.std(ddof=1) / math.sqrt(len(ks))
    assert abs(ks.mean() - oracle) < 4 * se


def test_fk_two_point_equals_connection_probability():
    # 3x3 torus at beta=0.5: E[s_x s_y] = P[x and y share a cluster]
    g = graphs.torus(2, 3)
    beta = 0.5
    t = exact_table(IsingMeasure(beta), g)
    idx = _bits.config_indices(9)
    exact = t.expectation(_bits.spins_of(idx, 0) * _bits.spins_of(idx, 4))
    rng = stream(3, 2)
    par = ising.IsingParams(beta)
    hits, n_samp = 0, 4000
    cfg = None
    for i in range(n_samp):
        cfg = ising.sw_chain(g, par, rng, 100 if i == 0 else 5, cfg)
        labels = ising.fk_clusters(cfg[None], g, par, rng)[0]
        hits += labels[0] == labels[4]
    freq = hits / n_samp
    se = math.sqrt(freq * (1 - freq) / n_samp) + 1e-6
    assert abs(freq - exact) < 4 * se


# SHA-256 of 2000 stacked int8 configurations of one chain per sampler, one
# public call per step, recorded from the numpy-array versions of the scalar
# kernels on the PCG64 streams of `rng.stream`; a kernel that changes or
# reorders a draw, or another bit generator, changes its digest.
_STREAM_DIGESTS = {
    "glauber-cycle6":
        "9ceaa361b3ed4d8c5bc331f4ffd4656a50743addf171c828dbfe345b1cde30e5",
    "glauber-complete5":
        "c690dfc1971a980726a4d56e7460e6784e35899c78183c2b6cf7a30f6b384487",
    "glauber-cycle6-frozen":
        "12f15100c5ad15fec1f9980dd19caed73b85ccf7d18ba934944902a1c601414e",
    "sw-cycle5":
        "2d0fef8edacbaf2ea7eb979c33e4ad211e69f8619fc0d1d06185613120903f93",
}


def _sampler_streams(steps=2000):
    """name -> (steps, n) int8 array of the chain after each step."""
    def glauber(g, params, seed, frozen=None, start=None):
        rng = stream(seed, 0)
        cfg = rng.choice(_bits.SPINS, size=g.n_vertices) if start is None else start
        state = ising.ChainState(np.array(cfg, dtype=np.int8), 0, rng)
        out = np.empty((steps, g.n_vertices), dtype=np.int8)
        for i in range(steps):
            ising.glauber_sweep(state, g, params, frozen=frozen)
            assert state.config.dtype == np.int8
            out[i] = state.config
        return out

    def sw(g, params, seed):
        rng = stream(seed, 0)
        cfg = rng.choice(_bits.SPINS, size=g.n_vertices)
        out = np.empty((steps, g.n_vertices), dtype=np.int8)
        for i in range(steps):
            bonds, cfg = ising.swendsen_wang_step(cfg, g, params, rng)
            fresh = ising.BondConfig(g, bonds.open_edges)
            assert cfg.dtype == np.int8
            assert np.array_equal(bonds.labels, fresh.labels) and bonds.k == fresh.k
            out[i] = cfg
        return out

    frozen = np.zeros(6, dtype=bool)
    frozen[[0, 3]] = True
    par = ising.IsingParams(0.4)
    return {
        "glauber-cycle6": glauber(graphs.cycle(6), par, 61),
        "glauber-complete5": glauber(graphs.complete(5), ising.IsingParams(0.8, J=0.2), 62),
        "glauber-cycle6-frozen": glauber(graphs.cycle(6), par, 63, frozen=frozen,
                                         start=[1, 1, -1, -1, 1, 1]),
        "sw-cycle5": sw(graphs.cycle(5), par, 65),
    }


def test_sampler_streams_match_recorded_digests():
    import hashlib

    digests = {name: hashlib.sha256(out.tobytes()).hexdigest()
               for name, out in _sampler_streams().items()}
    assert digests == _STREAM_DIGESTS


def test_edwards_sokal_examples():
    g = graphs.custom(3, [[0, 1], [1, 2]])
    rng = stream(4, 0)
    bonds = ising.BondConfig(g, np.array([False, False]))
    seen = set()
    for _ in range(400):
        cfg = ising.edwards_sokal_color(bonds, rng)
        seen.add(_bits.config_to_index(cfg))
    assert seen == set(range(8))
    spanning = ising.BondConfig(g, np.array([True, True]))
    vals = {tuple(ising.edwards_sokal_color(spanning, rng)) for _ in range(50)}
    assert vals <= {(1, 1, 1), (-1, -1, -1)}
    assert len(vals) == 2


def test_edwards_sokal_coins_match_kernel_draw():
    # the coins are the replica kernel's draw, rng.random(k) < 0.5 for +1,
    # one per cluster in label order, and leave the stream where it leaves it
    g = graphs.cycle(8)
    for seed in range(20):
        open_edges = stream(seed, 0).random(g.n_edges) < 0.5
        bonds = ising.BondConfig(g, open_edges)
        rng, twin = stream(seed, 1), stream(seed, 1)
        cfg = ising.edwards_sokal_color(bonds, rng)
        coins = np.where(twin.random(bonds.k) < 0.5, 1, -1)
        _, roots = np.unique(bonds.labels, return_index=True)  # in label order
        assert cfg.dtype == np.int8 and cfg[roots].tolist() == coins.tolist()
        assert np.array_equal(cfg, cfg[roots][bonds.labels])  # constant on clusters
        assert rng.random() == twin.random()


def test_edwards_sokal_law_on_path():
    # coloring a stationary bond layer reproduces the spin measure
    g = graphs.custom(2, [[0, 1]])
    beta = 0.5
    t = exact_table(IsingMeasure(beta), g)
    rng = stream(4, 1)
    par = ising.IsingParams(beta)
    counts = np.zeros(4)
    cfg = None
    for i in range(20_000):
        cfg = ising.sw_chain(g, par, rng, 50 if i == 0 else 2, cfg)
        bonds, _ = ising.swendsen_wang_step(cfg, g, par, rng)  # recoloured below
        cfg = ising.edwards_sokal_color(bonds, rng)
        counts[_bits.config_to_index(cfg)] += 1
    freq = counts / counts.sum()
    assert np.abs(freq - t.p).max() < 4 * math.sqrt(0.25 / 20_000) + 0.005


def test_beta_c_constant_matches_susceptibility_scan():
    # finite-size cross-check: the steepest susceptibility growth on small
    # tori sits below the named constant and drifts toward it with size
    assert ising.BETA_C_2D == pytest.approx(0.4406868, abs=1e-6)
    markers = []
    for side in (3, 4):
        g = graphs.torus(2, side)
        betas = np.linspace(0.15, 0.8, 66)
        chis = np.array([
            susceptibility(exact_table(IsingMeasure(float(b)), g), g).chi
            for b in betas
        ])
        slope = np.gradient(chis, betas)
        markers.append(float(betas[np.argmax(slope)]))
    assert markers[0] < markers[1] < ising.BETA_C_2D
    assert abs(markers[1] - ising.BETA_C_2D) < 0.15


def test_conditional_exact_resample_distribution():
    g = graphs.cycle(5)
    beta = 0.6
    par = ising.IsingParams(beta)
    t = exact_table(IsingMeasure(beta), g)
    base = np.array([1, -1, 1, 1, -1], dtype=np.int8)
    free = np.array([1, 2])
    # conditional law over the 4 joint values of the free pair
    idx = _bits.config_indices(5)
    frozen_bits = 0b11001
    target = _bits.config_to_index(base) & frozen_bits
    sel = (idx & np.uint64(frozen_bits)).astype(np.int64) == target
    cond = t.p * sel
    cond = cond / cond.sum()
    rng = stream(5, 0)
    counts = np.zeros(32)
    n_samp = 20_000
    for _ in range(n_samp):
        out = ising.conditional_exact_resample(g, par, base, free, rng.random())
        counts[_bits.config_to_index(out)] += 1
    freq = counts / n_samp
    assert np.abs(freq - cond).max() < 4 * math.sqrt(0.25 / n_samp) + 0.003


# -- replica heat-bath kernel ----------------------------------------------------


@st.composite
def _graphs(draw):
    kind = draw(st.sampled_from(["cycle", "torus", "complete", "custom"]))
    if kind == "cycle":
        return graphs.cycle(draw(st.integers(3, 9)))
    if kind == "torus":
        return graphs.torus(2, draw(st.integers(3, 6)))
    if kind == "complete":
        return graphs.complete(draw(st.integers(1, 6)))
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graphs.custom(n, edges)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_graphs(), st.floats(0.0, 1.5), st.floats(0.1, 2.0), st.floats(-0.5, 0.5),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_heat_bath_kernel_properties(g, beta, J, h, replicas, seed):
    n = g.n_vertices
    geom = g.geometry
    # neighbour rows match the edge list, padded with the sentinel n
    lists = [[] for _ in range(n)]
    for u, v in g.edges.tolist():
        lists[u].append(v)
        lists[v].append(u)
    assert geom.lists == [sorted(row) for row in lists]
    for row, padded in zip(geom.lists, geom.nbrs.tolist()):
        assert padded == row + [n] * (geom.max_degree - len(row))
    # the colouring is a proper partition into classes
    colour = np.full(n, -1)
    for c, sites in enumerate(geom.classes):
        assert (colour[sites] == -1).all()
        colour[sites] = c
    assert (colour >= 0).all()
    assert not np.any(colour[g.edges[:, 0]] == colour[g.edges[:, 1]])
    if g.shape is not None and all(side % 2 == 0 for side in g.shape):
        assert len(geom.classes) == 2

    par = ising.IsingParams(beta, J=J, h=h)
    rng = np.random.default_rng(seed)
    frozen = rng.random(n) < 0.4
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, n))
    before = cfgs.copy()
    out = ising.heat_bath(cfgs, g, par, 3, rng, frozen=frozen)
    assert out is cfgs and out.dtype == np.int8
    assert np.array_equal(cfgs[:, frozen], before[:, frozen])
    assert np.isin(cfgs, [-1, 1]).all()
    # coupled mode: equal copies stay equal, ordered copies stay ordered
    x = before[0]
    equal = np.stack([x, x])
    ising.heat_bath(equal, g, par, 3, rng, frozen=frozen, coupled=True)
    assert np.array_equal(equal[0], equal[1])
    below = np.where(rng.random(n) < 0.5, np.int8(-1), x)
    pair = np.stack([x, below])
    ising.heat_bath(pair, g, par, 3, rng, frozen=frozen, coupled=True)
    assert (pair[0] >= pair[1]).all()
    assert np.array_equal(pair[:, frozen], np.stack([x, below])[:, frozen])


def _kernel_graphs():
    """Lattices, complete graphs, custom graphs of irregular degree with an
    isolated vertex, and complete(130), whose neighbour sums need 16 bits."""
    return st.one_of(_graphs(), _custom_with_isolated(), st.just(graphs.complete(130)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_kernel_graphs(), st.floats(0.0, 1.5), st.floats(-0.5, 0.5),
       st.sampled_from([1, 2, 7]), st.sampled_from([None, 0.0, 0.4, 1.0]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_heat_bath_matches_reference_kernel(g, beta, h, replicas, p_frozen, coupled, seed):
    # site for site and draw for draw, against the replica-major class step
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    frozen = None if p_frozen is None else rng.random(n) < p_frozen
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, n))
    ref, twin = cfgs.copy(), copy.deepcopy(rng)
    par = ising.IsingParams(beta, h=h)
    out = ising.heat_bath(cfgs, g, par, 3, rng, frozen=frozen, coupled=coupled)
    heat_bath_reference(ref, g, par, 3, twin, frozen=frozen, coupled=coupled)
    assert out is cfgs and cfgs.dtype == np.int8
    assert np.array_equal(cfgs, ref)
    assert rng.random() == twin.random()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_kernel_graphs(), st.floats(0.0, 1.5), st.sampled_from([1, 2, 7]),
       st.integers(0, 2**32 - 1))
def test_swendsen_wang_matches_reference_step(g, beta, replicas, seed):
    # bond draw, labels, cluster count and coins, against the reference step
    rng = np.random.default_rng(seed)
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, g.n_vertices))
    par = ising.IsingParams(beta)
    twin = copy.deepcopy(rng)
    labels, k = ising._cluster_labeller(g, replicas, par)(cfgs, rng)
    ref_labels, ref_k, ref_cfgs = swendsen_wang_step_reference(cfgs, g, par, twin)
    assert k == ref_k and np.array_equal(labels, ref_labels)
    cfgs = ising._cluster_coins(labels, k, rng)
    assert cfgs.dtype == np.int8 and np.array_equal(cfgs, ref_cfgs)
    assert rng.random() == twin.random()
    # and the kernel's next step from there
    ising.swendsen_wang(cfgs, g, par, 1, rng)
    assert np.array_equal(cfgs, swendsen_wang_step_reference(ref_cfgs, g, par, twin)[2])
    assert rng.random() == twin.random()


@pytest.mark.parametrize("g, beta, J, frozen_sites, n_classes", [
    (graphs.cycle(6), 0.4, 1.0, [0, 3], 2),
    (graphs.complete(5), 0.8, 0.2, [], 5),
    (graphs.cycle(5), 0.4, 1.0, [], 3),
])
def test_heat_bath_replica_law_matches_table(g, beta, J, frozen_sites, n_classes):
    assert len(g.geometry.classes) == n_classes
    n = g.n_vertices
    replicas = 60_000
    rng = stream(6, n)
    frozen = _bits.indices_to_mask(frozen_sites, n)
    start = np.array([1, 1, -1, -1, 1, 1, -1][:n], dtype=np.int8)
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, n))
    cfgs[:, frozen] = start[frozen]
    ising.heat_bath(cfgs, g, ising.IsingParams(beta, J=J), 40, rng, frozen=frozen)
    target = exact_table(IsingMeasure(beta, J=J), g).p
    idx = _bits.config_indices(n)
    fbits = _bits.mask_to_bits(frozen)
    sel = (idx & np.uint64(fbits)).astype(np.int64) == _bits.config_to_index(start) & fbits
    target = np.where(sel, target, 0.0) / target[sel].sum()
    index = ((cfgs > 0).astype(np.int64) << np.arange(n)).sum(axis=1)
    freq = np.bincount(index, minlength=1 << n) / replicas
    assert 0.5 * np.abs(freq - target).sum() <= 0.02


def test_resample_free_redraws_rows():
    g = graphs.torus(2, 4)
    sampler = ising.ConditionalGibbsSampler(g, ising.IsingParams(0.3), sweeps_between=5)
    frozen = _bits.indices_to_mask([0, 5], 16)
    cfgs = np.ones((3, 16), dtype=np.int8)
    out = sampler.resample_free(cfgs, frozen, stream(6, 99))
    assert out.shape == (3, 16) and out is not cfgs
    assert (cfgs == 1).all() and (out[:, frozen] == 1).all()
    with pytest.raises(ValueError):
        ising.heat_bath(np.ones((2, 15), dtype=np.int8), g, ising.IsingParams(0.3), 1,
                        stream(6, 98))


def _exact_resample_by_edge_loop(graph, params, config, free, u):
    """Reference: fields and internal edges from a loop over graph.edges."""
    m = len(free)
    pos = {int(v): i for i, v in enumerate(free)}
    internal, fields = [], np.zeros(m)
    for a, b in graph.edges.tolist():
        if a in pos and b in pos:
            internal.append((pos[a], pos[b]))
        elif a in pos:
            fields[pos[a]] += params.J * config[b]
        elif b in pos:
            fields[pos[b]] += params.J * config[a]
    fields += params.h
    spins = 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1) - 1.0
    energy = -params.J * sum((spins[:, i] * spins[:, j] for i, j in internal),
                             np.zeros(1 << m)) - spins @ fields
    logw = -params.beta * energy
    cdf = np.cumsum(np.exp(logw - logw.max()))
    pick = int(np.searchsorted(cdf / cdf[-1], u, side="right"))
    out = np.asarray(config, dtype=np.int8).copy()
    out[free] = [1 if (pick >> i) & 1 else -1 for i in range(m)]
    return out


def test_conditional_exact_resample_matches_edge_loop():
    rng = stream(6, 7)
    for g in (graphs.torus(2, 6), graphs.cycle(7), graphs.complete(6)):
        par = ising.IsingParams(0.45, J=1.0, h=0.0)
        for _ in range(20):
            cfg = rng.choice(np.array([-1, 1], dtype=np.int8), size=g.n_vertices)
            free = rng.choice(g.n_vertices, size=int(rng.integers(1, 6)), replace=False)
            u = rng.random()
            got = ising.conditional_exact_resample(g, par, cfg, free, u)
            assert np.array_equal(got, _exact_resample_by_edge_loop(g, par, cfg, free, u))


def test_cluster_coins_match_unique_labelling():
    g = graphs.torus(2, 9)  # 81 vertices, 162 edges: the compiled labelling path
    rng = stream(6, 8)
    for p in (0.2, 0.5, 0.8):
        bonds = ising.BondConfig(g, rng.random(g.n_edges) < p)
        reps, inverse = np.unique(bonds.labels, return_inverse=True)
        assert bonds.k == len(reps)
        state = rng.bit_generator.state
        coins = ising.edwards_sokal_color(bonds, rng)
        rng.bit_generator.state = state
        ref = np.where(rng.random(len(reps)) < 0.5, 1, -1)[inverse]
        assert coins.dtype == np.int8 and np.array_equal(coins, ref)


# -- replica Swendsen-Wang kernel ------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_custom_with_isolated(), st.floats(0.0, 2.0), st.integers(2, 4),
       st.integers(0, 2**32 - 1))
def test_sw_kernel_labelling_matches_component_labels(g, beta, replicas, seed):
    n, m = g.n_vertices, g.n_edges
    geom = g.geometry
    for v, row in enumerate(geom.lists):
        for j, e in enumerate(geom.slot_edge[v].tolist()):
            if j < len(row):
                assert sorted(g.edges[e].tolist()) == sorted([v, row[j]])
            else:
                assert e == m
    par = ising.IsingParams(beta)
    rng = np.random.default_rng(seed)
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, n))
    state = rng.bit_generator.state
    labels = ising.fk_clusters(cfgs, g, par, rng)
    rng.bit_generator.state = state
    mono = cfgs[:, g.edges[:, 0]] == cfgs[:, g.edges[:, 1]]
    opens = mono & (rng.random((replicas, m)) < par.p_bond)
    assert labels.shape == (replicas, n)
    for r in range(replicas):
        # no cluster crosses two copies
        for s in range(r):
            assert not set(labels[r].tolist()) & set(labels[s].tolist())
        # each copy is partitioned exactly as a plain union-find partitions it
        ref, k = _union_find_labels(n, g.edges, opens[r])
        assert len(set(zip(labels[r].tolist(), ref))) == k
        assert len(set(labels[r].tolist())) == k
    # clusters are numbered 0, 1, ... in the order of their smallest site
    values, first = np.unique(labels.ravel(), return_index=True)
    assert np.array_equal(values, np.arange(len(values)))
    assert np.all(np.diff(first) > 0)
    # one kernel step under the same stream colours those clusters
    rng.bit_generator.state = state
    out = ising.swendsen_wang(cfgs, g, par, 1, rng)
    assert out is cfgs and out.dtype == np.int8 and np.isin(cfgs, [-1, 1]).all()
    for r in range(replicas):
        for c in set(labels[r].tolist()):
            assert len(set(cfgs[r][labels[r] == c].tolist())) == 1


def test_sw_kernel_rejects_bad_input_before_allocating():
    g = graphs.complete(200)
    par = ising.IsingParams(0.01)
    with pytest.raises(ValueError, match="bytes"):
        ising.swendsen_wang(np.ones((1000, 200), dtype=np.int8), g, par, 1, stream(7, 0))
    with pytest.raises(ValueError):
        ising.swendsen_wang(np.ones((2, 199), dtype=np.int8), g, par, 1, stream(7, 0))
    with pytest.raises(ValueError):
        ising.swendsen_wang(np.ones((2, 200), dtype=np.int8), g,
                            ising.IsingParams(0.01, h=0.1), 1, stream(7, 0))


@pytest.mark.parametrize("g", [graphs.cycle(5), graphs.torus(2, 8)])
def test_sw_chain_is_the_kernel_with_one_replica(g):
    # draw for draw, from a uniform start and from a given one
    par = ising.IsingParams(0.4)
    rng, twin = stream(7, 1), stream(7, 1)
    cfg = ising.sw_chain(g, par, rng, 40)
    ref = twin.choice(_bits.SPINS, size=g.n_vertices)[None]
    ising.swendsen_wang(ref, g, par, 40, twin)
    assert cfg.dtype == np.int8 and np.array_equal(cfg, ref[0])
    start = cfg.copy()
    cfg = ising.sw_chain(g, par, rng, 7, start)
    assert np.array_equal(start, ref[0])  # the start is not written to
    ising.swendsen_wang(ref, g, par, 7, twin)
    assert np.array_equal(cfg, ref[0])
    assert rng.random() == twin.random()


@pytest.mark.parametrize("g, beta, J", [
    (graphs.cycle(6), 0.4, 1.0),
    (graphs.complete(5), 0.8, 0.2),
    (graphs.torus(2, 3), 0.5, 1.0),
])
def test_sw_kernel_replica_law_matches_table(g, beta, J):
    n = g.n_vertices
    replicas = 60_000
    rng = stream(7, n)
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, n))
    ising.swendsen_wang(cfgs, g, ising.IsingParams(beta, J=J), 30, rng)
    target = exact_table(IsingMeasure(beta, J=J), g).p
    index = ((cfgs > 0).astype(np.int64) << np.arange(n)).sum(axis=1)
    freq = np.bincount(index, minlength=1 << n) / replicas
    assert 0.5 * np.abs(freq - target).sum() <= 0.02
