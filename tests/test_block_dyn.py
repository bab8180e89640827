import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import _bits, block_dyn, clue, graphs, measures
from spinlab.measures import IsingMeasure, ProductMeasure, exact_table
from spinlab.rng import stream
from oracles import expected_clue_by_subset


def delta_spec(n, members, q):
    return graphs.Explicit([
        (_bits.indices_to_mask(members, n), q),
        (np.zeros(n, dtype=bool), 1 - q),
    ])


def test_fixed_empty_rows_equal_stationary():
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.5), g)
    spec = graphs.Fixed(np.zeros(4, dtype=bool))
    op = block_dyn.block_operator(t, spec, g)
    assert np.allclose(op.matrix, np.tile(t.p, (16, 1)), atol=1e-12)
    assert block_dyn.spectrum(op).lambda_2 == pytest.approx(0.0, abs=1e-10)


def test_fixed_full_is_identity():
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.5), g)
    spec = graphs.Fixed(np.ones(4, dtype=bool))
    op = block_dyn.block_operator(t, spec, g)
    assert np.allclose(op.matrix, np.eye(16), atol=1e-12)
    assert block_dyn.spectrum(op).lambda_2 == pytest.approx(1.0, abs=1e-12)


def test_single_site_delta_chain():
    g = graphs.custom(1, [])
    t = exact_table(ProductMeasure(), g)
    q = 0.3
    op = block_dyn.block_operator(t, delta_spec(1, [0], q), g)
    expected = q * np.eye(2) + (1 - q) * np.full((2, 2), 0.5)
    assert np.allclose(op.matrix, expected, atol=1e-12)
    rep = block_dyn.spectrum(op)
    assert rep.lambda_2 == pytest.approx(q, abs=1e-12)
    assert rep.gap == pytest.approx(1 - q, abs=1e-12)


def test_transition_matrix_cap():
    # the operator's byte estimate is checked before anything is allocated,
    # and the dense oracle matrix has its own vertex cap
    n = 16
    uniform = measures.ProbabilityTable(n, np.full(1 << n, 1 / (1 << n)))
    with pytest.raises(ValueError, match="bytes"):
        block_dyn.block_operator(uniform, graphs.UniformK(4), graphs.custom(n, []))
    n = block_dyn.ORACLE_CAP + 1
    g = graphs.custom(n, [])
    op = block_dyn.block_operator(
        exact_table(ProductMeasure(), g), graphs.UniformK(1), g)
    with pytest.raises(ValueError, match="capped"):
        op.matrix


@pytest.mark.parametrize("spec", [graphs.UniformK(2), graphs.Bernoulli(0.3)],
                         ids=["uniform_k(2)", "bernoulli(0.3)"])
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
def test_operator_size_estimate_covers_the_built_arrays(n, spec):
    g = graphs.cycle(n)
    t = exact_table(IsingMeasure(0.4), g)
    support = graphs.subset_support(spec, g)
    estimate = clue.check_aggregator_size(n, support)
    op = block_dyn.BlockOperator(t, support)
    agg = op._agg  # keys share the matrix's indices
    arrays = (agg.matrix.data, agg.matrix.indices, agg.matrix.indptr, agg.offsets,
              agg.probs, op._patterns, op._row_prob, op._stay)
    assert estimate >= sum(a.nbytes for a in arrays)


def test_matrix_reversibility_and_stationarity():
    g = graphs.cycle(6)
    t = exact_table(IsingMeasure(0.4), g)
    for spec in (
        graphs.UniformK(2),
        graphs.Bernoulli(0.3),
        graphs.UniformTranslate(_bits.indices_to_mask([0, 1], 6)),
    ):
        op = block_dyn.block_operator(t, spec, g)
        mu = t.p
        flux = mu[:, None] * op.matrix
        assert np.abs(flux - flux.T).max() < 1e-10
        assert np.abs(mu @ op.matrix - mu).max() < 1e-10
        assert np.abs(op.matrix.sum(axis=1) - 1).max() < 1e-12


def test_eigenclue_product_uniform_k():
    # on coin flips the top nontrivial eigenvalue is the membership fraction
    n = 6
    g = graphs.custom(n, [])
    t = exact_table(ProductMeasure(), g)
    for k in (1, 2, 3):
        op = block_dyn.block_operator(t, graphs.UniformK(k), g)
        assert block_dyn.spectrum(op).lambda_2 == pytest.approx(k / n, abs=1e-10)


def test_eigenclue_verify_ising_cycle():
    g = graphs.cycle(6)
    t = exact_table(IsingMeasure(0.4), g)
    rep = block_dyn.eigenclue_verify(
        t, graphs.UniformK(2), g, trials=100, rng=stream(23, 0))
    assert rep.residual <= 1e-8
    assert rep.max_trial_clue <= rep.lambda_2 + 1e-9


@pytest.mark.parametrize("budget", [None, 1 << 12])
def test_eigenclue_trials_follow_the_per_trial_stream(budget):
    # the trials come in chunks of the kernel's rows, and a support of
    # several groups replays them; either way they, and the stream left
    # behind, are those of one standard_normal(2^n) per trial
    g = graphs.cycle(8)
    t = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    trials = 120
    with mock.patch.object(clue, "CLUE_CELL_BUDGET", budget or clue.CLUE_CELL_BUDGET):
        kernel = clue.ClueKernel.of_spec(t, spec, g)
        assert kernel.rows < trials
        assert (len(kernel._groups) > 1) == (budget is not None)
        rng = stream(5, 0)
        rep = block_dyn.eigenclue_verify(t, spec, g, trials, rng)
    loop = stream(5, 0)
    per_trial = [clue.expected_clue(t, loop.standard_normal(256), spec, g)
                 for _ in range(trials)]
    assert rep.max_trial_clue == pytest.approx(max(per_trial), abs=1e-12)
    assert rng.standard_normal() == loop.standard_normal()


@st.composite
def _eigen_cases(draw):
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = measures.ProbabilityTable(n, rng.dirichlet(np.ones(1 << n)))
    mask = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    spec = draw(st.one_of(
        st.integers(0, n).map(graphs.UniformK),
        st.floats(0.0, 1.0).map(graphs.Bernoulli),
        st.lists(st.tuples(mask, st.floats(0.01, 1.0)), min_size=1, max_size=4).map(
            lambda items: graphs.Explicit(
                [(m, w / sum(w for _, w in items)) for m, w in items])),
    ))
    return t, spec, rng


@pytest.mark.filterwarnings("ignore:some vertex is kept")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_eigen_cases())
def test_lambda2_is_the_clue_of_the_second_eigenfunction(case):
    # against the clue of one conditional_mean per subset, which shares no
    # arithmetic with the operator's aggregator
    t, spec, rng = case
    g = graphs.custom(t.n, [])
    rep = block_dyn.spectrum(block_dyn.block_operator(t, spec, g))
    assert expected_clue_by_subset(t, rep.second_eigenfunction, spec, g) == pytest.approx(
        rep.lambda_2, abs=1e-8)
    verified = block_dyn.eigenclue_verify(t, spec, g, trials=20, rng=rng)
    assert verified.lambda_2 == pytest.approx(rep.lambda_2, abs=1e-12)
    assert verified.residual <= 1e-8
    assert verified.max_trial_clue <= rep.lambda_2 + 1e-9


def test_eigenclue_verify_single_site():
    g = graphs.custom(1, [])
    t = exact_table(ProductMeasure(), g)
    rep = block_dyn.eigenclue_verify(t, delta_spec(1, [0], 0.4), g, trials=20,
                                     rng=stream(23, 1))
    assert rep.lambda_2 == pytest.approx(0.4, abs=1e-10)
    assert rep.clue_of_eigenfunction == pytest.approx(0.4, abs=1e-10)


def test_degenerate_top_eigenspace():
    # coin flips with uniform singletons: the top nontrivial eigenvalue has
    # multiplicity n, and every eigenvector of the solver attains it
    n = 4
    g = graphs.custom(n, [])
    t = exact_table(ProductMeasure(), g)
    spec = graphs.UniformK(1)
    op = block_dyn.block_operator(t, spec, g)
    mu = t.p
    root = np.sqrt(mu)
    sym = (root[:, None] * op.matrix) / root[None, :]
    vals, vecs = np.linalg.eigh((sym + sym.T) / 2)
    top = np.flatnonzero(np.abs(vals - 1 / n) < 1e-12)
    assert len(top) == n
    for j in top:
        f = vecs[:, j] / root
        assert clue.expected_clue(t, f, spec, g) == pytest.approx(1 / n, abs=1e-9)


def test_dirichlet_form_examples():
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    op = block_dyn.block_operator(t, spec, g)
    assert block_dyn.dirichlet_form(op, np.full(32, 2.0)) == pytest.approx(0.0, abs=1e-12)
    rep = block_dyn.spectrum(op)
    f2 = rep.second_eigenfunction
    assert block_dyn.dirichlet_form(op, f2) / t.variance(f2) == pytest.approx(
        1 - rep.lambda_2, abs=1e-9)
    # resample-everything chain: form equals the variance
    empty = graphs.Fixed(np.zeros(5, dtype=bool))
    ope = block_dyn.block_operator(t, empty, g)
    rng = stream(23, 2)
    f = rng.standard_normal(32)
    assert block_dyn.dirichlet_form(ope, f) == pytest.approx(
        t.variance(f), abs=1e-10)


def test_dirichlet_clue_identity():
    # E(f)/Var(f) = 1 - expected clue, for arbitrary f
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.35), g)
    spec = graphs.Bernoulli(0.4)
    op = block_dyn.block_operator(t, spec, g)
    rng = stream(23, 3)
    for _ in range(10):
        f = rng.standard_normal(32)
        lhs = block_dyn.dirichlet_form(op, f) / t.variance(f)
        rhs = 1 - clue.expected_clue(t, f, spec, g)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_bottleneck_examples():
    # resample-everything: a half-measure event escapes at rate 1/2
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    empty = graphs.Fixed(np.zeros(2, dtype=bool))
    op = block_dyn.block_operator(t, empty, g)
    event = np.array([1.0, 1.0, 0.0, 0.0])
    assert block_dyn.bottleneck_ratio(op, event) == pytest.approx(0.5, abs=1e-12)
    # frozen chain: every event is absorbing
    full = graphs.Fixed(np.ones(2, dtype=bool))
    opf = block_dyn.block_operator(t, full, g)
    assert block_dyn.bottleneck_ratio(opf, event) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        block_dyn.bottleneck_ratio(op, np.ones(4))


def exhaustive_bottleneck(op) -> float:
    """True expansion constant by scanning every event; only feasible for
    state spaces of at most 16 configurations (n <= 4)."""
    size = 1 << op.table.n
    assert size <= 16, "exhaustive event scan is impossible beyond 16 states"
    best = math.inf
    for ebits in range(1, 1 << size):
        ind = np.array([(ebits >> j) & 1 for j in range(size)], dtype=np.float64)
        mu_e = float(op.table.p @ ind)
        if 0 < mu_e <= 0.5:
            best = min(best, block_dyn.dirichlet_form(op, ind) / mu_e)
    return best


def test_cheeger_certificate_small_and_exhaustive():
    # n <= 4: the true expansion constant is computable; the sweep cut
    # upper-bounds it and already certifies the gap inequality
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.45), g)
    spec = graphs.UniformK(1)
    op = block_dyn.block_operator(t, spec, g)
    rep = block_dyn.spectrum(op)
    star = exhaustive_bottleneck(op)
    sweep = block_dyn.sweep_cut_bottleneck(op, rep.second_eigenfunction)
    assert star <= sweep + 1e-12
    assert sweep**2 / 2 <= rep.gap + 1e-12
    assert star**2 / 2 <= rep.gap + 1e-12


def test_cheeger_sweep_certificate_n6():
    g = graphs.cycle(6)
    t = exact_table(IsingMeasure(0.4), g)
    op = block_dyn.block_operator(t, graphs.UniformK(2), g)
    rep = block_dyn.spectrum(op)
    sweep = block_dyn.sweep_cut_bottleneck(op, rep.second_eigenfunction)
    assert sweep**2 / 2 <= rep.gap + 1e-12


def test_clue_flux_floor():
    # 1 - 2 Phi(E) <= expected clue of the indicator
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.5), g)
    spec = graphs.UniformK(2)
    op = block_dyn.block_operator(t, spec, g)
    rng = stream(23, 4)
    for _ in range(15):
        ind = (rng.random(32) < 0.4).astype(float)
        mu_e = float(t.p @ ind)
        if not 0 < mu_e <= 0.5:
            continue
        phi = block_dyn.bottleneck_ratio(op, ind)
        ec = clue.expected_clue(t, ind, spec, g)
        assert 1 - 2 * phi <= ec + 1e-9


def block_chain_step(table, spec, graph, state_index: int, rng) -> int:
    """Sample a subset, keep its spins, redraw the complement from the exact
    conditional; validates the dense oracle matrix row by row."""
    bits = _bits.mask_to_bits(graphs.sample_subset(spec, graph, rng))
    idx = _bits.config_indices(table.n)
    keys = (idx & np.uint64(bits)).astype(np.int64)
    members = np.flatnonzero(keys == (int(state_index) & bits))
    weights = table.p[members]
    total = weights.sum()
    if total <= 0:
        return int(state_index)
    return int(rng.choice(members, p=weights / total))


def test_one_step_simulation_matches_matrix_rows():
    # empirical transition frequencies against the explicit rows
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.5), g)
    spec = graphs.UniformK(2)
    op = block_dyn.block_operator(t, spec, g)
    rng = stream(23, 5)
    steps = 100_000
    for row in (0, 5, 15):
        counts = np.zeros(16)
        for _ in range(steps):
            counts[block_chain_step(t, spec, g, row, rng)] += 1
        tv = 0.5 * np.abs(counts / steps - op.matrix[row]).sum()
        assert tv <= 0.02


# -- path coupling ---------------------------------------------------------------


def test_path_coupling_beta0_formula():
    g = graphs.torus(2, 16)
    for L in (3, 5):
        rep = block_dyn.path_coupling_rate(g, 0.0, L, 4000, stream(23, 10 + L))
        target = 1 - (L / (L + 3)) ** 2
        assert abs(rep.eta1_mean - target) <= 3 * rep.eta1_se


def test_path_coupling_requires_lattice():
    with pytest.raises(ValueError):
        block_dyn.path_coupling_rate(graphs.cycle(8), 0.1, 2, 5, stream(23, 20))
    with pytest.raises(ValueError):
        block_dyn.path_coupling_rate(graphs.torus(2, 6), 0.1, 5, 5, stream(23, 21))


def test_path_coupling_rejects_negative_beta():
    g = graphs.torus(2, 6)
    with pytest.raises(ValueError):
        block_dyn.path_coupling_rate(g, -0.1, 2, 5, stream(23, 22))
    # beta = 0 stays the coin-flip path: each trial leaves 0 or 1 disagreement
    assert 0.0 <= block_dyn.path_coupling_rate(g, 0.0, 2, 5, stream(23, 22)).eta1_mean <= 1.0


def test_path_coupling_contraction_small():
    # moderate-size check that disagreement production shrinks with L
    g = graphs.torus(2, 26)
    reps = {
        L: block_dyn.path_coupling_rate(
            g, 0.25, L, 220, stream(23, 30 + L), warmup_steps=20)
        for L in (3, 8)
    }
    r3, r8 = reps[3], reps[8]
    assert r3.eta1_mean - r8.eta1_mean > 2 * math.hypot(r3.eta1_se, r8.eta1_se)


def test_frozen_everything_keeps_disagreement():
    # a kept set covering all vertices resamples nothing: the chain is the
    # identity and a seeded disagreement survives every step
    g = graphs.custom(6, [])
    table = exact_table(ProductMeasure(), g)
    op = block_dyn.block_operator(
        table, graphs.Fixed(np.ones(6, dtype=bool)), g)
    assert np.allclose(op.matrix, np.eye(64))
    rng = stream(23, 40)
    for state in (0, 17, 63):
        assert block_chain_step(
            table, graphs.Fixed(np.ones(6, dtype=bool)), g, state, rng
        ) == state


def test_reducible_chain_flagged():
    import warnings as _w

    g = graphs.custom(3, [])
    t = exact_table(ProductMeasure(), g)
    spec = graphs.Explicit([
        (_bits.indices_to_mask([0], 3), 0.5),
        (_bits.indices_to_mask([0, 1], 3), 0.5),
    ])  # vertex 0 is always kept
    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        block_dyn.block_operator(t, spec, g)
    assert any("reducible" in str(c.message) for c in caught)


def test_spectrum_lanczos_path_matches_dense():
    g = graphs.cycle(6)
    t = exact_table(IsingMeasure(0.4), g)
    op = block_dyn.block_operator(t, graphs.UniformK(2), g)
    iterative = block_dyn.spectrum(op)
    root = np.sqrt(t.p)
    dense = np.linalg.eigvalsh(root[:, None] * op.matrix / root[None, :])
    assert iterative.lambda_2 == pytest.approx(dense[-2], abs=1e-9)
    # P is positive semidefinite: lambda_2 is also the largest nontrivial |eigenvalue|
    assert iterative.lambda_2 == pytest.approx(
        max(abs(dense[-2]), abs(dense[0])), abs=1e-9)


def test_magnetization_clue_bounded_by_lambda2():
    # cross-check: the subset-averaged clue of any observable sits below
    # the chain's second eigenvalue
    g = graphs.cycle(6)
    t = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    op = block_dyn.block_operator(t, spec, g)
    lam2 = block_dyn.spectrum(op).lambda_2
    from spinlab.measures import Magnetization

    val = clue.expected_clue(t, Magnetization(), spec, g)
    assert val <= lam2 + 1e-9


def test_transition_matrix_entries_against_literal_construction():
    # entry-by-entry oracle: P(x,y) = sum_S P[U=S] 1{x_S = y_S} mu(y)/mu_S(x_S)
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.45), g)
    spec = graphs.UniformK(2)
    op = block_dyn.block_operator(t, spec, g)
    size = 1 << 5
    oracle = np.zeros((size, size))
    for bits, prob in graphs.subset_support(spec, g):
        for x in range(size):
            xs = x & bits
            denom = sum(t.p[y] for y in range(size) if (y & bits) == xs)
            for y in range(size):
                if (y & bits) == xs:
                    oracle[x, y] += prob * t.p[y] / denom
    assert np.abs(op.matrix - oracle).max() < 1e-12


# -- property test against the literal construction ---------------------------


def _literal_matrix(t, support):
    # P(x,y) = sum_S P[U=S] 1{x_S = y_S} mu(y)/mu_S(x_S); stay put when
    # mu_S(x_S) = 0
    size = 1 << t.n
    oracle = np.zeros((size, size))
    for bits, prob in support:
        for x in range(size):
            block = [y for y in range(size) if (y & bits) == (x & bits)]
            denom = sum(t.p[y] for y in block)
            if denom <= 0:
                oracle[x, x] += prob
                continue
            for y in block:
                oracle[x, y] += prob * t.p[y] / denom
    return oracle


def _prefix_scan(t, matrix, f):
    # one dense Dirichlet form per level-set cut {f >= v}, v the lowest value
    # of a level; a level ends where sorted values drop by more than the
    # relative tolerance
    best = math.inf
    vals = np.sort(f)[::-1]
    tol = block_dyn.SWEEP_LEVEL_RTOL * np.abs(f).max()
    for v in vals[:-1][vals[:-1] - vals[1:] > tol]:
        ind = (f >= v).astype(float)
        mu_e = float(t.p @ ind)
        side = ind if mu_e <= 0.5 else 1.0 - ind
        mu_side = min(mu_e, 1.0 - mu_e)
        if mu_side > 0:
            best = min(best, float(t.p @ (side * (side - matrix @ side))) / mu_side)
    return best


@st.composite
def _chains(draw):
    n = draw(st.integers(1, 6))
    if n >= 4 and draw(st.booleans()):
        g = graphs.cycle(n)  # the tiled kind needs coordinates
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        eset = set(edges)
        shifts = [
            [(v + s) % n for v in range(n)] for s in range(n)
            if all(tuple(sorted(((u + s) % n, (v + s) % n))) in eset for u, v in edges)
        ]
        g = graphs.custom(n, edges, shifts)
    if draw(st.booleans()):
        t = exact_table(IsingMeasure(draw(st.floats(0.0, 1.0))), g)
    else:
        q = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95)))
        t = exact_table(ProductMeasure(q), g)
    mask = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    base = st.one_of(
        mask.map(graphs.Fixed),
        st.floats(0.0, 1.0).map(graphs.Bernoulli),
        st.integers(0, n).map(graphs.UniformK),
        mask.map(graphs.UniformTranslate),
        st.lists(st.tuples(mask, st.floats(0.01, 1.0)), min_size=1, max_size=4).map(
            lambda items: graphs.Explicit(
                [(m, w / sum(w for _, w in items)) for m, w in items])),
    )
    if g.shape is not None:
        base = st.one_of(base, st.just(graphs.Tiled(1)))
    spec = draw(base)
    if draw(st.booleans()):
        spec = graphs.UnionOfKCopies(spec, draw(st.integers(1, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    return g, t, spec, np.random.default_rng(seed)


@pytest.mark.filterwarnings("ignore:some vertex is kept")
@settings(max_examples=60, deadline=None)
@given(_chains())
def test_operator_matches_literal_construction(chain):
    g, t, spec, rng = chain
    op = block_dyn.block_operator(t, spec, g)
    matrix = op.matrix
    assert np.abs(matrix - _literal_matrix(t, graphs.subset_support(spec, g))).max() < 1e-12
    size = 1 << t.n
    f = rng.standard_normal(size)
    if t.variance(f) > 1e-6:
        assert block_dyn.dirichlet_form(op, f) / t.variance(f) == pytest.approx(
            1 - clue.expected_clue(t, f, spec, g), abs=1e-9)
    # a few distinct values force ties, which no level-set cut splits
    for values in (f, rng.integers(0, 3, size=size).astype(float)):
        assert block_dyn.sweep_cut_bottleneck(op, values) == pytest.approx(
            _prefix_scan(t, matrix, values), abs=1e-12)
