import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import _bits, block_dyn, clue, graphs, ising, measures
from spinlab.measures import (
    CurieWeissMeasure,
    Custom,
    IsingMeasure,
    Magnetization,
    Majority,
    ProductMeasure,
    SingleSpin,
    exact_table,
)
from spinlab.rng import stream
from oracles import (
    average_correlation_by_subset,
    expected_clue_by_subset,
    iclue_exact,
    mean_correlation_by_subset,
    shearer_rhs_by_subset,
)


def table_corr(table, a, b):
    am, bm = table.expectation(a), table.expectation(b)
    cov = table.expectation((a - am) * (b - bm))
    return cov / math.sqrt(table.variance(a) * table.variance(b))


def random_table(n, rng):
    return measures.ProbabilityTable(n, rng.dirichlet(np.ones(1 << n)))


def test_clue_full_and_empty():
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.4), g)
    f = Majority()
    assert clue.clue_exact(t, f, (1 << 5) - 1) == pytest.approx(1.0, abs=1e-12)
    assert clue.clue_exact(t, f, 0) == pytest.approx(0.0, abs=1e-12)


def test_clue_constant_function_zero():
    g = graphs.cycle(4)
    t = exact_table(ProductMeasure(), g)
    assert clue.clue_exact(t, np.full(16, 3.7), 0b0011) == 0.0


def test_clue_maj3_singleton():
    g = graphs.custom(3, [])
    t = exact_table(ProductMeasure(), g)
    assert clue.clue_exact(t, Majority(), 0b001) == pytest.approx(0.25)


def test_clue_monotone_under_inclusion():
    rng = stream(17, 0)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        t = random_table(n, rng)
        f = rng.standard_normal(1 << n)
        u = int(rng.integers(0, 1 << n))
        extra = int(rng.integers(0, 1 << n))
        bigger = u | extra
        assert clue.clue_exact(t, f, u) <= clue.clue_exact(t, f, bigger) + 1e-12


def test_clue_sharpness_on_iid():
    # the observed-sum function explains itself; the average attains the
    # membership fraction exactly
    n = 6
    g = graphs.cycle(n)
    t = exact_table(ProductMeasure(), g)
    ubits = 0b010110
    idx = _bits.config_indices(n)
    f_obs = sum(_bits.spins_of(idx, v) for v in (1, 2, 4))
    assert clue.clue_exact(t, f_obs, ubits) == pytest.approx(1.0, abs=1e-12)
    m = Magnetization()
    assert clue.clue_exact(t, m, ubits) == pytest.approx(3 / n, abs=1e-12)


def test_iclue_exact_edges():
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.6), g)
    f = Majority()
    assert iclue_exact(t, f, 0b1111) == pytest.approx(1.0, abs=1e-12)
    assert iclue_exact(t, f, 0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        iclue_exact(t, np.ones(16), 0b1)


def test_expected_clue_fixed_equals_exact():
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.3), g)
    f = Magnetization()
    spec = graphs.Fixed(_bits.indices_to_mask([0, 2], 5))
    assert clue.expected_clue(t, f, spec, g) == pytest.approx(
        clue.clue_exact(t, f, 0b00101), abs=1e-12)


def test_expected_clue_product_bound():
    # membership bound on coin flips, any function
    n = 6
    g = graphs.cycle(n)
    t = exact_table(ProductMeasure(), g)
    rng = stream(17, 1)
    spec = graphs.UniformK(2)
    for _ in range(10):
        f = rng.standard_normal(1 << n)
        val = clue.expected_clue(t, f, spec, g)
        assert val <= 2 / n + 1e-10


@st.composite
def _clue_cases(draw):
    """A graph of at most 8 vertices, a table on it (Ising with h != 0,
    product, or random with zero-probability states), a spec of any
    enumerable kind, a stack of functions holding a constant row, and a
    cell budget (small ones split the support into groups and the stack
    into chunks)."""
    n = draw(st.integers(1, 8))
    if n >= 4 and draw(st.booleans()):
        g = graphs.cycle(n)  # translations and tiles need a lattice
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = graphs.custom(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                          if pairs else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n
    table_kind = draw(st.sampled_from(["ising", "product", "sparse"]))
    if table_kind == "ising":
        h = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1, 1]))
        t = exact_table(IsingMeasure(draw(st.floats(0.0, 1.0)), draw(st.floats(0.2, 1.5)), h), g)
    elif table_kind == "product":
        t = exact_table(ProductMeasure(draw(st.floats(0.05, 0.95))), g)
    else:
        p = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.6)
        p[rng.integers(size)] += 0.1  # at least one state of positive mass
        t = measures.ProbabilityTable(n, p / p.sum())
    mask = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    base = st.one_of(
        mask.map(graphs.Fixed),
        st.one_of(st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=n,
                                               max_size=n)).map(graphs.Bernoulli),
        st.integers(0, n).map(graphs.UniformK),
        st.lists(st.tuples(mask, st.floats(0.01, 1.0)), min_size=1, max_size=4).map(
            lambda items: graphs.Explicit(
                [(m, w / sum(w for _, w in items)) for m, w in items])),
    )
    if g.translations is not None:
        base = st.one_of(base, mask.map(graphs.UniformTranslate), st.just(graphs.Tiled(1)))
    spec = draw(base)
    if draw(st.booleans()):
        spec = graphs.UnionOfKCopies(spec, draw(st.integers(1, 2)))
    rows = [rng.standard_normal(size), rng.integers(0, 3, size=size).astype(float),
            np.full(size, draw(st.floats(-5.0, 5.0))), 1e-4 * rng.standard_normal(size)]
    rows += list(rng.standard_normal((draw(st.integers(0, 9)), size)))
    budget = draw(st.sampled_from([1 << 9, 1 << 12, 1 << 14, clue.CLUE_CELL_BUDGET]))
    return g, t, spec, np.array(rows), budget


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_clue_cases())
def test_expected_clue_stack_matches_subset_loop(case):
    g, t, spec, stack, budget = case
    with mock.patch.object(clue, "CLUE_CELL_BUDGET", budget):
        values = clue.expected_clue(t, stack, spec, g)
        assert values.shape == (len(stack),)
        for row, value in zip(stack, values):
            assert value == pytest.approx(expected_clue_by_subset(t, row, spec, g), abs=1e-12)
            assert clue.expected_clue(t, row, spec, g) == pytest.approx(value, abs=1e-12)
        assert values[2] == 0.0  # the constant row
        bits, _ = graphs.subset_support(spec, g)[0]
        assert clue.clue_exact(t, stack[0], bits) == pytest.approx(
            expected_clue_by_subset(t, stack[0], graphs.Fixed(_bits.bits_to_mask(bits, t.n)), g),
            abs=1e-12)


@st.composite
def _aggregator_cases(draw):
    n = draw(st.integers(1, 10))
    size = 1 << n
    kind = draw(st.sampled_from(["ising", "product", "holes"]))
    if kind == "ising":
        t = exact_table(IsingMeasure(draw(st.floats(0.0, 1.0))), graphs.cycle(n) if n >= 3
                        else graphs.custom(n, []))
    elif kind == "product":  # q in {0, 1} leaves one state of positive mass
        t = exact_table(ProductMeasure(draw(st.sampled_from([0.0, 1.0, 0.3]))),
                        graphs.custom(n, []))
    else:  # a random table with a random share of its states at mass 0
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = rng.dirichlet(np.ones(size)) * (rng.random(size) < draw(st.floats(0.05, 1.0)))
        p[rng.integers(size)] += 1e-3
        t = measures.ProbabilityTable(n, p / p.sum())
    subsets = draw(st.lists(st.tuples(st.integers(0, size - 1), st.floats(0.0, 1.0)),
                            max_size=6))
    return t, subsets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_aggregator_cases())
def test_subset_aggregator_is_the_literal_partition(case):
    # the one builder behind ClueKernel and BlockOperator, against the
    # partition of the configurations by x & bits, subset by subset
    t, subsets = case
    size = 1 << t.n
    agg = clue.subset_aggregator(t, subsets)
    idx = np.arange(size)
    assert agg.keys.shape == (size, len(subsets)) and agg.keys.dtype == np.int32
    assert not subsets or np.shares_memory(agg.keys, agg.matrix.indices)
    assert agg.matrix.nnz == size * len(subsets)
    assert list(agg.probs) == [prob for _, prob in subsets]
    start = 0
    for j, (bits, _) in enumerate(subsets):
        patterns = 1 << bin(bits).count("1")
        assert agg.offsets[j] == start
        rows = agg.keys[:, j]
        assert ((rows >= start) & (rows < start + patterns)).all()
        # two configurations share a row exactly when x & bits agree
        shown = idx & bits
        assert np.array_equal(rows[:, None] == rows[None, :], shown[:, None] == shown[None, :])
        # rows are ranked by x & bits, so the row of pattern b is its rank
        assert np.array_equal(np.unique(rows), start + np.arange(patterns))
        assert np.array_equal(np.argsort(rows, kind="stable"),
                              np.argsort(shown, kind="stable"))
        mass = np.array([t.p[shown == b].sum() for b in shown])
        scale = agg.matrix.data.reshape(size, -1)[:, j]
        pos = mass > 0
        assert np.abs(scale[pos] ** 2 * mass[pos] - 1.0).max(initial=0.0) < 1e-12
        assert (scale[~pos] == 0).all()
        start += patterns
    assert agg.matrix.shape == (start, size)


def test_expected_clue_stack_crosses_chunks_and_groups():
    g = graphs.cycle(8)
    t = exact_table(IsingMeasure(0.4, h=0.3), g)
    spec = graphs.Bernoulli(0.5)
    stack = stream(17, 5).standard_normal((10, 256))
    with mock.patch.object(clue, "CLUE_CELL_BUDGET", 1 << 14):
        kernel = clue.ClueKernel.of_spec(t, spec, g)
        assert len(kernel._groups) > 1 and kernel.rows < len(stack)
        values = clue.expected_clue(t, stack, spec, g)
    for row, value in zip(stack, values):
        assert value == pytest.approx(expected_clue_by_subset(t, row, spec, g), abs=1e-12)


def test_expected_clue_shapes():
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    assert isinstance(clue.expected_clue(t, Majority(), spec, g), float)
    assert isinstance(clue.expected_clue(t, np.arange(16.0), spec, g), float)
    assert clue.expected_clue(t, np.zeros((0, 16)), spec, g).shape == (0,)
    with pytest.raises(ValueError):
        clue.expected_clue(t, np.zeros((2, 8)), spec, g)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expected_clue_memory_stays_under_the_cell_budget():
    # 91 subsets of 2^14 states do not fit in one group at the default budget
    g = graphs.cycle(14)
    t = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    stack = stream(17, 6).standard_normal((20, 1 << 14))
    assert len(clue.ClueKernel.of_spec(t, spec, g)._groups) > 1
    peak = _peak_bytes(lambda: clue.expected_clue(t, stack, spec, g))
    assert peak <= 8 * clue.CLUE_CELL_BUDGET


def test_eigenclue_verify_memory():
    g = graphs.cycle(11)
    t = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    peak = _peak_bytes(lambda: block_dyn.eigenclue_verify(t, spec, g, 100, stream(1, 0)))
    assert peak <= 2.5e6


def test_p_operator_examples():
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.5), g)
    f = Majority().table_values(4)
    full = graphs.Fixed(np.ones(4, dtype=bool))
    assert np.allclose(block_dyn.block_operator(t, full, g).apply(f), f, atol=1e-12)
    empty = graphs.Fixed(np.zeros(4, dtype=bool))
    out = block_dyn.block_operator(t, empty, g).apply(f)
    assert np.allclose(out, t.expectation(f), atol=1e-12)


def test_p_operator_single_spin_shrinks():
    # one fair spin observed with probability q, else nothing
    g = graphs.custom(1, [])
    t = exact_table(ProductMeasure(), g)
    q = 0.35
    spec = graphs.Explicit([
        (np.array([True]), q), (np.array([False]), 1 - q)])
    f = SingleSpin(0).table_values(1)
    out = block_dyn.block_operator(t, spec, g).apply(f)
    assert np.allclose(out, q * f, atol=1e-12)


def test_p_operator_iteration_converges_to_eigenfunction():
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    rng = stream(17, 3)
    f = rng.standard_normal(32)
    op = block_dyn.block_operator(t, spec, g)
    prev = f
    for _ in range(60):
        prev = op.apply(prev)
    nxt = op.apply(prev)
    # centered iterates align with a single eigendirection
    a = prev - t.expectation(prev)
    b = nxt - t.expectation(nxt)
    ratio = t.expectation(a * b) / t.expectation(a * a)
    assert np.allclose(b, ratio * a, atol=1e-8)


def test_p_is_good_inequality():
    # clue never decreases after subset-averaging; equality only for
    # eigenfunctions
    rng = stream(17, 4)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = graphs.custom(n, [])
        t = random_table(n, rng)
        spec = graphs.UniformK(1)
        f = rng.standard_normal(1 << n)
        before = clue.expected_clue(t, f, spec, g)
        pf = block_dyn.block_operator(t, spec, g).apply(f)
        after = clue.expected_clue(t, pf, spec, g)
        assert before <= after + 1e-10


def test_m_operator_hand_instance():
    # members sigma_0 and sigma_1 once normalized
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    spec = graphs.UniformK(1)
    vals, dropped = clue.normalized_average(t, Magnetization(), spec, g)
    assert dropped == []
    assert t.variance(vals) == pytest.approx(0.5, abs=1e-12)
    assert average_correlation_by_subset(t, Magnetization(), spec, g) == pytest.approx(
        0.5, abs=1e-12)
    # the bizarre identity evaluates to 1/2 here
    assert mean_correlation_by_subset(t, vals, Magnetization(), spec, g) ** 2 == pytest.approx(
        0.5, abs=1e-12)


def test_m_operator_fixed_spec_unit_variance():
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.3), g)
    spec = graphs.Fixed(_bits.indices_to_mask([0, 1], 4))
    vals, _ = clue.normalized_average(t, Magnetization(), spec, g)
    assert t.variance(vals) == pytest.approx(1.0, abs=1e-10)


def test_m_operator_drops_degenerate_members():
    # E[sigma_0 | nothing] is constant; the other member is sigma_0
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    spec = graphs.Explicit([
        (np.zeros(2, dtype=bool), 0.5),
        (_bits.indices_to_mask([0], 2), 0.5),
    ])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals, dropped = clue.normalized_average(t, SingleSpin(0), spec, g)
    assert dropped == [0]
    assert len(caught) == 1
    # remaining term: 0.5 * sigma_0 / 1
    assert np.allclose(vals, 0.5 * SingleSpin(0).table_values(2))
    with pytest.raises(ValueError, match="degenerate"):
        clue.normalized_average(t, np.full(4, 2.5), spec, g)


def test_var_m_equals_average_correlation():
    rng = stream(17, 5)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        g = graphs.custom(n, [])
        t = random_table(n, rng)
        f = rng.standard_normal(1 << n)
        spec = graphs.UniformK(int(rng.integers(1, n + 1)))
        vals, _ = clue.normalized_average(t, f, spec, g)
        assert t.variance(vals) == pytest.approx(
            average_correlation_by_subset(t, f, spec, g), abs=1e-10)


def test_correlation_identity_random_tables():
    # product form: Corr(Z, M[Y]) * E[Corr(M[Y], Y_U)] = E[Corr(Z, Y_U)]
    rng = stream(17, 6)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        g = graphs.custom(n, [])
        t = random_table(n, rng)
        f = rng.standard_normal(1 << n)
        spec = graphs.UniformK(int(rng.integers(1, n)))
        mvals, _ = clue.normalized_average(t, f, spec, g)
        lhs = table_corr(t, f, mvals) * mean_correlation_by_subset(t, mvals, f, spec, g)
        rhs = mean_correlation_by_subset(t, f, f, spec, g)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_boost_iid_hand_value():
    g = graphs.custom(4, [])
    t = exact_table(ProductMeasure(), g)
    rep = clue.boost_reconstruction(
        Magnetization(), graphs.UniformK(1), 4, t, g)
    assert rep.average_correlation == pytest.approx(0.25, abs=1e-12)
    assert rep.lower_bound == pytest.approx(0.5, abs=1e-12)
    assert rep.achieved >= rep.lower_bound
    assert rep.achieved == pytest.approx(175 / 256, abs=1e-12)


def test_boost_covers_everything_in_the_limit():
    g = graphs.custom(3, [])
    t = exact_table(ProductMeasure(), g)
    rep = clue.boost_reconstruction(
        Magnetization(), graphs.UniformK(1), 40, t, g)
    assert rep.achieved > 0.999


def test_boost_on_ordered_mean_field():
    g = graphs.complete(12)
    t = exact_table(CurieWeissMeasure(1.5), g)
    spec = graphs.UniformK(1)
    rep = clue.boost_reconstruction(Magnetization(), spec, 6, t, g)
    assert rep.achieved >= rep.lower_bound
    assert rep.achieved > rep.unboosted
    assert rep.average_correlation == pytest.approx(
        average_correlation_by_subset(t, Magnetization(), spec, g), abs=1e-10)


def test_boost_rejects_degenerate_support():
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    spec = graphs.Bernoulli(0.5)  # includes the empty subset
    with pytest.raises(ValueError), pytest.warns(UserWarning, match="dropped 1"):
        clue.boost_reconstruction(Magnetization(), spec, 2, t, g)


def test_aggregator_bytes_refused_before_building():
    # 1140 subsets of 3 among 20 vertices: about 14 GB of entries
    n = 20
    g = graphs.custom(n, [])
    t = measures.ProbabilityTable(n, np.full(1 << n, 1.0 / (1 << n)))
    spec = graphs.UniformK(3)
    for run in (lambda: clue.boost_reconstruction(Magnetization(), spec, 2, t, g),
                lambda: clue.normalized_average(t, Magnetization(), spec, g),
                lambda: clue.shearer_check(t, spec, g)):
        with pytest.raises(ValueError, match=r"about \d+ bytes for 1140 subsets"):
            run()


def test_shearer_examples():
    # fair coins, uniform singleton: equality at 1 bit
    g = graphs.custom(4, [])
    t = exact_table(ProductMeasure(), g)
    rep = clue.shearer_check(t, graphs.UniformK(1), g)
    assert rep.lhs == pytest.approx(1.0, abs=1e-10)
    assert rep.rhs == pytest.approx(1.0, abs=1e-10)
    assert rep.holds
    # fixed full set: both sides are the total entropy
    g6 = graphs.cycle(6)
    t6 = exact_table(IsingMeasure(0.5), g6)
    full = graphs.Fixed(np.ones(6, dtype=bool))
    rep = clue.shearer_check(t6, full, g6)
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-10)
    rep2 = clue.shearer_check(t6, graphs.UniformK(2), g6)
    assert rep2.holds
    assert rep2.lhs <= rep2.rhs + 1e-10


def test_shearer_rhs_matches_subset_loop():
    rng = stream(17, 8)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = graphs.custom(n, [])
        p = rng.dirichlet(np.ones(1 << n)) * (rng.random(1 << n) < 0.7)
        p[0] += 0.1  # holes: patterns of measure zero
        t = measures.ProbabilityTable(n, p / p.sum())
        for spec in (graphs.UniformK(int(rng.integers(0, n + 1))), graphs.Bernoulli(0.4)):
            assert clue.shearer_check(t, spec, g).rhs == pytest.approx(
                shearer_rhs_by_subset(t, spec, g), abs=1e-10)


def test_majority_guess():
    cfg = np.array([1, -1, 1, 1, -1])
    assert clue.majority_guess(cfg, _bits.indices_to_mask([0, 2, 3], 5)) == 1
    assert clue.majority_guess(cfg, _bits.indices_to_mask([0, 1], 5)) == -1  # tie
    assert clue.majority_guess(cfg, np.ones(5, dtype=bool)) == 1
    with pytest.raises(ValueError):
        clue.majority_guess(cfg, np.zeros(5, dtype=bool))


def test_majority_guess_success_matches_closed_form():
    from spinlab import curie_weiss as cw

    n, beta, k = 40, 1.2, 5
    g = graphs.complete(n)
    par = ising.IsingParams(beta, J=1.0 / n)
    rng = stream(17, 7)
    exact = cw.cw_observed_law(cw.cw_magnetization_pmf(n, beta), k).guess_success()
    mask = _bits.indices_to_mask(range(k), n)
    hits, n_samp = 0, 3000
    cfg = ising.sw_chain(g, par, rng, 100)
    for _ in range(n_samp):
        cfg = ising.sw_chain(g, par, rng, 3, cfg)
        hits += clue.majority_guess(cfg, mask) == (1 if cfg.sum() > 0 else -1)
    freq = hits / n_samp
    se = math.sqrt(max(freq * (1 - freq), 1e-4) / n_samp)
    assert abs(freq - exact) <= 4 * se


# -- Monte Carlo estimator ------------------------------------------------------


class ProductSampler:
    """Exact conditional sampler for coin flips (oracle for the estimator)."""

    def __init__(self, n):
        self.n = n

    def draw_full(self, rng, count):
        return rng.choice(np.array([-1, 1], dtype=np.int8), size=(count, self.n))

    def resample_free(self, configs, frozen_mask, rng):
        out = np.array(configs, ndmin=2)
        free = ~frozen_mask
        out[:, free] = rng.choice(np.array([-1, 1], dtype=np.int8),
                                  size=(len(out), int(free.sum())))
        return out


def test_clue_mc_product_measure():
    n, k = 10, 3
    sampler = ProductSampler(n)
    est = clue.clue_mc(
        sampler, Magnetization(), _bits.indices_to_mask(range(k), n),
        outer=220, inner=12, rng=stream(17, 8))
    assert abs(est.value - k / n) <= 3.5 * est.standard_error
    assert est.outer_samples == 220 and est.inner_samples == 12


def test_clue_mc_constant_function():
    sampler = ProductSampler(6)
    est = clue.clue_mc(
        sampler, Custom(lambda c: 1.0),
        _bits.indices_to_mask([0], 6), outer=30, inner=4, rng=stream(17, 9))
    assert est.value == 0.0


def test_clue_mc_validation():
    sampler = ProductSampler(4)
    with pytest.raises(ValueError):
        clue.clue_mc(sampler, Magnetization(), np.zeros(4, bool),
                     outer=10, inner=1, rng=stream(17, 10))
    with pytest.raises(ValueError):
        clue.clue_mc(sampler, Magnetization(), np.zeros(4, bool),
                     outer=1, inner=4, rng=stream(17, 10))


def test_clue_mc_inner_draws_start_from_their_outer_configuration():
    # with no sweeps between draws, every inner draw is its group's full draw
    g = graphs.torus(2, 4)
    sampler = ising.ConditionalGibbsSampler(g, ising.IsingParams(0.3), sweeps_between=0,
                                            sw_burnin=10)
    seen = {}

    def record(name, method):
        def wrapped(*args):
            seen[name] = method(*args)
            return seen[name]
        return wrapped

    sampler.draw_full = record("full", sampler.draw_full)
    sampler.resample_free = record("inner", sampler.resample_free)
    est = clue.clue_mc(sampler, Magnetization(), _bits.indices_to_mask([0, 5], 16),
                       outer=6, inner=3, rng=stream(17, 12))
    assert seen["inner"].shape == (18, 16)
    assert np.array_equal(seen["inner"].reshape(6, 3, 16),
                          np.broadcast_to(seen["full"][:, None], (6, 3, 16)))
    # no within-group spread: the conditional variance is all of Var(M)
    assert est.value == 1.0


def test_clue_mc_refuses_an_oversized_batch_before_drawing():
    class Refuse:
        def draw_full(self, rng, count):
            raise AssertionError("drew before checking the batch bytes")

    with pytest.raises(ValueError, match="bytes"):
        clue.clue_mc(Refuse(), Magnetization(), np.zeros(64, bool),
                     outer=1000, inner=100000, rng=stream(17, 13))


def test_clue_mc_matches_mean_field_oracle():
    from spinlab import curie_weiss as cw

    n, beta, k = 200, 0.5, 20
    g = graphs.complete(n)
    exact = cw.cw_observed_law(cw.cw_magnetization_pmf(n, beta), k).clue("magnetization")
    sampler = ising.ConditionalGibbsSampler(
        g, ising.IsingParams(beta, J=1.0 / n), sw_burnin=60, sweeps_between=8)
    est = clue.clue_mc(
        sampler, Magnetization(), _bits.indices_to_mask(range(k), n),
        outer=70, inner=10, rng=stream(17, 11))
    assert abs(est.value - exact) <= 3 * max(est.standard_error, 1e-3)

