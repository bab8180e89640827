import math
import warnings

import numpy as np
import pytest

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
    assert clue.iclue_exact(t, f, 0b1111) == pytest.approx(1.0, abs=1e-12)
    assert clue.iclue_exact(t, f, 0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        clue.iclue_exact(t, np.ones(16), 0b1)


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


def test_expected_clue_sampled_mode():
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.4), g)
    f = Magnetization()
    spec = graphs.UniformK(2)
    exact = clue.expected_clue(t, f, spec, g)
    est = clue.expected_clue(t, f, spec, g, cap=3, rng=stream(17, 2), replicas=400)
    assert abs(est.value - exact) <= 4 * est.standard_error


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
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    fam = clue.ConditionalFamily(t, {
        0b01: SingleSpin(0).table_values(2),
        0b10: SingleSpin(1).table_values(2),
    })
    spec = graphs.UniformK(1)
    vals, dropped = clue.apply_M_operator(fam, spec, g, t)
    assert dropped == []
    assert t.variance(vals) == pytest.approx(0.5, abs=1e-12)
    assert clue.average_correlation(fam, spec, g, t) == pytest.approx(0.5, abs=1e-12)
    # the bizarre identity evaluates to 1/2 here
    assert clue.mean_correlation_with(vals, fam, spec, g, t) ** 2 == pytest.approx(
        0.5, abs=1e-12)


def test_m_operator_fixed_spec_unit_variance():
    g = graphs.cycle(4)
    t = exact_table(IsingMeasure(0.3), g)
    spec = graphs.Fixed(_bits.indices_to_mask([0, 1], 4))
    fam = clue.ConditionalFamily.of_conditionals(
        t, Magnetization(), [0b0011])
    vals, _ = clue.apply_M_operator(fam, spec, g, t)
    assert t.variance(vals) == pytest.approx(1.0, abs=1e-10)


def test_m_operator_drops_degenerate_members():
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    fam = clue.ConditionalFamily(t, {
        0b00: np.zeros(4),
        0b01: SingleSpin(0).table_values(2),
    })
    spec = graphs.Explicit([
        (np.zeros(2, dtype=bool), 0.5),
        (_bits.indices_to_mask([0], 2), 0.5),
    ])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals, dropped = clue.apply_M_operator(fam, spec, g, t)
    assert dropped == [0]
    assert len(caught) == 1
    # remaining term: 0.5 * sigma_0 / 1
    assert np.allclose(vals, 0.5 * SingleSpin(0).table_values(2))


def test_var_m_equals_average_correlation():
    rng = stream(17, 5)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        g = graphs.custom(n, [])
        t = random_table(n, rng)
        f = rng.standard_normal(1 << n)
        spec = graphs.UniformK(int(rng.integers(1, n + 1)))
        support = [s for s, _ in graphs.subset_support(spec, g)]
        fam = clue.ConditionalFamily.of_conditionals(t, f, support)
        vals, _ = clue.apply_M_operator(fam, spec, g, t)
        assert t.variance(vals) == pytest.approx(
            clue.average_correlation(fam, spec, g, t), abs=1e-10)


def test_correlation_identity_random_tables():
    # product form: Corr(Z, M[Y]) * E[Corr(M[Y], Y_U)] = E[Corr(Z, Y_U)]
    rng = stream(17, 6)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        g = graphs.custom(n, [])
        t = random_table(n, rng)
        f = rng.standard_normal(1 << n)
        spec = graphs.UniformK(int(rng.integers(1, n)))
        support = [s for s, _ in graphs.subset_support(spec, g)]
        fam = clue.ConditionalFamily.of_conditionals(t, f, support)
        mvals, _ = clue.apply_M_operator(fam, spec, g, t)
        lhs = table_corr(t, f, mvals) * clue.mean_correlation_with(
            mvals, fam, spec, g, t)
        rhs = clue.mean_correlation_with(f, fam, spec, g, t)
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
    rep = clue.boost_reconstruction(
        Magnetization(), graphs.UniformK(1), 6, t, g)
    assert rep.achieved >= rep.lower_bound
    assert rep.achieved > rep.unboosted


def test_boost_rejects_degenerate_support():
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    spec = graphs.Bernoulli(0.5)  # includes the empty subset
    with pytest.raises(ValueError):
        clue.boost_reconstruction(Magnetization(), spec, 2, t, g)


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
    exact = cw.cw_majority_guess_success(n, beta, k)
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

    def draw_full(self, rng):
        return rng.choice(np.array([-1, 1], dtype=np.int8), size=self.n)

    def resample_free(self, config, frozen_mask, rng):
        out = np.asarray(config).copy()
        free = ~frozen_mask
        out[free] = rng.choice(np.array([-1, 1], dtype=np.int8), size=int(free.sum()))
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


def test_clue_mc_matches_mean_field_oracle():
    from spinlab import curie_weiss as cw

    n, beta, k = 200, 0.5, 20
    g = graphs.complete(n)
    exact = cw.cw_exact_clue(n, beta, k, "magnetization")
    sampler = ising.ConditionalGibbsSampler(
        g, ising.IsingParams(beta, J=1.0 / n), sw_burnin=60, sweeps_between=8)
    est = clue.clue_mc(
        sampler, Magnetization(), _bits.indices_to_mask(range(k), n),
        outer=70, inner=10, rng=stream(17, 11))
    assert abs(est.value - exact) <= 3 * max(est.standard_error, 1e-3)


def test_clue_estimate_json():
    est = clue.ClueEstimate(0.5, 0.01, 10, 5)
    doc = est.to_json(seed=7)
    assert '"seed": 7' in doc and '"value": 0.5' in doc
