import math

import numpy as np
import pytest

from spinlab import _bits, clue, curie_weiss as cw, graphs, measures
from spinlab.measures import CurieWeissMeasure, Magnetization, Majority, exact_table


def test_pmf_beta0_is_binomial():
    pmf = cw.cw_magnetization_pmf(6, 0.0)
    expected = np.array([math.comb(6, m) / 64 for m in range(7)])
    assert np.allclose(pmf.probabilities, expected, atol=1e-14)


def test_pmf_two_spins():
    beta = 1.1
    pmf = cw.cw_magnetization_pmf(2, beta)
    # weights: C(2,0)e^beta, C(2,1), C(2,2)e^beta
    assert pmf.probabilities[2] / pmf.probabilities[1] == pytest.approx(
        math.exp(beta) / 2)


def test_pmf_symmetry_exact():
    for n, beta in [(7, 0.8), (12, 1.3), (101, 1.0)]:
        pmf = cw.cw_magnetization_pmf(n, beta)
        assert np.array_equal(pmf.probabilities, pmf.probabilities[::-1])


def test_pmf_matches_exact_table():
    # the magnetization law marginalized from the full 2^n table
    n, beta = 8, 0.9
    table = exact_table(CurieWeissMeasure(beta), graphs.complete(n))
    idx = _bits.config_indices(n)
    s_all = _bits.total_spin(idx, n).astype(int)
    marginal = np.array([
        table.p[s_all == s].sum() for s in range(-n, n + 1, 2)
    ])
    pmf = cw.cw_magnetization_pmf(n, beta)
    assert np.allclose(pmf.probabilities, marginal, atol=1e-12)


def test_moment_examples():
    assert cw.cw_moment(300, 0.0, 2).value == pytest.approx(1.0, abs=1e-10)
    m = cw.cw_moment(2000, 0.5, 2)
    assert abs(m.value - 2.0) < 0.2
    rep = cw.cw_moment(500, 0.9, 4)
    assert rep.lebowitz_ratio <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        cw.cw_moment(10, 0.5, 3)


def test_entropy_examples():
    rep = cw.cw_entropy(40, 0.0)
    assert rep.entropy_bits == pytest.approx(40.0, abs=1e-9)
    assert cw.cw_entropy(1000, 0.5).deficit_bits <= 0.9


def test_entropy_matches_exact_table():
    n, beta = 10, 1.2
    table = exact_table(CurieWeissMeasure(beta), graphs.complete(n))
    rep = cw.cw_entropy(n, beta)
    assert rep.entropy_bits == pytest.approx(table.entropy_bits(), abs=1e-9)


def test_relative_entropy_identities():
    for n, beta in [(50, 0.3), (400, 0.5), (1000, 1.0), (200, 1.7)]:
        rel = cw.cw_relative_entropy(n, beta)
        ent = cw.cw_entropy(n, beta)
        assert rel.d_bits == pytest.approx(ent.deficit_bits, abs=1e-9)
        assert rel.gap_bits >= -1e-12
        assert rel.d_bits <= rel.moment_bound_bits + 1e-9
        # exact rearrangement: D + gap = moment bound
        assert rel.d_bits + rel.gap_bits == pytest.approx(
            rel.moment_bound_bits, abs=1e-9)
    assert cw.cw_relative_entropy(100, 0.0).d_bits == pytest.approx(0.0, abs=1e-12)


def test_exact_clue_edge_cases():
    assert cw.cw_exact_clue(20, 0.8, 0) == 0.0
    assert cw.cw_exact_clue(20, 0.8, 20) == 1.0


def test_exact_clue_iid_is_fraction_observed():
    for n, k in [(10, 3), (100, 17), (1000, 250)]:
        assert cw.cw_exact_clue(n, 0.0, k) == pytest.approx(k / n, abs=1e-10)


def test_exact_clue_matches_generic_table():
    # oracle equivalence: the closed-form conditional sums against the
    # generic conditional-variance computation on the full table
    for n in (6, 10, 14):
        g = graphs.complete(n)
        for beta in (0.0, 0.5, 1.0, 1.5):
            table = exact_table(CurieWeissMeasure(beta), g)
            for k in (1, n // 3, n - 1):
                ubits = (1 << k) - 1
                for target, obs in (
                    ("magnetization", Magnetization()),
                    ("majority", Majority()),
                ):
                    generic = clue.clue_exact(table, obs, ubits)
                    fast = cw.cw_exact_clue(n, beta, k, target)
                    assert fast == pytest.approx(generic, abs=1e-9), (n, beta, k, target)


def test_iclue_matches_generic_table():
    for n, beta, k in [(8, 0.5, 2), (10, 1.2, 3), (12, 0.0, 5)]:
        g = graphs.complete(n)
        table = exact_table(CurieWeissMeasure(beta), g)
        ubits = (1 << k) - 1
        generic = clue.iclue_exact(table, Majority(), ubits)
        fast = cw.cw_iclue(n, beta, k).iclue
        assert fast == pytest.approx(generic, abs=1e-9)


def test_iclue_edges_and_bound():
    rep0 = cw.cw_iclue(30, 0.7, 0)
    assert rep0.iclue == 0.0
    repn = cw.cw_iclue(30, 0.7, 30)
    assert repn.iclue == 1.0
    for k in (1, 5, 20, 60):
        rep = cw.cw_iclue(1000, 0.5, k)
        assert rep.iclue <= rep.bound + 1e-9


def test_iclue_monotone_in_k():
    vals = [cw.cw_iclue(200, 0.8, k).iclue for k in (0, 5, 20, 50, 120, 200)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_clue_monotone_in_k():
    for beta in (0.0, 0.7, 1.4):
        vals = [cw.cw_exact_clue(60, beta, k) for k in range(0, 61, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_majority_guess_success_examples():
    assert cw.cw_majority_guess_success(100, 0.9, 100) == 1.0
    # single coin against the majority of fair coins: 1/2 + Theta(1/sqrt(n))
    for n in (201, 801):
        s = cw.cw_majority_guess_success(n, 0.0, 1)
        excess = s - 0.5
        assert 0.1 / math.sqrt(n) < excess < 3.0 / math.sqrt(n)
    assert cw.cw_majority_guess_success(2000, 1.5, 50) >= 0.95


def test_majority_guess_matches_exact_table():
    # oracle: enumerate the full table and compare sign of observed sum
    n, beta, k = 9, 0.8, 3
    g = graphs.complete(n)
    table = exact_table(CurieWeissMeasure(beta), g)
    idx = _bits.config_indices(n)
    s_all = _bits.total_spin(idx, n)
    obs_sum = np.zeros(1 << n)
    for v in range(k):
        obs_sum += _bits.spins_of(idx, v)
    agree = (obs_sum > 0) == (s_all > 0)
    oracle = float(table.p @ agree)
    assert cw.cw_majority_guess_success(n, beta, k) == pytest.approx(oracle, abs=1e-10)


def test_threshold_search_consistency():
    n, beta = 400, 1.0
    k_star = cw.cw_threshold_k(n, beta, 0.5, "majority")
    assert cw.cw_exact_clue(n, beta, k_star, "majority") >= 0.5
    assert cw.cw_exact_clue(n, beta, k_star - 1, "majority") < 0.5


def test_input_validation():
    with pytest.raises(ValueError):
        cw.cw_magnetization_pmf(0, 0.5)
    with pytest.raises(ValueError):
        cw.cw_magnetization_pmf(5, -0.1)
    with pytest.raises(ValueError):
        cw.cw_exact_clue(10, 0.5, 11)
    with pytest.raises(ValueError):
        cw.cw_majority_guess_success(10, 0.5, 0)
