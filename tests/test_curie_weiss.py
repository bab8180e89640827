import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import _bits, clue, curie_weiss as cw, graphs, measures
from spinlab.cli import main
from spinlab.measures import CurieWeissMeasure, Magnetization, Majority, exact_table
from oracles import iclue_exact


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
    pos = table.p[table.p > 0]
    assert rep.entropy_bits == pytest.approx(float(-(pos * np.log2(pos)).sum()), abs=1e-9)


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
        generic = iclue_exact(table, Majority(), ubits)
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


def _guess_oracle(table, n, k):
    """P[ sign of the sum of spins 0..k-1 matches the sign of S ] by
    enumerating the table, with sign(0) = -1 on both sides."""
    idx = _bits.config_indices(n)
    obs_sum = sum(_bits.spins_of(idx, v) for v in range(k))
    return float(table.p @ ((obs_sum > 0) == (_bits.total_spin(idx, n) > 0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       st.floats(0.0, 2.0))
def test_observed_law_readouts_match_enumeration(n_k, beta):
    n, k = n_k
    table = exact_table(CurieWeissMeasure(beta), graphs.complete(n))
    ubits = (1 << k) - 1
    law = cw.cw_observed_law(n, beta, k)
    assert law.clue("magnetization") == pytest.approx(
        clue.clue_exact(table, Magnetization(), ubits), abs=1e-9)
    assert law.clue("majority") == pytest.approx(
        clue.clue_exact(table, Majority(), ubits), abs=1e-9)
    assert law.iclue().iclue == pytest.approx(
        iclue_exact(table, Majority(), ubits), abs=1e-9)
    assert law.guess_success() == pytest.approx(_guess_oracle(table, n, k), abs=1e-9)
    assert law.p_a.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.exp(law.log_pa), law.p_a, rtol=1e-12, atol=0)


def test_cw_clue_recipe_builds_one_grid_per_point(tmp_path, monkeypatch):
    calls = []
    grid = cw._observed_grid

    def counted(n, beta, k):
        calls.append((n, beta, k))
        return grid(n, beta, k)

    monkeypatch.setattr(cw, "_observed_grid", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 60, "betas": [0.5, 1.5], "ks": [5, 20, 59]}))
    assert main(["cw-clue", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [(60, b, k) for b in (0.5, 1.5) for k in (5, 20, 59)]


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


def test_grid_guard_raises_before_allocating():
    n = 10**6  # a dense k = n/2 grid would need about 10 TB
    for call in (cw.cw_exact_clue, cw.cw_iclue, cw.cw_majority_guess_success):
        with pytest.raises(ValueError, match="bytes"):
            call(n, 0.5, n // 2)


def test_iclue_reads_the_law_pmf(monkeypatch):
    law = cw.cw_observed_law(500, 1.0, 20)
    ref = cw.cw_relative_entropy(500, 1.0).d_bits
    calls = []
    pmf = cw.cw_magnetization_pmf

    def counted(n, beta):
        calls.append((n, beta))
        return pmf(n, beta)

    monkeypatch.setattr(cw, "cw_magnetization_pmf", counted)
    rep = law.iclue()
    assert calls == []
    h_z = rep.h_target_bits
    assert rep.bound == (20 / 500) * (1.0 + ref / h_z)


def test_pmf_guard_raises_before_allocating():
    n = 3 * 10**8  # about 2.4 GB per float64 array over the total spins
    for call in (cw.cw_magnetization_pmf, cw.cw_entropy, cw.cw_relative_entropy):
        with pytest.raises(ValueError, match="bytes"):
            call(n, 0.5)
    with pytest.raises(ValueError, match="bytes"):
        cw.cw_moment(n, 0.5, 2)
