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


def _law(n, beta, k):
    return cw.cw_observed_law(cw.cw_magnetization_pmf(n, beta), k)


def test_moment_examples():
    assert cw.cw_magnetization_pmf(300, 0.0).moment(2).value == pytest.approx(1.0, abs=1e-10)
    m = cw.cw_magnetization_pmf(2000, 0.5).moment(2)
    assert abs(m.value - 2.0) < 0.2
    rep = cw.cw_magnetization_pmf(500, 0.9).moment(4)
    assert rep.lebowitz_ratio <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        cw.cw_magnetization_pmf(10, 0.5).moment(3)


def test_entropy_examples():
    rep = cw.cw_magnetization_pmf(40, 0.0).entropy
    assert rep.entropy_bits == pytest.approx(40.0, abs=1e-9)
    assert cw.cw_magnetization_pmf(1000, 0.5).entropy.deficit_bits <= 0.9


def test_entropy_matches_exact_table():
    n, beta = 10, 1.2
    table = exact_table(CurieWeissMeasure(beta), graphs.complete(n))
    rep = cw.cw_magnetization_pmf(n, beta).entropy
    pos = table.p[table.p > 0]
    assert rep.entropy_bits == pytest.approx(float(-(pos * np.log2(pos)).sum()), abs=1e-9)


def test_relative_entropy_identities():
    for n, beta in [(50, 0.3), (400, 0.5), (1000, 1.0), (200, 1.7)]:
        pmf = cw.cw_magnetization_pmf(n, beta)
        rel, ent = pmf.relative_entropy, pmf.entropy
        assert rel.d_bits == pytest.approx(ent.deficit_bits, abs=1e-9)
        assert rel.gap_bits >= -1e-12
        assert rel.d_bits <= rel.moment_bound_bits + 1e-9
        # exact rearrangement: D + gap = moment bound
        assert rel.d_bits + rel.gap_bits == pytest.approx(
            rel.moment_bound_bits, abs=1e-9)
    assert cw.cw_magnetization_pmf(100, 0.0).relative_entropy.d_bits == pytest.approx(
        0.0, abs=1e-12)


def test_exact_clue_edge_cases():
    assert _law(20, 0.8, 0).clue() == 0.0
    assert _law(20, 0.8, 20).clue() == 1.0


def test_exact_clue_iid_is_fraction_observed():
    for n, k in [(10, 3), (100, 17), (1000, 250)]:
        assert _law(n, 0.0, k).clue() == pytest.approx(k / n, abs=1e-10)


def test_exact_clue_matches_generic_table():
    # oracle equivalence: the closed-form conditional sums against the
    # generic conditional-variance computation on the full table
    for n in (6, 10, 14):
        g = graphs.complete(n)
        for beta in (0.0, 0.5, 1.0, 1.5):
            table = exact_table(CurieWeissMeasure(beta), g)
            pmf = cw.cw_magnetization_pmf(n, beta)
            for k in (1, n // 3, n - 1):
                ubits = (1 << k) - 1
                law = cw.cw_observed_law(pmf, k)
                for target, obs in (
                    ("magnetization", Magnetization()),
                    ("majority", Majority()),
                ):
                    generic = clue.clue_exact(table, obs, ubits)
                    fast = law.clue(target)
                    assert fast == pytest.approx(generic, abs=1e-9), (n, beta, k, target)


def test_iclue_matches_generic_table():
    for n, beta, k in [(8, 0.5, 2), (10, 1.2, 3), (12, 0.0, 5)]:
        g = graphs.complete(n)
        table = exact_table(CurieWeissMeasure(beta), g)
        ubits = (1 << k) - 1
        generic = iclue_exact(table, Majority(), ubits)
        fast = _law(n, beta, k).iclue().iclue
        assert fast == pytest.approx(generic, abs=1e-9)


def test_iclue_edges_and_bound():
    pmf = cw.cw_magnetization_pmf(30, 0.7)
    rep0 = cw.cw_observed_law(pmf, 0).iclue()
    assert rep0.iclue == 0.0
    repn = cw.cw_observed_law(pmf, 30).iclue()
    assert repn.iclue == 1.0
    pmf = cw.cw_magnetization_pmf(1000, 0.5)
    for k in (1, 5, 20, 60):
        rep = cw.cw_observed_law(pmf, k).iclue()
        assert rep.iclue <= rep.bound + 1e-9


def test_iclue_monotone_in_k():
    pmf = cw.cw_magnetization_pmf(200, 0.8)
    vals = [cw.cw_observed_law(pmf, k).iclue().iclue for k in (0, 5, 20, 50, 120, 200)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_clue_monotone_in_k():
    for beta in (0.0, 0.7, 1.4):
        pmf = cw.cw_magnetization_pmf(60, beta)
        vals = [cw.cw_observed_law(pmf, k).clue() for k in range(0, 61, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_majority_guess_success_examples():
    assert _law(100, 0.9, 100).guess_success() == 1.0
    # single coin against the majority of fair coins: 1/2 + Theta(1/sqrt(n))
    for n in (201, 801):
        s = _law(n, 0.0, 1).guess_success()
        excess = s - 0.5
        assert 0.1 / math.sqrt(n) < excess < 3.0 / math.sqrt(n)
    assert _law(2000, 1.5, 50).guess_success() >= 0.95


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
    assert _law(n, beta, k).guess_success() == pytest.approx(oracle, abs=1e-10)


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
    law = _law(n, beta, k)
    assert law.clue("magnetization") == pytest.approx(
        clue.clue_exact(table, Magnetization(), ubits), abs=1e-9)
    assert law.clue("majority") == pytest.approx(
        clue.clue_exact(table, Majority(), ubits), abs=1e-9)
    assert law.iclue().iclue == pytest.approx(
        iclue_exact(table, Majority(), ubits), abs=1e-9)
    assert law.guess_success() == pytest.approx(_guess_oracle(table, n, k), abs=1e-9)
    assert law.p_a.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.exp(law.log_pa), law.p_a, rtol=1e-12, atol=0)


def _count_report(monkeypatch, name):
    """Record the pmf of each computation of the cached report `name`."""
    prop = vars(cw.CwMagnetizationPmf)[name]
    compute, calls = prop.func, []

    def counted(pmf):
        calls.append((pmf.n, pmf.beta))
        return compute(pmf)

    monkeypatch.setattr(prop, "func", counted)
    return calls


def test_cw_clue_recipe_builds_one_grid_per_point(tmp_path, monkeypatch):
    calls = []
    grid = cw._observed_grid

    def counted(n, beta, k):
        calls.append((n, beta, k))
        return grid(n, beta, k)

    pmf_calls = []
    pmf = cw.cw_magnetization_pmf

    def counted_pmf(n, beta):
        pmf_calls.append((n, beta))
        return pmf(n, beta)

    monkeypatch.setattr(cw, "_observed_grid", counted)
    monkeypatch.setattr(cw, "cw_magnetization_pmf", counted_pmf)
    entropies = _count_report(monkeypatch, "entropy")
    relative_entropies = _count_report(monkeypatch, "relative_entropy")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 60, "betas": [0.5, 1.5], "ks": [5, 20, 59]}))
    assert main(["cw-clue", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [(60, b, k) for b in (0.5, 1.5) for k in (5, 20, 59)]
    one_per_beta = [(60, 0.5), (60, 1.5)]
    assert sorted(pmf_calls) == one_per_beta
    assert sorted(entropies) == one_per_beta
    assert sorted(relative_entropies) == one_per_beta


def test_threshold_search_consistency():
    n, beta = 400, 1.0
    k_star = cw.cw_threshold_k(n, beta, 0.5, "majority")
    pmf = cw.cw_magnetization_pmf(n, beta)
    assert cw.cw_observed_law(pmf, k_star).clue("majority") >= 0.5
    assert cw.cw_observed_law(pmf, k_star - 1).clue("majority") < 0.5


def test_threshold_search_matches_linear_scan(monkeypatch):
    # below, at and above the critical point; the doubling search returns
    # the first k of a linear scan and probes no k beyond twice it
    probed = []
    law = cw.cw_observed_law
    monkeypatch.setattr(cw, "cw_observed_law",
                        lambda pmf, k: probed.append(k) or law(pmf, k))
    for n in (1, 2, 7, 64, 200):
        for beta in (0.5, 1.0, 1.5):
            pmf = cw.cw_magnetization_pmf(n, beta)
            for target in ("majority", "magnetization"):
                clues = [law(pmf, k).clue(target) for k in range(n + 1)]
                for level in (0.05, 0.5, 0.9, 1.0 - 1e-9, 1.5):
                    scan = next((k for k in range(1, n + 1) if clues[k] >= level), None)
                    probed.clear()
                    if scan is None:
                        with pytest.raises(ValueError, match="unreachable"):
                            cw.cw_threshold_k(n, beta, level, target)
                        assert max(probed) == n
                        continue
                    assert cw.cw_threshold_k(n, beta, level, target) == scan
                    assert max(probed) <= min(2 * scan, n)


def test_input_validation():
    with pytest.raises(ValueError):
        cw.cw_magnetization_pmf(0, 0.5)
    with pytest.raises(ValueError):
        cw.cw_magnetization_pmf(5, -0.1)
    pmf = cw.cw_magnetization_pmf(10, 0.5)
    with pytest.raises(ValueError):
        cw.cw_observed_law(pmf, 11)
    with pytest.raises(ValueError):
        cw.cw_observed_law(pmf, 0).guess_success()
    with pytest.raises(ValueError, match="target"):
        cw.cw_observed_law(pmf, 3).clue("energy")


def test_grid_guard_raises_before_allocating():
    n = 10**6  # a dense k = n/2 grid would need about 10 TB
    pmf = cw.cw_magnetization_pmf(n, 0.5)
    with pytest.raises(ValueError, match="bytes"):
        cw.cw_observed_law(pmf, n // 2)


def test_iclue_reads_the_law_pmf(monkeypatch):
    pmf = cw.cw_magnetization_pmf(500, 1.0)
    law = cw.cw_observed_law(pmf, 20)
    ref = cw.cw_magnetization_pmf(500, 1.0).relative_entropy.d_bits
    calls = []
    build = cw.cw_magnetization_pmf

    def counted(n, beta):
        calls.append((n, beta))
        return build(n, beta)

    monkeypatch.setattr(cw, "cw_magnetization_pmf", counted)
    relative_entropies = _count_report(monkeypatch, "relative_entropy")
    rep = law.iclue()
    assert calls == []
    assert relative_entropies == [(500, 1.0)]
    assert law.iclue() == rep
    assert relative_entropies == [(500, 1.0)]  # the second iclue reads the cached report
    h_z = rep.h_target_bits
    assert rep.bound == (20 / 500) * (1.0 + ref / h_z)


def test_pmf_guard_raises_before_allocating():
    n = 3 * 10**8  # about 2.4 GB per float64 array over the total spins
    with pytest.raises(ValueError, match="bytes"):
        cw.cw_magnetization_pmf(n, 0.5)
