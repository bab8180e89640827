import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import _bits, graphs, measures
from spinlab.measures import (
    CurieWeissMeasure,
    Custom,
    DacMeasure,
    Indicator,
    IsingMeasure,
    Magnetization,
    Majority,
    Parity,
    ProductMeasure,
    SingleSpin,
    TotalSum,
    exact_table,
    walsh_transform,
)
from spinlab.rng import stream


def test_product_uniform_table():
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    assert np.allclose(t.p, 0.25)


def test_curie_weiss_two_spin_table():
    # single edge with coupling 1/2: aligned weight e^{beta/2} each
    beta = 0.9
    t = exact_table(CurieWeissMeasure(beta), graphs.complete(2))
    assert t.p[0b11] / t.p[0b01] == pytest.approx(math.exp(beta))
    assert t.p[0b00] == pytest.approx(t.p[0b11])
    assert t.p[0b11] / (t.p[0b01] + t.p[0b10]) == pytest.approx(math.exp(beta) / 2)


def test_ising_beta_zero_uniform():
    g = graphs.custom(2, [[0, 1]])
    t = exact_table(IsingMeasure(0.0, J=3.0), g)
    assert np.allclose(t.p, 0.25)


def test_table_cap():
    g = graphs.custom(21, [])
    with pytest.raises(ValueError):
        exact_table(ProductMeasure(), g)


def test_table_sums_to_one():
    for beta in (0.2, 0.7):
        t = exact_table(IsingMeasure(beta), graphs.cycle(6))
        assert abs(t.p.sum() - 1.0) < 1e-12


def test_translation_invariant_marginals():
    t = exact_table(IsingMeasure(0.45), graphs.cycle(7))
    marg = t.marginal_plus()
    assert np.abs(marg - marg[0]).max() < 1e-10


def test_observable_eval_examples():
    m = Magnetization()
    assert m.evaluate(np.array([1, 1, -1, -1])) == 0.0
    maj = Majority()
    assert maj.evaluate(np.array([1, -1])) == -1.0  # tie
    par = Parity([1, 2])
    assert par.evaluate(np.array([1, -1, 1, 1])) == -1.0
    assert SingleSpin(2).evaluate(np.array([1, 1, -1])) == -1.0
    assert TotalSum().evaluate(np.array([1, 1, -1])) == 1.0


def test_observable_tables_match_eval():
    n = 4
    observables = [
        Magnetization(), Majority(),
        Parity([0, 3]), SingleSpin(1),
        TotalSum(), Indicator([3, 7]),
        Custom(lambda c: float(c[0] * c[1])),
    ]
    for obs in observables:
        vals = obs.table_values(n)
        for idx in range(1 << n):
            cfg = _bits.index_to_config(idx, n)
            assert vals[idx] == pytest.approx(obs.evaluate(cfg))


def test_susceptibility_product_is_one():
    g = graphs.cycle(5)
    t = exact_table(ProductMeasure(), g)
    rep = measures.susceptibility(t, g)
    assert rep.chi == pytest.approx(1.0, abs=1e-10)


def test_susceptibility_cw_beta0():
    g = graphs.complete(2)
    t = exact_table(CurieWeissMeasure(0.0), g)
    assert measures.susceptibility(t, g).chi == pytest.approx(1.0, abs=1e-10)


def test_susceptibility_identity_ising_cycle():
    g = graphs.cycle(6)
    t = exact_table(IsingMeasure(0.3), g)
    rep = measures.susceptibility(t, g)
    assert rep.chi == pytest.approx(rep.n_times_var_m, abs=1e-9)


def test_susceptibility_needs_translations():
    g = graphs.box(1, 4)
    t = exact_table(ProductMeasure(), g)
    with pytest.raises(ValueError):
        measures.susceptibility(t, g)


# -- Fourier layer -------------------------------------------------------------


def brute_walsh(values, n):
    """Independent oracle: coefficient of S as the explicit inner product."""
    out = np.zeros(1 << n)
    for s in range(1 << n):
        total = 0.0
        for idx in range(1 << n):
            chi = 1.0
            for v in range(n):
                if (s >> v) & 1:
                    chi *= 1.0 if (idx >> v) & 1 else -1.0
            total += values[idx] * chi
        out[s] = total / (1 << n)
    return out


def test_walsh_single_spin():
    vals = SingleSpin(0).table_values(3)
    coef = walsh_transform(vals, 3)
    expected = np.zeros(8)
    expected[0b001] = 1.0
    assert np.allclose(coef, expected, atol=1e-12)


def test_walsh_constant():
    coef = walsh_transform(np.full(8, 2.5), 3)
    assert coef[0] == pytest.approx(2.5)
    assert np.abs(coef[1:]).max() < 1e-12


def test_walsh_majority3_against_enumeration():
    vals = Majority().table_values(3)
    coef = walsh_transform(vals, 3)
    oracle = brute_walsh(vals, 3)
    assert np.allclose(coef, oracle, atol=1e-12)
    for s in (0b001, 0b010, 0b100):
        assert coef[s] == pytest.approx(0.5)
    assert coef[0b111] == pytest.approx(-0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**9))
def test_walsh_parseval_and_inverse(n, seed):
    rng = stream(seed, 123)
    vals = rng.standard_normal(1 << n)
    coef = walsh_transform(vals, n)
    assert (coef**2).sum() == pytest.approx((vals**2).mean(), rel=1e-10)
    back = measures.inverse_walsh(coef, n)
    assert np.allclose(back, vals, atol=1e-10)


def test_walsh_matches_enumeration_random():
    rng = stream(5, 5)
    for n in (2, 3, 4):
        vals = rng.standard_normal(1 << n)
        assert np.allclose(walsh_transform(vals, n), brute_walsh(vals, n), atol=1e-10)


def test_spectral_sample_deterministic_cases():
    rng = stream(6, 0)
    draws = measures.spectral_sample_product(
        SingleSpin(0), 3, rng, size=50)
    assert np.all(draws == 0b001)
    draws = measures.spectral_sample_product(
        Parity([0, 1, 2]), 3, rng, size=50)
    assert np.all(draws == 0b111)
    with pytest.raises(ValueError):
        measures.spectral_sample_product(np.ones(8), 3, rng)


def test_spectral_sample_frequencies():
    n = 3
    vals = Majority().table_values(n)
    coef = walsh_transform(vals, n)
    law = coef**2 / (coef**2).sum()
    rng = stream(6, 1)
    draws = measures.spectral_sample_product(vals, n, rng, size=40_000)
    freq = np.bincount(draws, minlength=8) / len(draws)
    se = np.sqrt(law * (1 - law) / len(draws))
    assert np.all(np.abs(freq - law) <= 4 * se + 1e-9)


def test_clue_via_spectrum_mc_matches_exact():
    # P[sample inside U | nonempty] estimated by Monte Carlo reproduces the
    # exact explained-variance fraction on the uniform measure
    from spinlab.clue import clue_exact

    n, ubits = 3, 0b011
    g = graphs.custom(n, [])
    t = exact_table(ProductMeasure(), g)
    vals = Majority().table_values(n)
    exact = clue_exact(t, vals, ubits)
    rng = stream(6, 2)
    draws = measures.spectral_sample_product(vals, n, rng, size=60_000)
    nonempty = draws[draws != 0]
    inside = np.mean([(int(s) | ubits) == ubits for s in nonempty])
    se = math.sqrt(exact * (1 - exact) / len(nonempty))
    assert abs(inside - exact) <= 4 * se
    assert measures.clue_from_spectrum(vals, n, ubits) == pytest.approx(exact, abs=1e-12)


def test_clue_fourier_equals_direct_200_pairs():
    # identity between the squared-coefficient law and the conditional
    # variance, checked on random pairs for every size up to 10
    from spinlab.clue import clue_exact

    rng = stream(6, 3)
    pairs_per_n = 200 // 9 + 1
    for n in range(2, 11):
        g = graphs.custom(n, [])
        t = exact_table(ProductMeasure(), g)
        for _ in range(pairs_per_n):
            vals = rng.standard_normal(1 << n)
            ubits = int(rng.integers(0, 1 << n))
            assert measures.clue_from_spectrum(vals, n, ubits) == pytest.approx(
                clue_exact(t, vals, ubits), abs=1e-9)


def test_product_clue_bound_transitive_functions():
    # max-membership bound for transitive observables on coin flips
    from spinlab.clue import clue_exact

    n = 8
    g = graphs.cycle(n)
    t = exact_table(ProductMeasure(), g)
    for obs in (Majority(), Parity(range(n))):
        vals = obs.table_values(n)
        for ubits in range(1 << n):
            size = bin(ubits).count("1")
            assert clue_exact(t, vals, ubits) <= size / n + 1e-12


# -- DaC tables ----------------------------------------------------------------


def test_dac_table_from_point_mass():
    g = graphs.custom(3, [[0, 1], [1, 2]])
    # edge {0,1} always open: spins 0,1 glued, vertex 2 free
    t = exact_table(DacMeasure(((0b01, 1.0),)), g)
    for idx, p in enumerate(t.p):
        cfg = _bits.index_to_config(idx, 3)
        if cfg[0] == cfg[1]:
            assert p == pytest.approx(0.25)
        else:
            assert p == 0.0


def test_dac_table_brute_force():
    g = graphs.custom(4, [[0, 1], [1, 2], [2, 3], [0, 2]])
    rng = stream(8, 0)
    probs = rng.dirichlet(np.ones(4))
    bond_masks = [0b0000, 0b0101, 0b1111, 0b0011]
    table = exact_table(DacMeasure(tuple(zip(bond_masks, probs))), g)
    # oracle: enumerate colorings per bond mask directly
    oracle = np.zeros(16)
    for mask, prob in zip(bond_masks, probs):
        open_edges = [tuple(g.edges[i]) for i in range(4) if (mask >> i) & 1]
        for idx in range(16):
            cfg = _bits.index_to_config(idx, 4)
            if all(cfg[u] == cfg[v] for u, v in open_edges):
                labels, k = graphs.component_labels(
                    4, np.asarray(open_edges or np.empty((0, 2))).reshape(-1, 2))
                oracle[idx] += prob / 2**k
    assert np.allclose(table.p, oracle, atol=1e-12)


# -- serialization ---------------------------------------------------------------


def test_table_binary_roundtrip(tmp_path):
    g = graphs.cycle(5)
    t = exact_table(IsingMeasure(0.4), g)
    path = tmp_path / "table.bin"
    t.to_binary(path)
    t2 = measures.ProbabilityTable.from_binary(path)
    assert t2.n == 5
    assert np.allclose(t2.p, t.p, atol=0)


def test_table_csv(tmp_path):
    g = graphs.custom(2, [])
    t = exact_table(ProductMeasure(), g)
    path = tmp_path / "table.csv"
    t.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,probability"
    assert len(lines) == 5


# -- scan-rule demo measure -----------------------------------------------------


def scan_oracle(omega):
    """Reference implementation of the forward scan, by literal search."""
    n = len(omega)
    sigma = np.empty(n, dtype=np.int8)
    any_pair = any(omega[j] == omega[(j + 1) % n] for j in range(n))
    if not any_pair:
        return omega.copy()
    for i in range(n):
        j = i
        while omega[j % n] != omega[(j + 1) % n]:
            j += 1
        sigma[i] = omega[j % n]
    return sigma


def test_scan_rule_hand_trace():
    # omega = (+,+,-,-) on the 4-cycle: position 0 sees the pair (0,1),
    # positions 1 and 2 see the pair (2,3), position 3 wraps to (0,1)
    omega = np.array([1, 1, -1, -1], dtype=np.int8)
    assert scan_oracle(omega).tolist() == [1, -1, -1, 1]


def test_scan_rule_alternating_error_branch():
    omega = np.array([1, -1, 1, -1], dtype=np.int8)
    assert scan_oracle(omega).tolist() == omega.tolist()


def test_ffiid_parity_cycle_matches_oracle():
    rng = stream(9, 0)
    hit_error = False
    for rep in range(300):
        sigma, omega = measures.sample_ffiid_parity_cycle(3, rng, return_source=True)
        assert sigma.tolist() == scan_oracle(omega).tolist()
        alternating = bool(np.all(omega != np.roll(omega, -1)))
        hit_error |= alternating
        if not alternating:
            # -+- and +-+ cannot occur off the error branch
            flips = sigma * np.roll(sigma, -1) == -1
            assert not np.any(flips & np.roll(flips, -1))
    assert hit_error  # cycle of 6: error branch has probability 1/32


def test_ffiid_needs_four_sites():
    with pytest.raises(ValueError):
        measures.sample_ffiid_parity_cycle(1, stream(9, 1))


def test_vector_dump_roundtrip(tmp_path):
    coef = walsh_transform(Majority().table_values(3), 3)
    path = tmp_path / "coef.bin"
    measures.dump_vector(path, coef, 3, kind="walsh")
    back, n, kind = measures.load_vector(path)
    assert n == 3 and kind == "walsh"
    assert np.array_equal(back, coef)
    csv_path = tmp_path / "coef.csv"
    measures.dump_vector_csv(csv_path, coef)
    assert csv_path.read_text().splitlines()[0] == "index,value"
