import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlab import block_dyn, cli, clue, graphs, measures, rng as rng_mod
from spinlab.cli import RECIPES, _validate_params, at_most, close, main, run_recipe
from spinlab.rng import stream
from test_acceptance import MINI_CONFIGS


def test_all_recipes_registered():
    expected = {
        "cw-clue", "cw-entropy", "cw-guess", "en-moments", "eigenclue-verify",
        "dirichlet-cheeger", "tiled-coupling", "dac-identities", "dac-bounds",
        "fk-bound", "ising2d-sublattice", "supercrit-giant", "ffiid-demo",
    }
    assert set(RECIPES) == expected
    for rec in RECIPES.values():
        assert rec.claim  # every summary names what it tests


def test_unknown_recipe_rejected(tmp_path):
    with pytest.raises(KeyError):
        run_recipe("no-such-recipe", {}, 0, tmp_path)


def test_unknown_parameter_rejected(tmp_path):
    with pytest.raises(KeyError):
        run_recipe("cw-guess", {"bogus": 1}, 0, tmp_path)
    assert not (tmp_path / "summary.json").exists()  # rejected before work


def test_summary_and_manifest_shape(tmp_path):
    summary = run_recipe("cw-guess", {"n": 50, "ks": [1, 50]}, 3, tmp_path)
    assert summary["status"] == "pass"
    assert summary["recipe"] == "cw-guess"
    assert summary["claim"]
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tables"]["cw_guess"] == ["n", "beta", "k", "success"]
    csv = (tmp_path / "cw_guess.csv").read_text().splitlines()
    assert csv[0] == "n,beta,k,success"
    assert len(csv) == 1 + 2 * 2  # two betas, two ks


def test_json_format(tmp_path):
    run_recipe("cw-guess", {"n": 30, "ks": [1]}, 3, tmp_path, fmt="json")
    docs = json.loads((tmp_path / "cw_guess.json").read_text())
    assert isinstance(docs, list) and docs[0]["n"] == 30


def test_exit_codes(tmp_path):
    assert main(["--list"]) == 0
    assert main([]) == 2
    assert main(["cw-guess"]) == 2  # missing --out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 40, "ks": [1, 5]}))
    rc = main(["cw-guess", "--config", str(cfg), "--seed", "4",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    rc = main(["cw-guess", "--config", str(cfg), "--seed", "4",
               "--out", str(tmp_path / "run2"), "--format", "json"])
    assert rc == 0
    assert main(["nonexistent", "--out", str(tmp_path / "x")]) == 2
    # malformed graph or spec docs are rejected before any output
    for i, doc in enumerate([
        {"spec": {"kind": "uniform_k", "k": 99}},
        {"spec": {"kind": "no-such-kind"}},
        {"spec": {"kind": "bernoulli", "p": 1.5}},
        {"graph": {"type": "no-such-graph", "n": 6}},
        {"graph": {"type": "cycle", "n": 2}},
        {"graph": {"type": "cycle", "n": "six"}},
        {"spec": {"kind": "uniform_k", "k": "two"}},
        {"spec": {"kind": "union_of_k_copies", "k": 0,
                  "inner": {"kind": "uniform_k", "k": 2}}},
    ]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / f"bad{i}"
        assert main(["eigenclue-verify", "--config", str(bad), "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()
    # a config that is not an object, and subset sizes the recipe's graph cannot hold
    for i, (name, doc) in enumerate([
        ("cw-guess", [1]),
        ("fk-bound", {"spec_k": 99}),
        ("dac-bounds", {"spec_k": 99}),
        ("tiled-coupling", {"chunks": 0}),
        ("tiled-coupling", {"chunks": -2}),
        ("supercrit-giant", {"chunks": 2.5}),
        ("tiled-coupling", {"trials": 0}),
        ("supercrit-giant", {"samples": 0}),
        ("fk-bound", {"u_draws": 1}),
        ("fk-bound", {"u_draws": 3.0}),
        ("fk-bound", {"fk_samples": 0}),
        ("fk-bound", {"fk_samples": 1}),
        ("fk-bound", {"fk_sweeps": 0}),
        # Swendsen-Wang step bytes of the fk_samples and the outer replica batches
        ("fk-bound", {"fk_samples": 100000, "betas": [0.3]}),
        ("fk-bound", {"outer": 100000, "betas": [0.3], "fk_samples": 10}),
        # bytes of each clue draw's one (outer x inner, n) heat-bath batch
        ("fk-bound", {"outer": 1000, "inner": 100000, "betas": [0.3], "fk_samples": 10}),
        ("cw-guess", {"budget_seconds": 5}),
        ("ffiid-demo", {"draws": 0}),
        ("ffiid-demo", {"n_half": 1}),
        ("ffiid-demo", {"draws": True}),
        ("ffiid-demo", {"draws": 10**12}),
        ("cw-guess", {"ks": [0]}),
        ("cw-guess", {"ks": [True]}),
        ("cw-guess", {"betas": [True]}),
        ("cw-guess", {"ks": []}),
        ("cw-entropy", {"ns": [0]}),
        ("cw-entropy", {"ns": [5.5]}),
        ("cw-entropy", {"betas": ["x"]}),
        ("cw-clue", {"betas": [-1]}),
        ("cw-clue", {"n": 100000, "ks": [50000]}),  # Curie-Weiss grid bytes
        ("cw-clue", {"n": 300000000, "ks": [1]}),  # Curie-Weiss pmf bytes
        ("cw-guess", {"n": 300000000, "ks": [1]}),
        ("cw-entropy", {"ns": [300000000]}),
        ("en-moments", {"ns": [300000000]}),
        ("dac-identities", {"n": 21, "instances": 1}),  # exact-table cap
        ("eigenclue-verify", {"graph": {"type": "cycle", "n": 21}}),  # exact-table cap
        ("eigenclue-verify", {"graph": {"type": "cycle", "n": 19}}),  # block-operator bytes
        ("eigenclue-verify", {"trials": 0}),
        ("eigenclue-verify", {"beta": "a"}),
        ("dirichlet-cheeger", {"events": -3}),
        ("dirichlet-cheeger", {"graph": {"type": "complete", "n": 1},
                               "spec": {"kind": "uniform_k", "k": 1}}),  # no room for an event
        ("tiled-coupling", {"Ls": [0]}),
        ("tiled-coupling", {"Ls": [58]}),  # the tiling period L+3 exceeds the side
        ("tiled-coupling", {"Ls": [5, 3]}),  # the contraction checks need increasing Ls
        ("tiled-coupling", {"Ls": [3, 3]}),
        ("tiled-coupling", {"thin": 0}),
        ("tiled-coupling", {"beta": -0.1}),
        ("dac-identities", {"extra_edges": 7}),
        ("dac-identities", {"n": 1}),
        ("dac-identities", {"instances": -1}),
        ("dac-identities", {"n": 12, "extra_edges": 55}),  # 66 edges: bond masks overflow int64
        ("dac-bounds", {"bond_support": 0}),
        ("fk-bound", {"betas": []}),
        ("fk-bound", {"inner": 1}),
        ("supercrit-giant", {"bern_p": 2}),
        ("ising2d-sublattice", {"meshes": [0]}),
        ("ising2d-sublattice", {"beta": "x"}),
        # lattice bytes: refused before any torus array is allocated
        ("fk-bound", {"side": 100000}),
        ("tiled-coupling", {"side": 100000}),
        ("ising2d-sublattice", {"side": 100000}),
        ("supercrit-giant", {"side": 100000}),
    ]):
        bad = tmp_path / f"bad-recipe{i}.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / f"bad-recipe{i}"
        assert main([name, "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
    # a negative seed and the removed --threads flag are usage errors
    for i, flags in enumerate([["--seed", "-1"], ["--threads", "2"]]):
        out = tmp_path / f"bad-flag{i}"
        assert main(["ffiid-demo", "--out", str(out)] + flags) == 2
        assert not out.exists()


def test_every_declared_parameter_rejects_bad_values(tmp_path):
    cases = 0
    for name, rec in sorted(RECIPES.items()):
        for key, default in rec.defaults.items():
            if isinstance(default, dict):  # graph and spec documents: see test_exit_codes
                continue
            low, high = rec.bounds(key)
            bad = [True, "x", low - 1] + ([high + 1] if high < math.inf else [])
            for i, value in enumerate(bad):
                cfg = tmp_path / f"{name}-{key}-{i}.json"
                cfg.write_text(json.dumps({key: [value] if isinstance(default, list) else value}))
                out = tmp_path / f"{name}-{key}-{i}"
                rc = main([name, "--config", str(cfg), "--out", str(out)])
                assert rc == 2, (name, key, value)
                assert not out.exists()
                cases += 1
    assert cases > 3 * 60


def _workload_configs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    for scales in worker.WORKLOADS.values():
        for config in scales.values():
            yield from config["recipes"]


def test_shipped_configs_pass_validation():
    configs = [(name, {}) for name in RECIPES] + list(MINI_CONFIGS.items())
    configs += list(_workload_configs())
    assert len(configs) > 2 * len(RECIPES)
    for name, overrides in configs:
        _validate_params(name, overrides, 0)


def test_dac_extra_edges_fill_the_room_and_no_more(tmp_path):
    # a path on 5 vertices leaves 6 non-path pairs (asking for 7 used to hang),
    # and int64 bond masks hold at most 63 edges
    for i, (n, room) in enumerate([(5, 6), (12, 52)]):
        params = {"instances": 1, "n": n, "extra_edges": room}
        assert run_recipe("dac-identities", params, 0, tmp_path / f"ok{i}")["status"] == "pass"
        with pytest.raises(ValueError):
            run_recipe("dac-identities", {**params, "extra_edges": room + 1}, 0, tmp_path / "x")
        assert not (tmp_path / "x").exists()


def test_negative_seed_rejected_before_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        run_recipe("ffiid-demo", {}, -1, out)
    assert not out.exists()


def test_seed_determinism(tmp_path):
    params = {"instances": 3, "n": 4}
    run_recipe("dac-identities", params, 11, tmp_path / "a")
    run_recipe("dac-identities", params, 11, tmp_path / "b")
    run_recipe("dac-identities", params, 12, tmp_path / "c")
    a = (tmp_path / "a" / "dac_identities.csv").read_bytes()
    b = (tmp_path / "b" / "dac_identities.csv").read_bytes()
    c = (tmp_path / "c" / "dac_identities.csv").read_bytes()
    assert a == b
    assert a != c


def test_budget_status(tmp_path):
    summary = run_recipe(
        "cw-clue", {"n": 500, "ks": [5, 10, 20]}, 0, tmp_path,
        budget_seconds=0.0)
    assert summary["status"] == "budget"
    assert any(a["status"] == "budget" for a in summary["assertions"])


def test_supercrit_budget_stops_before_the_chunks(tmp_path):
    # a spent budget returns before any chunk is sampled: no data row
    summary = run_recipe("supercrit-giant", {}, 0, tmp_path, budget_seconds=0.0)
    assert summary["status"] == "budget"
    assert [a["status"] for a in summary["assertions"]] == ["budget"]
    assert len((tmp_path / "supercrit_giant.csv").read_text().splitlines()) == 1


def test_tiled_budget_stops_before_the_chunks(tmp_path):
    summary = run_recipe("tiled-coupling", {}, 0, tmp_path, budget_seconds=0.0)
    assert [a["status"] for a in summary["assertions"]] == ["budget"]
    assert len((tmp_path / "tiled_coupling.csv").read_text().splitlines()) == 1


def test_dirichlet_cheeger_events_match_a_per_event_loop(tmp_path):
    # all events are drawn first and scored in one expected_clue call; the
    # event, mu and phi columns are those of drawing and scoring one by one
    params = {"graph": {"type": "cycle", "n": 7}, "beta": 0.4,
              "spec": {"kind": "uniform_k", "k": 2}, "events": 40}
    run_recipe("dirichlet-cheeger", params, 3, tmp_path)
    rows = [line.split(",") for line in
            (tmp_path / "cheeger.csv").read_text().splitlines()[1:]]
    g = graphs.cycle(7)
    t = measures.exact_table(measures.IsingMeasure(0.4), g)
    spec = graphs.UniformK(2)
    op = block_dyn.block_operator(t, spec, g)
    rng = stream(3, 0)
    size = 1 << 7
    expected = []
    for e in range(40):
        ind = np.zeros(size)
        members = rng.choice(size, size=rng.integers(1, size // 2), replace=False)
        ind[members] = 1.0
        if t.p @ ind > 0.5 or t.p @ ind <= 0:
            ind = 1.0 - ind
        mu_e = float(t.p @ ind)
        if mu_e > 0.5 or mu_e <= 0:
            continue
        phi = block_dyn.bottleneck_ratio(op, ind)
        expected.append(([str(e), repr(mu_e), repr(phi)], clue.expected_clue(t, ind, spec, g)))
    assert [row[:3] for row in rows] == [head for head, _ in expected]
    for row, (_, ec) in zip(rows, expected):
        assert float(row[3]) == pytest.approx(ec, abs=1e-12)


POOLED_RECIPES = ("tiled-coupling", "fk-bound", "supercrit-giant")


def test_pooled_recipes_ignore_the_cpu_count(tmp_path, monkeypatch):
    trees = {}
    for cpus in (1, 2):
        monkeypatch.setattr(rng_mod, "_cpus", lambda: cpus)
        for name in POOLED_RECIPES:
            outdir = tmp_path / str(cpus) / name
            assert run_recipe(name, MINI_CONFIGS[name], 1300, outdir)["status"] == "pass"
            trees[cpus, name] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    for name in POOLED_RECIPES:
        assert trees[1, name] == trees[2, name], name


def test_a_job_error_reaches_the_recipe_as_itself(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("refused in a worker")

    monkeypatch.setattr(rng_mod, "_cpus", lambda: 2)
    monkeypatch.setattr(block_dyn, "path_coupling_rate", refuse)
    with pytest.raises(ValueError, match="refused in a worker"):
        run_recipe("tiled-coupling", MINI_CONFIGS["tiled-coupling"], 1300, tmp_path)


# Every numeric check of a recipe is one of these helper calls; each must
# decide exactly as the inline comparison it replaced, NaN and inf included.
_REALS = st.floats(allow_nan=True, allow_infinity=True)
_SES = st.one_of(st.floats(min_value=0.0, allow_infinity=True), st.just(math.nan))
_TOLS = st.sampled_from([0.0, 1e-12, 1e-9, 1e-8])
_ZS = st.sampled_from([2, 3, 4])


def _passes(assertion) -> bool:
    return assertion.status == "pass"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_REALS, _REALS, _TOLS, _SES, _ZS)
@example(1.0, 1.0 - 1e-9, 1e-9, 0.0, 2)  # value == limit + tol after rounding
@example(0.2, 0.0, 0.0, 0.1, 2)  # value == limit + z*se exactly
@example(0.2, 0.1, 0.0, 0.1, 2)  # the strict drop == 2*se exactly
def test_check_helpers_decide_as_the_inline_comparisons(a, b, tol, se, z):
    # bounds with a tolerance, k*SE bounds, floors, and the strict contraction drop
    assert _passes(at_most("x", a, b, tol=tol)) == (a <= b + tol)
    assert _passes(at_most("x", a, b, se=se, z=z)) == (a <= b + z * se)
    assert _passes(at_most("x", b, a)) == (a >= b)
    assert _passes(at_most("x", 0.0, a, tol=tol)) == (a >= -tol)
    assert _passes(at_most("x", 0.0, a, se=se, z=-2.0, strict=True)) == (a > 2.0 * se)
    # equalities: k*SE plus an absolute floor, and the relative max(1, |target|) scaling
    assert _passes(close("x", a, b, tol=tol, se=se, z=z)) == (abs(a - b) <= z * se + tol)
    assert _passes(close("x", a, b, tol=tol, rel=True)) == (abs(a - b) <= tol * max(1.0, abs(b)))
    # conjunctions in one assertion: a range and two relative equalities
    assert _passes(at_most("x", [0.0, a], [a, 1.0 + 1e-12])) == (0.0 <= a <= 1.0 + 1e-12)
    assert _passes(close("x", [a, b], [b, a], tol=tol, rel=True)) == (
        abs(a - b) <= tol * max(1, abs(b)) and abs(b - a) <= tol * max(1, abs(a)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-400, 400), st.integers(-400, 400), st.integers(0, 40), _ZS)
def test_check_margin_is_the_slack_in_ses(a8, b8, se8, z):
    """margin >= 0 exactly when the check passes; it is in SEs, with z beside
    it, when se > 0, and absolute otherwise (eighths are exact in binary)."""
    a, b, se = a8 / 8, b8 / 8, se8 / 8
    rec = at_most("x", a, b, se=se, z=z)
    assert (rec.margin >= 0) == _passes(rec)
    assert rec.margin == ((b + z * se - a) / se if se > 0 else b - a)
    assert rec.z == (z if se > 0 else None)
    rec = close("x", a, b, tol=0.5, se=se, z=z)
    assert (rec.margin >= 0) == _passes(rec)


def test_nan_fails_every_shape_with_no_margin():
    nan = math.nan
    for rec in (at_most("x", nan, 1.0), at_most("x", 0.5, nan), at_most("x", 0.0, 1.0, se=nan, z=2),
                close("x", nan, 0.0, tol=1.0), close("x", 0.0, 0.0, tol=1e-12, se=nan, z=3),
                close("x", 0.0, nan, tol=1e-9, rel=True)):
        assert rec.status == "fail" and rec.margin is None


def test_pooled_weights_chunks_by_count():
    assert cli._pooled([(0.25, 0.5, 7)]) == (0.25, 0.5, 7)  # one chunk keeps its own SE
    mean, se, total = cli._pooled([(0.0, 1.0, 1), (1.0, 1.0, 3)])
    assert (mean, total) == (0.75, 4)
    assert se == pytest.approx(math.sqrt(0.25 * 0.75**2 + 0.75 * 0.25**2))  # 2 - 1 dof


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_integrated_autocorr_matches_ar1(rho):
    """tau_int of an AR(1) series is (1 + rho) / (1 - rho)."""
    noise = stream(5, int(rho * 10)).standard_normal(200_000)
    x = np.empty_like(noise)
    x[0] = noise[0] / math.sqrt(1 - rho**2)
    for t in range(1, len(x)):
        x[t] = rho * x[t - 1] + noise[t]
    assert cli._integrated_autocorr(x) == pytest.approx((1 + rho) / (1 - rho), rel=0.1)


def test_sublattice_ess_reads_the_memory_of_m_squared(tmp_path):
    """Swendsen-Wang re-randomises the sign of M each step, so tau on signed
    M reads 1 and ESS = samples; the recipe must read tau > 1 from M^2."""
    params = MINI_CONFIGS["ising2d-sublattice"]
    assert run_recipe("ising2d-sublattice", params, 1300, tmp_path)["status"] == "pass"
    _, row = (tmp_path / "sublattice_summary.csv").read_text().splitlines()
    samples, ess = (float(v) for v in row.split(",")[1:])
    assert samples == params["samples"] and ess < samples
    # the same on a synthetic series: |x| remembers, its sign does not
    walk = np.abs(np.cumsum(stream(6).standard_normal(4000)) * 0.01) + 1.0
    signed = walk * stream(7).choice([-1.0, 1.0], size=walk.size)
    assert cli._integrated_autocorr(signed) < 1.5 < cli._integrated_autocorr(signed**2)


def test_cw_clue_checks_every_curve_it_claims_monotone(tmp_path):
    summary = run_recipe("cw-clue", MINI_CONFIGS["cw-clue"], 1300, tmp_path)
    names = {a["name"]: a["status"] for a in summary["assertions"]}
    for beta in RECIPES["cw-clue"].defaults["betas"]:
        for curve in ("clue", "clue-maj", "iclue-maj"):
            assert names[f"{curve}-monotone-in-k-beta{beta}"] == "pass"


@pytest.mark.parametrize("mutant, fails", [
    (lambda members: members, False),
    (lambda members: members[: max(1, len(members) // 2)], True),  # a class too small
    (lambda members: list(range(len(members))), True),  # right sizes, classes overlap
])
def test_class_count_reads_the_literal_classes(tmp_path, monkeypatch, mutant, fails):
    original = cli._class_members
    monkeypatch.setattr(cli, "_class_members", lambda *a: mutant(original(*a)))
    summary = run_recipe("dac-identities", {"instances": 6}, 1300, tmp_path)
    assert fails == any(a["status"] == "fail" for a in summary["assertions"]
                        if a["name"].startswith("class-count-"))
