import json

import pytest

from spinlab.cli import RECIPES, main, run_recipe


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


def test_thread_count_does_not_change_bytes(tmp_path):
    params = {"side": 16, "Ls": [3], "trials": 40, "warmup_steps": 10}
    run_recipe("tiled-coupling", params, 5, tmp_path / "t1", threads=1)
    run_recipe("tiled-coupling", params, 5, tmp_path / "t8", threads=8)
    assert (tmp_path / "t1" / "tiled_coupling.csv").read_bytes() == \
        (tmp_path / "t8" / "tiled_coupling.csv").read_bytes()


def test_budget_status(tmp_path):
    summary = run_recipe(
        "cw-clue", {"n": 500, "ks": [5, 10, 20]}, 0, tmp_path,
        budget_seconds=0.0)
    assert summary["status"] == "budget"
    assert any(a["status"] == "budget" for a in summary["assertions"])
