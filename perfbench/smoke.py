"""Smoke test of the benchmark itself, at tiny scale.

    python3 perfbench/smoke.py
    python -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_every_workload_reports_every_metric_and_passes():
    for workload in worker.WORKLOADS:
        code, result = _bench(workload, trace=1)
        assert code == 0 and result["correct"] and result["failed"] == 0, result
        assert set(result["metrics"]) == set(run.PER_LAYER), workload
        assert result["metrics"]["bench.failed_frac"]["value"] == 0
        assert result["metrics"]["trace.missing"]["value"] == 0
        assert result["metrics"]["cli.self_s"]["value"] > 0
    code, result = _bench("exact-spectral", trace=0)
    assert code == 0 and result["correct"], result
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_injected_failing_check_raises_failed_frac():
    config = worker.WORKLOADS["small-oracles"]["tiny"]
    saved = dict(config), worker.TV_MAX
    config["recipes"] = []
    try:
        counts = []
        for tv_max in (saved[1], -1.0):  # no law is within a negative distance
            worker.TV_MAX = tv_max
            with tempfile.TemporaryDirectory(dir=HERE) as out, \
                    contextlib.redirect_stdout(io.StringIO()) as captured:
                worker.main(["--workload", "small-oracles", "--seed", "3", "--scale", "tiny",
                             "--out", out])
            checks = json.loads(captured.getvalue().splitlines()[-1])["checks"]
            counts.append((sum(not c["ok"] for c in checks), len(checks)))
    finally:
        config.update(saved[0])
        worker.TV_MAX = saved[1]
    (failed_ok, total_ok), (failed_bad, total_bad) = counts
    assert failed_ok == 0 and failed_bad == total_bad == len(config["samplers"])

    # The runner turns a failed check into failed_frac > 0 and a non-zero exit.
    def fake_rep(workload, seed, scale, traced, out, timeout):
        time.sleep(0.01)
        return {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 50.0, "versions": {},
                "config": {}, "checks": [{"name": "a", "ok": True, "detail": ""},
                                         {"name": "b", "ok": False, "detail": "injected"}]}

    real = run.run_rep
    run.run_rep = fake_rep
    try:
        with contextlib.redirect_stdout(io.StringIO()) as captured, \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "small-oracles", "--seed", "1", "--seconds", "0"])
    finally:
        run.run_rep = real
    result = json.loads(captured.getvalue().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, 2)


def test_missing_wrapped_function_is_reported():
    sys.path.insert(0, str(ROOT / "src"))
    from spinlab import block_dyn

    original = block_dyn.sweep_cut_bottleneck
    del block_dyn.sweep_cut_bottleneck
    tracer = spans.Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
        block_dyn.sweep_cut_bottleneck = original
    assert missing == ["block_dyn.sweep_cut_bottleneck"]
    assert block_dyn.spectrum is not None and not hasattr(block_dyn.spectrum, "__wrapped__")


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    child = tracer.wrap("m.child", lambda: time.sleep(0.02))

    def parent_body():
        time.sleep(0.01)
        child()

    parent = tracer.wrap("m.parent", parent_body)
    parent()
    rows = {(r["name"], r["parent"]): r for r in tracer.spans()}
    p, c = rows[("m.parent", None)], rows[("m.child", "m.parent")]
    assert c["calls"] == p["calls"] == 1
    assert abs(p["s"] - p["self_s"] - c["s"]) < 1e-3
    assert 0.009 < p["self_s"] < c["self_s"]
    metrics = spans.layer_metrics(tracer.spans(), {})
    assert metrics["m.calls"] == 2


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
