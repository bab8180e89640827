"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload lattice-mc --seed 1 --out DIR [--trace]

Set-up (imports, recipe configs, graphs and exact oracle tables) happens
first; the timed part runs each recipe through ``spinlab.cli.main`` exactly
as a user would, with only the overrides listed below and never with
``--threads``, then compares sampler output against exact tables. The
last line of standard output is one JSON object with the timestamps, the
checks and, with ``--trace``, the aggregated spans.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BETA_C = math.log(1.0 + math.sqrt(2.0)) / 2.0  # planar critical point

# Correctness gates shared by every workload.
TV_MAX = 0.02  # sampler law vs exact table, total variation
RESIDUAL_MAX = 1e-8  # eigenclue: lambda_2 vs clue of the second eigenfunction

CHEAP_RECIPES = ["cw-clue", "cw-entropy", "cw-guess", "en-moments", "eigenclue-verify",
                 "dirichlet-cheeger", "dac-identities", "dac-bounds", "ffiid-demo"]
FROZEN_START = [1, 1, -1, -1, 1, 1]

# Each workload at two scales: "full" is what the benchmark measures, "tiny"
# is for the smoke test. Recipes run at CLI defaults apart from the
# overrides given here.
WORKLOADS = {
    "lattice-mc": {
        "full": {
            "recipes": [
                ["fk-bound", {"betas": [BETA_C], "u_draws": 2, "outer": 10, "inner": 8,
                              "fk_samples": 100}],
                ["tiled-coupling", {"Ls": [3, 15], "trials": 128, "chunks": 8}],
            ],
            "samplers": [],
        },
        "tiny": {
            "recipes": [
                ["fk-bound", {"betas": [BETA_C], "u_draws": 2, "outer": 3, "inner": 2,
                              "fk_samples": 20, "inner_sweeps": 20, "sw_burnin": 5}],
                ["tiled-coupling", {"side": 16, "Ls": [3], "trials": 32,
                                    "warmup_steps": 10}],
            ],
            "samplers": [],
        },
    },
    "exact-spectral": {
        "full": {
            "recipes": [
                ["eigenclue-verify", {"graph": {"type": "cycle", "n": 11}}],
                ["dirichlet-cheeger", {"graph": {"type": "cycle", "n": 10}}],
            ],
            "samplers": [],
        },
        "tiny": {
            "recipes": [
                ["eigenclue-verify", {"graph": {"type": "cycle", "n": 8}, "trials": 10}],
                ["dirichlet-cheeger", {"graph": {"type": "cycle", "n": 8}, "events": 5}],
            ],
            "samplers": [],
        },
    },
    "small-oracles": {
        "full": {
            "recipes": [[name, {}] for name in CHEAP_RECIPES],
            "samplers": [
                {"kind": "glauber", "graph": {"type": "cycle", "n": 6}, "beta": 0.4,
                 "J": 1.0, "steps": 60_000},
                {"kind": "glauber", "graph": {"type": "complete", "n": 5}, "beta": 0.8,
                 "J": 0.2, "steps": 40_000},
                {"kind": "glauber", "graph": {"type": "cycle", "n": 6}, "beta": 0.4,
                 "J": 1.0, "steps": 30_000, "frozen": [0, 3], "start": FROZEN_START},
                {"kind": "sw", "graph": {"type": "cycle", "n": 5}, "beta": 0.4,
                 "J": 1.0, "steps": 30_000},
            ],
        },
        "tiny": {
            "recipes": [
                ["cw-clue", {"n": 300, "ks": [5, 30]}],
                ["cw-entropy", {"ns": [100, 500]}],
                ["cw-guess", {"n": 100, "ks": [1, 10]}],
                ["en-moments", {"ns": [500, 1000]}],
                ["eigenclue-verify", {"trials": 30}],
                ["dirichlet-cheeger", {"events": 8}],
                ["dac-identities", {"instances": 4}],
                ["dac-bounds", {"instances": 4}],
                ["ffiid-demo", {"draws": 4000}],
            ],
            "samplers": [
                {"kind": "glauber", "graph": {"type": "cycle", "n": 3}, "beta": 0.4,
                 "J": 1.0, "steps": 20_000},
                {"kind": "glauber", "graph": {"type": "cycle", "n": 6}, "beta": 0.4,
                 "J": 1.0, "steps": 20_000, "frozen": [0, 3], "start": FROZEN_START},
                {"kind": "sw", "graph": {"type": "cycle", "n": 3}, "beta": 0.4,
                 "J": 1.0, "steps": 10_000},
            ],
        },
    },
}


class Checks:
    def __init__(self):
        self.rows: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.rows.append({"name": name, "ok": bool(ok), "detail": detail})


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_recipe(cli, name: str, overrides: dict, seed: int, out: Path, checks: Checks):
    """Run one recipe the way a user does and record its assertions."""
    argv = [name, "--seed", str(seed), "--out", str(out / name)]
    if overrides:
        cfg = out / f"{name}.config.json"
        cfg.write_text(json.dumps(overrides))
        argv[1:1] = ["--config", str(cfg)]
    try:
        code = cli.main(argv)
        summary = json.loads((out / name / "summary.json").read_text())
    except Exception:  # a crash is one failed check, the workload goes on
        checks.add(f"{name}:runs", False, traceback.format_exc(limit=3))
        return
    for a in summary["assertions"]:
        checks.add(f"{name}:{a['name']}", a["status"] == "pass", a["detail"])
    checks.add(f"{name}:status", code == 0 and summary["status"] == "pass",
               f"exit={code} status={summary['status']}")
    if name == "eigenclue-verify":
        try:
            residual = float(_read_csv(out / name / "eigenclue.csv")[0]["residual"])
        except (OSError, KeyError, IndexError, ValueError) as exc:
            checks.add(f"{name}:oracle-residual", False, repr(exc))
            return
        checks.add(f"{name}:oracle-residual", residual <= RESIDUAL_MAX,
                   f"residual={residual!r}")


def build_sampler(spec: dict, seed: int, index: int):
    """Set-up for one sampler check: graph, exact target law, chain start."""
    import numpy as np

    from spinlab import graphs, ising, measures
    from spinlab.rng import stream

    g = graphs.build_graph(spec["graph"])
    params = ising.IsingParams(spec["beta"], J=spec["J"])
    target = measures.exact_table(measures.IsingMeasure(spec["beta"], J=spec["J"]), g).p
    rng = stream(seed, 900, index)
    n = g.n_vertices
    frozen = None
    start = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    if "frozen" in spec:
        frozen = np.zeros(n, dtype=bool)
        frozen[spec["frozen"]] = True
        start = np.array(spec["start"], dtype=np.int8)
        states = np.arange(1 << n)
        fbits = sum(1 << v for v in spec["frozen"])
        key = sum(1 << v for v in spec["frozen"] if start[v] > 0)
        target = np.where((states & fbits) == key, target, 0.0)
        target = target / target.sum()
    return {"spec": spec, "graph": g, "params": params, "target": target, "rng": rng,
            "frozen": frozen, "start": start}


def run_sampler(s: dict, checks: Checks):
    """Chain the sampler one public call per step and compare its empirical
    law with the exact table."""
    import numpy as np

    from spinlab import ising

    g, params, rng, steps = s["graph"], s["params"], s["rng"], s["spec"]["steps"]
    n = g.n_vertices
    samples = np.empty((steps, n), dtype=np.int8)
    if s["spec"]["kind"] == "glauber":
        state = ising.ChainState(s["start"].copy(), 0, rng)
        ising.glauber_sweep(state, g, params, frozen=s["frozen"], sweeps=200)
        for i in range(steps):
            ising.glauber_sweep(state, g, params, frozen=s["frozen"])
            samples[i] = state.config
    else:
        cfg = ising.sw_chain(g, params, rng, 100, s["start"])
        for i in range(steps):
            _, cfg = ising.swendsen_wang_step(cfg, g, params, rng)
            samples[i] = cfg
    index = ((samples > 0).astype(np.int64) << np.arange(n)).sum(axis=1)
    freq = np.bincount(index, minlength=1 << n) / steps
    tv = 0.5 * float(np.abs(freq - s["target"]).sum())
    spec = s["spec"]
    name = f"{spec['kind']}-{spec['graph']['type']}{n}" + ("-frozen" if "frozen" in spec else "")
    checks.add(f"sampler-tv:{name}", tv <= TV_MAX, f"tv={tv!r} steps={steps}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    config = WORKLOADS[args.workload][args.scale]

    # -- set-up: imports and inputs, before the first timed call
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import spinlab
    from spinlab import cli

    if Path(spinlab.__file__).resolve().parent != ROOT / "src" / "spinlab":
        raise SystemExit(f"imported spinlab from {spinlab.__file__}, not this checkout")
    args.out.mkdir(parents=True, exist_ok=True)
    samplers = [build_sampler(spec, args.seed, i) for i, spec in enumerate(config["samplers"])]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    # -- timed part
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    checks = Checks()
    for name, overrides in config["recipes"]:
        with span(f"cli.{name}"):
            run_recipe(cli, name, overrides, args.seed, args.out, checks)
    for s in samplers:
        with span("bench.sampler_tv"):
            run_sampler(s, checks)
    done = time.monotonic()

    result = {
        "ready": ready,
        "wall_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks.rows,
        "config": config,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result.update(spans=tracer.spans(), counts=tracer.counts(), missing=tracer.missing)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
