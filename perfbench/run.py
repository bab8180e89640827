"""spinlab benchmark: time to a verified result, per workload.

    python3 perfbench/run.py --workload lattice-mc --seed 1 --seconds 40 --trace 0

Each repetition runs the workload in a fresh interpreter (see worker.py)
with one BLAS thread. Repetitions continue while another one fits in
--seconds; the reported figures are medians over them.
With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1, untraced and traced repetitions alternate and it
carries the per-layer metrics plus the tracing overhead. The command exits
non-zero when any check fails. Workloads, metrics and the layer table are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, layer_metrics  # noqa: E402
from worker import WORKLOADS  # noqa: E402

WORK_DIR = HERE / ".work"
REP_TIMEOUT_S = 170.0  # a run must end within 180 s
# One BLAS thread: the dense eigensolves time within 2% run to run with one
# thread and within 8% with two on a shared 2-core machine, and it leaves
# the second core for any Python-level parallelism the package adds.
BLAS_THREADS = 1
RECIPES = sorted({name for w in WORKLOADS.values() for name, _ in w["full"]["recipes"]})

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{m}.{stat}": unit
       for m in LAYERS for stat, unit in (("self_s", "s"), ("calls", "count"))},
    "ising.glauber_sweep.calls": "count",
    "ising.glauber_sweep.self_s": "s",
    "ising.site_updates": "count",
    "ising.ns_per_site_update": "ns",
    "ising.swendsen_wang_step.calls": "count",
    "ising.swendsen_wang_step.self_s": "s",
    "ising.resample_free.calls": "count",
    "ising.resample_free.s": "s",
    "graphs.component_labels.calls": "count",
    "graphs.component_labels.self_s": "s",
    "graphs.neighbor_lists.calls": "count",
    "graphs.neighbor_lists.self_s": "s",
    "graphs.subset_support.s": "s",
    "graphs.sample_subset.calls": "count",
    "clue.clue_mc.s": "s",
    "clue.expected_clue.s": "s",
    "clue.clue_exact.calls": "count",
    "dac.fk_magnetization_bound.s": "s",
    "block_dyn.path_coupling_rate.s": "s",
    "block_dyn.block_transition_matrix.calls": "count",
    "block_dyn.block_transition_matrix.s": "s",
    "block_dyn.matrix_bytes": "bytes",
    "block_dyn.spectrum.calls": "count",
    "block_dyn.spectrum.s": "s",
    "block_dyn.dirichlet_form.calls": "count",
    "block_dyn.dirichlet_form.s": "s",
    "block_dyn.sweep_cut_bottleneck.s": "s",
    "measures.conditional_mean.calls": "count",
    "measures.conditional_mean.s": "s",
    "measures.exact_table.s": "s",
    "rng.parallel_map.s": "s",
    **{f"cli.{r}.s": "s" for r in RECIPES},
    "bench.sampler_tv.s": "s",
    "bench.failed_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.missing": "count",
}


def provenance(workload: str, seed: int, scale: str, versions: dict, config: dict) -> dict:
    commit = None  # outside a git checkout of this tree
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "config": config,
    }


def run_rep(workload: str, seed: int, scale: str, traced: bool, out: Path,
            timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns the worker's result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed",
           str(seed), "--scale", scale, "--out", str(out)] + (["--trace"] if traced else [])
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def layer_values(rep: dict) -> dict:
    metrics = layer_metrics(rep["spans"], rep["counts"])
    sites = metrics.get("ising.site_updates", 0)
    metrics["ising.ns_per_site_update"] = (
        metrics.get("ising.glauber_sweep.self_s", 0.0) * 1e9 / sites if sites else 0.0)
    metrics["trace.missing"] = len(rep["missing"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny runs small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinlab" / "__init__.py").is_file():
        print(f"error: no spinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    started = time.monotonic()
    plain, traced, errors = [], [], []
    modes = [False, True] if args.trace else [False]
    try:
        while True:
            round_start = time.monotonic()
            for mode in modes:
                remaining = REP_TIMEOUT_S - (time.monotonic() - started)
                try:
                    rep = run_rep(args.workload, args.seed, args.scale, mode,
                                  work / f"rep{len(plain) + len(traced)}", remaining)
                except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                    errors.append(str(exc))
                    break
                (traced if mode else plain).append(rep)
                print(f"rep {len(plain) + len(traced)}: traced={mode} "
                      f"wall_s={rep['wall_s']:.4f} setup_s={rep['setup_s']:.4f} "
                      f"peak_rss_mb={rep['peak_rss_mb']:.1f}", flush=True)
            now = time.monotonic()
            if errors or now - started + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    checks = [c for rep in reps for c in rep["checks"]]
    failed = [c for c in checks if not c["ok"]]
    attempted = len(checks) + len(errors)
    n_failed = len(failed) + len(errors)
    for c in failed[:20]:
        print(f"FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    for e in errors:
        print(f"FAILED repetition: {e}", file=sys.stderr)

    if not plain:
        return 1
    first = plain[0]
    print("provenance: " + json.dumps(provenance(
        args.workload, args.seed, args.scale, first["versions"], first["config"])))
    if args.trace:
        if not traced:
            return 1
        per_rep = [layer_values(rep) for rep in traced]
        values = {name: statistics.median(m.get(name, 0.0) for m in per_rep)
                  for name in PER_LAYER}
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        values["bench.failed_frac"] = n_failed / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        if traced[-1]["missing"]:
            print("missing: " + ", ".join(traced[-1]["missing"]))
        top = sorted(traced[-1]["spans"], key=lambda r: -r["self_s"])[:15]
        for row in top:
            print(f"span {row['name']} <- {row['parent']}: calls={row['calls']} "
                  f"s={row['s']:.4f} self_s={row['self_s']:.4f}")
    else:
        metrics = {name: {"value": statistics.median(rep[name] for rep in plain),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"reps={len(reps)} checks={attempted} failed={n_failed} "
          f"failed_frac={n_failed / attempted:.4f}")
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
