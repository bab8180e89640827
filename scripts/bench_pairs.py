"""Compare two checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        --seed S --pairs 10 --out BENCH.json [--trace]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 40`` in each
checkout in turn, the parent first in odd pairs and the change first in
even pairs, and merges into ``--out`` (a JSON document, created if absent)
one entry ``"<workload> seed <S>"`` with each end-to-end metric's runs,
median, quartiles, the change's wins and the median ratio change/parent.
With ``--trace`` it instead runs one traced repetition set per side and
stores the per-layer metrics under ``"traced <workload> seed <S>"``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    doc["spans"] = [line for line in lines if line.startswith("span ")]
    return doc


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs_in_pair_order": xs}


def compare(parent: list[float], change: list[float]) -> dict:
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_wins": f"{sum(b < a for a, b in zip(parent, change))}/{len(parent)}",
        "median_ratio_change_over_parent": c["median"] / p["median"],
        "parent_iqr": p["q3"] - p["q1"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.trace:
        sides = {name: run(path, args.workload, args.seed, args.seconds, True)
                 for name, path in (("parent", args.parent), ("change", args.change))}
        doc[f"traced {args.workload} seed {args.seed}"] = {
            name: {"failed": r["failed"], "attempted": r["attempted"],
                   "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                   "top_spans": r["spans"]}
            for name, r in sides.items()
        }
    else:
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = run(getattr(args, side), args.workload, args.seed, args.seconds, False)
                runs[side].append({m: r["metrics"][m]["value"] for m in METRICS})
                failed[side] += r["failed"]
                print(f"pair {i + 1} {side}: " + json.dumps(runs[side][-1]), flush=True)
        doc[f"{args.workload} seed {args.seed}"] = {
            "pairs_run": args.pairs,
            "first_in_pair": "parent in odd pairs, change in even pairs",
            "failed_checks": failed,
            **{m: compare([r[m] for r in runs["parent"]], [r[m] for r in runs["change"]])
               for m in METRICS},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
