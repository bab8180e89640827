"""Run one recipe over a range of seeds and tabulate each assertion's margin.

    python3 scripts/seed_sweep.py tiled-coupling --seeds 0 47 [--mini]

Runs the recipe of the checkout holding this script at its defaults, or
with ``--mini`` at the reduced `MINI_CONFIGS` of its
tests/test_acceptance.py, once per seed in the inclusive range. Prints a
Markdown table with one row per assertion: the SE multiplier z, the number
of failing runs and their seeds, and the min, mean and sd of the
recorded `margin` (in SEs when the check has an SE, else absolute; a check
fails iff its margin < 0). Boolean checks have no margin and show "-".
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path


def _stats(margins: list[float]) -> str:
    if not margins:
        return "- | - | -"
    sd = statistics.stdev(margins) if len(margins) > 1 else 0.0
    return f"{min(margins):.4g} | {statistics.fmean(margins):.4g} | {sd:.3g}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("recipe")
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 19), metavar=("FIRST", "LAST"))
    parser.add_argument("--mini", action="store_true", help="run at MINI_CONFIGS")
    args = parser.parse_args()
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from spinlab.cli import run_recipe
    from test_acceptance import MINI_CONFIGS

    params = MINI_CONFIGS.get(args.recipe, {}) if args.mini else {}
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    rows: dict[str, dict] = {}  # assertion name -> z, runs, failing seeds, margins
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            summary = run_recipe(args.recipe, params, seed, Path(tmp) / str(seed))
            for a in summary["assertions"]:
                row = rows.setdefault(a["name"],
                                      {"z": a["z"], "runs": 0, "fails": [], "margins": []})
                row["runs"] += 1
                if a["status"] != "pass":
                    row["fails"].append(seed)
                if a["margin"] is not None:
                    row["margins"].append(a["margin"])
            print(f"seed {seed}: {summary['status']}", file=sys.stderr, flush=True)
    label = "MINI_CONFIGS" if args.mini else "defaults"
    print(f"{args.recipe} at its {label}, seeds {seeds.start}-{seeds.stop - 1}\n")
    print("| assertion | z | fails | failing seeds | min margin | mean margin | sd margin |")
    print("|---|---|---|---|---|---|---|")
    for name, row in rows.items():
        z = "-" if row["z"] is None else row["z"]
        failing = ", ".join(map(str, row["fails"])) or "-"
        print(f"| {name} | {z} | {len(row['fails'])}/{row['runs']} | {failing} | "
              f"{_stats(row['margins'])} |")


if __name__ == "__main__":
    main()
