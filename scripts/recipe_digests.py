"""Digest every recipe's outputs, to check that a change keeps them byte-identical.

    python3 scripts/recipe_digests.py [--checkout DIR] [--keep DIR] > digests.json

Runs all recipes of the checkout (default: the one holding this script)
twice: at their defaults with seed 0, and at the reduced `MINI_CONFIGS` of
its tests/test_acceptance.py with seed 1300. Prints one JSON object
``{"defaults": {recipe: {"status": ..., "files": {name: sha256}}},
"mini": {...}}``. Run it on two checkouts and diff the two documents.
With ``--keep DIR`` the output trees are written to DIR/<run>/<recipe> and
kept, for ``scripts/recipe_numdiff.py`` to compare.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

RUNS = (("defaults", 0), ("mini", 1300))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--keep", type=Path, help="write the output trees here and keep them")
    args = parser.parse_args()
    sys.path[:0] = [str(args.checkout / "src"), str(args.checkout / "tests")]
    from spinlab.cli import RECIPES, run_recipe
    from test_acceptance import MINI_CONFIGS

    doc = {}
    keep = contextlib.nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory()
    with keep as tmp:
        for label, seed in RUNS:
            doc[label] = {}
            for name in sorted(RECIPES):
                params = MINI_CONFIGS.get(name, {}) if label == "mini" else {}
                outdir = Path(tmp) / label / name
                summary = run_recipe(name, params, seed, outdir)
                files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(outdir.iterdir())}
                doc[label][name] = {"status": summary["status"], "files": files}
                print(f"{label} {name}: {summary['status']}", file=sys.stderr, flush=True)
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
