"""Largest numeric differences between two recipe output trees.

    python3 scripts/recipe_numdiff.py A B

A and B are trees such as ``scripts/recipe_digests.py --keep DIR`` writes.
For every file present in either tree it prints the largest absolute and
the largest relative difference over the numeric fields of its CSV and
JSON contents; a number inside a string (an assertion's ``detail``) counts
as a numeric field, the text around it must match. The relative difference
of a and b is |a - b| / max(|a|, |b|). Exits 1 when anything else differs:
a file present on one side only, a table of another shape, differing text,
keys or non-finite values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Diff:
    def __init__(self):
        self.fields = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.mismatches: list[str] = []

    def numbers(self, a: float, b: float, where: str) -> None:
        self.fields += 1
        if not (math.isfinite(a) and math.isfinite(b)):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                self.mismatches.append(f"{where}: {a!r} != {b!r}")
            return
        gap = abs(a - b)
        self.max_abs = max(self.max_abs, gap)
        if gap:
            self.max_rel = max(self.max_rel, gap / max(abs(a), abs(b)))

    def text(self, a: str, b: str, where: str) -> None:
        """Compare two strings number by number, and the text between exactly."""
        if a == b:
            self.fields += len(NUMBER.findall(a))
            return
        na, nb = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.split(a) != NUMBER.split(b) or len(na) != len(nb):
            self.mismatches.append(f"{where}: {a!r} != {b!r}")
            return
        for x, y in zip(na, nb):
            self.numbers(float(x), float(y), where)

    def json(self, a, b, where: str) -> None:
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            if a != b:
                self.mismatches.append(f"{where}: {a!r} != {b!r}")
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            self.numbers(float(a), float(b), where)
        elif isinstance(a, str) and isinstance(b, str):
            self.text(a, b, where)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.mismatches.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
                return
            for key in a:
                self.json(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(x, y, f"{where}[{i}]")
        else:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def csv(self, a: Path, b: Path, where: str) -> None:
        rows_a = list(csv.reader(a.open(newline="")))
        rows_b = list(csv.reader(b.open(newline="")))
        if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
            self.mismatches.append(f"{where}: tables of different shapes")
            return
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            for j, (x, y) in enumerate(zip(ra, rb)):
                try:
                    self.numbers(float(x), float(y), f"{where}:{i + 1}:{j + 1}")
                except ValueError:
                    self.text(x, y, f"{where}:{i + 1}:{j + 1}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    names = sorted({p.relative_to(root).as_posix()
                    for root in (args.a, args.b) for p in root.rglob("*") if p.is_file()})
    failed = False
    for name in names:
        fa, fb = args.a / name, args.b / name
        diff = Diff()
        if not (fa.is_file() and fb.is_file()):
            diff.mismatches.append(f"{name}: only in {args.a if fa.is_file() else args.b}")
        elif name.endswith(".json"):
            diff.json(json.loads(fa.read_text()), json.loads(fb.read_text()), name)
        elif name.endswith(".csv"):
            diff.csv(fa, fb, name)
        elif fa.read_bytes() != fb.read_bytes():
            diff.mismatches.append(f"{name}: contents differ")
        print(f"{name}: max_abs={diff.max_abs:.3g} max_rel={diff.max_rel:.3g} "
              f"numeric_fields={diff.fields}")
        for line in diff.mismatches:
            print(f"  MISMATCH {line}")
        failed |= bool(diff.mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
