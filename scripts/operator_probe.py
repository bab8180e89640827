"""Time one block-operator build and one apply, and record the tracemalloc
peak of the build, on cycle(11) (small) and the 4x4 torus (large), both
with `uniform_k(2)` at beta = 0.4.

    PYTHONPATH=CHECKOUT/src python3 scripts/operator_probe.py [--repeat 5]

CHECKOUT is the tree whose `spinlab` is timed, so one copy of this script
probes any commit that has `block_dyn.block_operator`. Prints one JSON
object: milliseconds for `block_operator` (with its built-in checks) and
for `apply`, each the best of `--repeat` timeit runs with one BLAS thread,
and the peak bytes that tracemalloc records over one further build.
"""

from __future__ import annotations

import argparse
import json
import os
import timeit
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from spinlab import block_dyn, graphs, measures  # noqa: E402
from spinlab.rng import stream  # noqa: E402

BETA = 0.4


def best_ms(fn, number: int, repeat: int) -> float:
    fn()  # warm caches and lazy imports
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e3


def probe(g, repeat: int) -> dict:
    table = measures.exact_table(measures.IsingMeasure(BETA), g)
    spec = graphs.UniformK(2)

    def build():
        return block_dyn.block_operator(table, spec, g)

    op = build()
    f = stream(0).standard_normal(1 << g.n_vertices)
    small = g.n_vertices <= 12
    out = {
        "n": g.n_vertices,
        "build_ms": round(best_ms(build, 5 if small else 1, repeat), 3),
        "apply_ms": round(best_ms(lambda: op.apply(f), 50 if small else 5, repeat), 4),
    }
    del op
    tracemalloc.start()
    try:
        build()
        out["build_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    print(json.dumps({
        "beta": BETA, "spec": "uniform_k(2)",
        "small: cycle(11)": probe(graphs.cycle(11), args.repeat),
        "large: torus 4x4": probe(graphs.torus(2, 4), args.repeat),
    }, indent=1))


if __name__ == "__main__":
    main()
