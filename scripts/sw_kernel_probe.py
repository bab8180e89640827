"""Time one Swendsen-Wang step per path: the public single-chain
`swendsen_wang_step` against the replica kernel `swendsen_wang` with one
replica (the path of `sw_chain`), on graphs of 5 to 780 edges, plus the
large single chain and replica batch that the recipes run, and one
`graphs.component_labels` call (`labels`) on the graph sizes that call it:
cycle(5), the 6-vertex path with 2 extra edges of `dac-bounds`, and the
16x16 and 60x60 tori, each with every edge open with probability 1/2;
and one colour-class redraw of `ising.heat_bath` (`heat_bath_class_step_us`)
on the 8x8 torus at beta_c with 4 frozen sites, as `fk-bound` runs it,
for R = 2, 10, 80 and 240 replicas; and one bulk draw of uniforms
(`uniforms_us`) of 2560 doubles (one heat-bath class of `fk-bound`'s
R = 80 batch) and 7200 doubles (one bond draw on the 60x60 torus).
Every draw comes from `rng.stream`, the generator the recipes run.

    PYTHONPATH=src python3 scripts/sw_kernel_probe.py [--repeat 5]

Prints one JSON object: microseconds per step (per step of all replicas for
the kernel), the best of `--repeat` timeit runs, with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import timeit

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from spinlab import graphs, ising  # noqa: E402
from spinlab.rng import stream  # noqa: E402

BETA = 0.4


def per_step_us(fn, steps: int, repeat: int) -> float:
    fn()  # warm caches (graph geometry, imports)
    return min(timeit.repeat(fn, number=1, repeat=repeat)) / steps * 1e6


def time_step_path(g, steps, repeat):
    rng = stream(0)
    par = ising.IsingParams(BETA)
    cfg = rng.choice(np.array([-1, 1], dtype=np.int8), size=g.n_vertices)

    def run():
        c = cfg
        for _ in range(steps):
            _, c = ising.swendsen_wang_step(c, g, par, rng)

    return per_step_us(run, steps, repeat)


def time_kernel(g, replicas, steps, repeat):
    rng = stream(0)
    par = ising.IsingParams(BETA)
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, g.n_vertices))
    return per_step_us(lambda: ising.swendsen_wang(cfgs, g, par, steps, rng), steps, repeat)


def time_labels(g, calls, repeat):
    opens = stream(0).random(g.n_edges) < 0.5

    def run():
        for _ in range(calls):
            graphs.component_labels(g, opens)

    return per_step_us(run, calls, repeat)


def time_class_step(g, replicas, sweeps, repeat):
    rng = stream(0)
    par = ising.IsingParams(ising.BETA_C_2D)
    frozen = np.zeros(g.n_vertices, dtype=bool)
    frozen[[0, 9, 18, 27]] = True
    cfgs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, g.n_vertices))
    steps = sweeps * len(g.geometry.classes)
    return per_step_us(lambda: ising.heat_bath(cfgs, g, par, sweeps, rng, frozen=frozen),
                       steps, repeat)


def time_uniforms(size, calls, repeat):
    rng = stream(0)

    def run():
        for _ in range(calls):
            rng.random(size)

    return per_step_us(run, calls, repeat)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    single_chain = {}
    for name, g in [("cycle(5)", graphs.cycle(5)), ("torus 3x3", graphs.torus(2, 3)),
                    ("cycle(16)", graphs.cycle(16)), ("torus 4x4", graphs.torus(2, 4)),
                    ("cycle(32)", graphs.cycle(32)), ("torus 5x5", graphs.torus(2, 5)),
                    ("torus 6x6", graphs.torus(2, 6)), ("torus 7x7", graphs.torus(2, 7)),
                    ("torus 8x8", graphs.torus(2, 8)),
                    ("complete(40)", graphs.complete(40))]:
        single_chain[name] = {
            "n": g.n_vertices, "m": g.n_edges,
            "step_us": round(time_step_path(g, 2000, args.repeat), 1),
            "kernel_R1_us": round(time_kernel(g, 1, 2000, args.repeat), 1),
        }
    t60 = graphs.torus(2, 60)
    t8 = graphs.torus(2, 8)
    batches = {
        "torus 60x60, R=1": {
            "step_us": round(time_step_path(t60, 200, args.repeat), 1),
            "kernel_us": round(time_kernel(t60, 1, 200, args.repeat), 1),
        },
        "torus 8x8, R=100": {
            "step_us_x100": round(100 * time_step_path(t8, 2000, args.repeat), 1),
            "kernel_us": round(time_kernel(t8, 100, 200, args.repeat), 1),
        },
    }
    dac6 = graphs.custom(6, [[i, i + 1] for i in range(5)] + [[0, 3], [2, 5]])
    labels = {
        name: round(time_labels(g, calls, args.repeat), 1)
        for name, g, calls in [("cycle(5)", graphs.cycle(5), 2000),
                               ("dac path 6 + 2", dac6, 2000),
                               ("torus 16x16", graphs.torus(2, 16), 500),
                               ("torus 60x60", t60, 100)]
    }
    class_step = {f"torus 8x8, R={r}": round(time_class_step(t8, r, 600, args.repeat), 2)
                  for r in (2, 10, 80, 240)}
    uniforms = {f"{size} doubles": round(time_uniforms(size, 2000, args.repeat), 2)
                for size in (2560, 7200)}
    print(json.dumps({"beta": BETA, "single_chain": single_chain, "batches": batches,
                      "labels_us": labels, "heat_bath_class_step_us": class_step,
                      "uniforms_us": uniforms}, indent=1))


if __name__ == "__main__":
    main()
