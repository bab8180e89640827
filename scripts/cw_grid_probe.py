"""Peak memory per grid cell of the exact Curie-Weiss readouts, or per
total-spin value of the O(n) pmf readouts.

    PYTHONPATH=src python3 scripts/cw_grid_probe.py [law|cw_exact_clue|cw_iclue|cw_majority_guess_success]
    PYTHONPATH=src python3 scripts/cw_grid_probe.py pmf [cw_relative_entropy|cw_entropy|cw_moment]

Runs one readout at n = 8000, k = 4000, beta = 1 in this process and prints
the rise of peak RSS over the baseline after imports and the O(n) set-up,
in MB and in bytes per (observed sum, remaining sum) grid cell; the figure
`curie_weiss._GRID_CELL_BYTES` is set from. `pmf` runs one O(n) readout at
n = 4 000 000 and prints the rise in bytes per total-spin value, the figure
`curie_weiss._PMF_POINT_BYTES` is set from.
"""

import resource
import sys

from spinlab import curie_weiss as cw

N, K, BETA = 8000, 4000, 1.0
N_PMF = 4_000_000


def peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux: KiB


def main(which: str = "law", readout: str = "cw_relative_entropy") -> None:
    if which == "pmf":
        base = peak_bytes()
        if readout == "cw_moment":
            cw.cw_moment(N_PMF, BETA, 4)
        else:
            getattr(cw, readout)(N_PMF, BETA)
        rise = peak_bytes() - base
        print(f"pmf {readout}: n={N_PMF} peak RSS +{rise / 2**20:.0f} MB, "
              f"{rise / (N_PMF + 1):.1f} bytes per total-spin value")
        return
    cw.cw_relative_entropy(N, BETA)  # the O(n) pmf and entropy work, off the grid
    base = peak_bytes()
    if which == "law":
        law = cw.cw_observed_law(N, BETA, K)
        law.clue("magnetization"), law.clue("majority"), law.iclue(), law.guess_success()
    else:
        getattr(cw, which)(N, BETA, K)
    rise = peak_bytes() - base
    cells = (K + 1) * (N - K + 1)
    print(f"{which}: n={N} k={K} peak RSS +{rise / 2**20:.0f} MB, "
          f"{rise / cells:.1f} bytes per cell")


if __name__ == "__main__":
    main(*sys.argv[1:])
