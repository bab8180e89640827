"""Peak memory per grid cell of the exact Curie-Weiss law, or per total-spin
value of the O(n) pmf readouts.

    PYTHONPATH=src python3 scripts/cw_grid_probe.py [law]
    PYTHONPATH=src python3 scripts/cw_grid_probe.py pmf [relative_entropy|entropy|moment]

`law` builds one `cw_observed_law` at n = 8000, k = 4000, beta = 1 in this
process, reads all four of its readouts, and prints the rise of peak RSS
over the baseline after imports and the O(n) set-up, in MB and in bytes per
(observed sum, remaining sum) grid cell; the figure
`curie_weiss._GRID_CELL_BYTES` is set from. `pmf` builds the pmf at
n = 4 000 000, reads one of its O(n) readouts and prints the rise in bytes
per total-spin value, the figure `curie_weiss._PMF_POINT_BYTES` is set from.
"""

import resource
import sys

from spinlab import curie_weiss as cw

N, K, BETA = 8000, 4000, 1.0
N_PMF = 4_000_000


def peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux: KiB


def main(which: str = "law", readout: str = "relative_entropy") -> None:
    if which == "pmf":
        base = peak_bytes()
        pmf = cw.cw_magnetization_pmf(N_PMF, BETA)
        pmf.moment(4) if readout == "moment" else getattr(pmf, readout)
        rise = peak_bytes() - base
        print(f"pmf {readout}: n={N_PMF} peak RSS +{rise / 2**20:.0f} MB, "
              f"{rise / (N_PMF + 1):.1f} bytes per total-spin value")
        return
    if which != "law":
        raise SystemExit(f"unknown mode {which!r}: use law or pmf")
    pmf = cw.cw_magnetization_pmf(N, BETA)
    pmf.relative_entropy  # the O(n) pmf and entropy work, off the grid
    base = peak_bytes()
    law = cw.cw_observed_law(pmf, K)
    law.clue("magnetization"), law.clue("majority"), law.iclue(), law.guess_success()
    rise = peak_bytes() - base
    cells = (K + 1) * (N - K + 1)
    print(f"law: n={N} k={K} peak RSS +{rise / 2**20:.0f} MB, "
          f"{rise / cells:.1f} bytes per cell")


if __name__ == "__main__":
    main(*sys.argv[1:])
