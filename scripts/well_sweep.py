"""Sweep (lambda, mu) pairs for the well potential until two solutions appear.

The existence argument only promises a two-solution regime for lambda
large and mu small without usable constants, so the workable region is
established empirically and the first succeeding pair is the regression
baseline.

Usage: python scripts/well_sweep.py
"""

import time

from besselmp import canonical_well_spec
from besselmp.solvers import DEFAULT_WELL_SWEEP, two_solution_sweep


def main():
    t0 = time.perf_counter()
    pair, result, attempts = two_solution_sweep(canonical_well_spec(),
                                                pairs=DEFAULT_WELL_SWEEP)
    dt = time.perf_counter() - t0

    for (lam, mu), failure in attempts:
        status = "ok" if failure is None else failure
        print(f"lambda={lam:7.1f}  mu={mu:6.3f}  ->  {status}")
    print()
    lam, mu = pair
    print(f"first succeeding pair: lambda={lam}, mu={mu}  ({dt:.1f}s)")
    lv = result.levels
    print(f"levels: min={lv['local_min_energy']:.3e} < 0 "
          f"< saddle={lv['mountain_pass_energy']:.4f}  "
          f"(certified ridge {lv['ridge_height']:.4f})")
    print(f"L2 distance between solutions: {result.distinctness:.4f}")


if __name__ == "__main__":
    main()
