"""Check the pointwise singular-integral operator and tabulate the kernel.

Prints the closed-form scale constant per order, then compares the
pointwise evaluation against the spectral multiplier on a Gaussian to show
how closely the two independent routes agree.

Usage: python scripts/operator_calibration.py
"""

import numpy as np

from besselmp import (
    Field,
    Grid,
    apply_multiplier,
    bessel_kernel,
    calibrate_pointwise_constant,
    pointwise_apply,
)


def main():
    print("closed-form scale constants (d=1):")
    for alpha in (0.25, 0.5, 0.75):
        c = calibrate_pointwise_constant(alpha)
        print(f"  alpha={alpha:4.2f}  c={c:.6f}")
    print()

    grid = Grid(1, 256, 40.0)
    u = Field(grid, np.exp(-grid.radius_sq))
    for alpha in (0.25, 0.5, 0.75):
        ref = apply_multiplier(u, alpha)
        worst = 0.0
        scale = float(np.max(np.abs(ref.values)))
        for i in range(0, grid.n, 8):
            x = float(grid.axis_coords[i])
            if abs(x) > 5.0:
                continue
            val = pointwise_apply(u, x, alpha)
            worst = max(worst, abs(val - float(ref.values[i])) / scale)
        print(f"alpha={alpha:4.2f}  max pointwise-vs-spectral rel err = {worst:.2e}")
    print()

    print("kernel values, d=1 (order 2 should match exp(-r)/2):")
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        k = bessel_kernel(r, 2.0, 1)
        print(f"  r={r:4.2f}  G={k.value:.8f}  exp(-r)/2={0.5 * np.exp(-r):.8f}  "
              f"quad err~{k.est_error:.1e}")


if __name__ == "__main__":
    main()
