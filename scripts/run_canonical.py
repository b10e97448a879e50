"""Run both canonical problems end to end and print the level tables.

Usage: python scripts/run_canonical.py [--seed N]
"""

import argparse
import time

from besselmp import (
    canonical_coercive_spec,
    canonical_well_spec,
    ps_diagnostics,
    two_solution_stages,
)


def run_one(name, spec, seed):
    print(f"=== {name} ===")
    done = {}
    t0 = time.perf_counter()
    for stage, ok, result in two_solution_stages(spec, seed=seed):
        took = f"({time.perf_counter() - t0:.1f}s)"
        if isinstance(result, str):
            print(f"{stage} failed: {result}  {took}")
        elif stage == "probe_geometry":
            print(f"probe   rho={result.rho:.4f}  eta={result.eta:.6f}  "
                  f"mu0~{result.mu0_estimate:.4f}  {took}")
            for rho, emin in result.rho_table:
                print(f"        rho={rho:8.4f}  sphere min={emin:12.6f}")
        elif stage == "levels":
            lv = result["levels"]
            print(f"levels  min={lv['local_min_energy']:.3e} < 0 < "
                  f"saddle={lv['mountain_pass_energy']:.4f}  "
                  f"(sphere floor estimate eta={lv['ridge_height']:.4f})  "
                  f"distance={result['distinctness']:.3f}  ok={ok}")
        else:
            label, energy = ("saddle ", f"{result.energy:.8f}") if stage == "mountain_pass" \
                else ("minimum", f"{result.energy:.3e}")
            print(f"{label} E={energy}  |r|={result.residual_norm:.2e}  "
                  f"iters={result.iterations}  ok={ok}  {took}")
        done[stage] = result
        t0 = time.perf_counter()

    if "levels" in done:
        # Diagnose the pair of converged iterates as a bounded sequence with
        # vanishing gradients.
        pair = [done["local_min"].solution, done["mountain_pass"].solution]
        diag = ps_diagnostics(spec, pair)
        print(f"bounded-sequence check: all_ok={diag.all_ok}  "
              f"max ||u||_lam={diag.max_norm:.3f}  bound={diag.norm_bound:.3f}")
    print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run_one("coercive potential (1 + x^2)", canonical_coercive_spec(), args.seed)
    run_one("potential well (lambda=100, mu=0.05)", canonical_well_spec(), args.seed)


if __name__ == "__main__":
    main()
