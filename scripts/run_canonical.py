"""Run both canonical problems end to end and print the level tables.

Each solver stage also prints its gradients' route and how its Newton
solves stopped ("direct" for a gradient on the 1-D even half, one product
with the stored K^{-1}; "forcing" for a Newton MINRES that met its forcing
term), the polish's MINRES iterations, and the Palais-Smale norm bound
checked on its descent rows (``check_bounded_descent``).

Usage: python scripts/run_canonical.py
"""

import time

from besselmp import (
    canonical_coercive_spec,
    canonical_well_spec,
    check_bounded_descent,
    two_solution_stages,
)


def run_one(name, spec):
    print(f"=== {name} ===")
    t0 = time.perf_counter()
    for stage, ok, result in two_solution_stages(spec):
        took = f"({time.perf_counter() - t0:.1f}s)"
        if isinstance(result, str):
            print(f"{stage} failed: {result}  {took}")
        elif stage == "probe_geometry":
            print(f"probe   rho={result.rho:.4f}  eta={result.eta:.6f}  "
                  f"mu_budget={result.mu_budget:.4f}  mu0_lower={result.mu0_lower:.4f}  "
                  f"C_inf={result.c_inf:.4f}  C_2={result.c_2:.4f}  {took}")
        elif stage == "levels":
            lv = result["levels"]
            print(f"levels  min={lv['local_min_energy']:.3e} < 0 < "
                  f"saddle={lv['mountain_pass_energy']:.4f}  "
                  f"(certified ridge eta={lv['ridge_height']:.4f})  "
                  f"distance={result['distinctness']:.3f}  ok={ok}")
        else:
            label, energy = ("saddle ", f"{result.energy:.8f}") if stage == "mountain_pass" \
                else ("minimum", f"{result.energy:.3e}")
            # the gradients' routes and the Newton solves' stops, and the
            # Newton MINRES iterations, from the trace
            counts = result.counts
            stops = ",".join(sorted({t.krylov_stop for t in result.trace} - {""}))
            print(f"{label} E={energy}  |r|={result.residual_norm:.2e}  "
                  f"iters={result.iterations}  solves={stops}  "
                  f"minres polish={counts['newton_krylov_iters']}  ok={ok}  {took}")
            if result.trace:
                chain = check_bounded_descent(spec, result.trace)
                print(f"        bounded descent: pass={chain.passed}  "
                      f"c={chain.data['level']:.4g}  "
                      f"max ||u||_lam={chain.data['max_norm']:.4g}  "
                      f"rows={chain.params['rows']}")
        t0 = time.perf_counter()
    print()


def main():
    run_one("coercive potential (1 + x^2)", canonical_coercive_spec())
    run_one("potential well (lambda=100, mu=0.05)", canonical_well_spec())


if __name__ == "__main__":
    main()
