"""Benchmark of besselmp: seconds per certified pair, and where they go.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: coercive_1d, well_1d, plane_2d (two_solution_experiment units)
and verify_2d (property-check units); BENCHMARK.json says why each exists.
The library runs in-process from ``src/`` with BLAS and BESSELMP_THREADS
pinned to one thread.  --seed fixes the workload's block of unit seeds;
failures are counted, never skipped, and each unit's outcome is printed.

--trace 0 runs the block untraced a fixed number of passes, --seconds over
the workload's nominal pass time (at least one), so every run of one seed
attempts the same operations however fast the machine is.  It reads the
machine's speed before and after every unit by timing a fixed piece of
NumPy work shaped like the workload's inner loop (the reference).  On a
shared 2-vCPU machine the speed was seen to swing by up to 1.7x for tens
of seconds at a time, moving every wall time with it; an operation's time
(a solver unit, or one check of a verify unit) over the reference time
read beside it moves much less.  So the bounded metrics unit_ref and
unit_tail_ref are in multiples of the reference: per operation the median
over its repeats, per unit the sum over its operations.  The raw wall
seconds (each operation's fastest repeat) are printed beside them as
solve_s / verify_s.  A repeat that changes an outcome fails the gate.
--trace 1 runs the block once untraced, then traced (spans around the
calls into grid, problem, solvers and verify), then its first unit traced
again; it prints the per-layer metrics (raw unit_s among them), the span
table and the tracing overhead, and fails the gate if the repeat's counts
differ.  It ignores --seconds and takes about 2.2 passes over the block.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status 0 when the gate holds, 1 when it does not, 2 when
the run cannot start (for instance without ``src/besselmp``).
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BESSELMP_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(workload, first):
    """Median import and spec seconds: this process's own plus fresh ones."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median([s["import_s"] + s["spec_s"] for s in samples]),
        "import_s": statistics.median([s["import_s"] for s in samples]),
        "spec_s": statistics.median([s["spec_s"] for s in samples]),
    }


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def make_reference(kind):
    """A timer of fixed NumPy work like a unit's inner loop, about 0.1 s.

    It calls nothing in besselmp, so no change to the library moves it;
    only the machine's speed does.  ``kind`` picks the work the workload
    resembles: "calls" is FFT round trips with a symbol product and a
    reduction, one small array at a time, on the 1-D and 2-D grid sizes the
    workloads use (bound by per-call overhead, like the 1-D solvers and the
    checks); "stacked" is the same round trip over a stack of 41 fields of
    48 x 48, like plane_2d's path of 41 nodes (bound by the arithmetic, and
    on the VM it follows plane_2d's times where "calls" does not).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    line, plane = rng.standard_normal(256), rng.standard_normal((64, 64))
    line_symbol, plane_symbol = 1.0 + np.arange(256.0), 1.0 + rng.random((64, 64))
    stack, stack_symbol = rng.standard_normal((41, 48, 48)), 1.0 + rng.random((48, 48))

    def calls():
        t0 = time.perf_counter()
        for _ in range(2000):
            np.sum(np.fft.ifftn(np.fft.fftn(line) * line_symbol).real ** 2)
        for _ in range(200):
            np.sum(np.fft.ifftn(np.fft.fftn(plane) * plane_symbol).real ** 2)
        return time.perf_counter() - t0

    def stacked():
        t0 = time.perf_counter()
        for _ in range(12):
            spectrum = np.fft.fftn(stack, axes=(1, 2)) * stack_symbol
            np.sum(np.fft.ifftn(spectrum, axes=(1, 2)).real ** 2)
        return time.perf_counter() - t0

    return {"calls": calls, "stacked": stacked}[kind]


def read_speed(reference, span):
    """Median reference time over calls lasting about a tenth of ``span``.

    One call is a point sample of a machine whose speed flickers; beside a
    long unit the median of several is a steadier reading.
    """
    times = [reference()]
    times += [reference() for _ in range(int(0.1 * span / times[0]))]
    return statistics.median(times)


def run_timed(workload, context, block, passes):
    """``passes`` whole passes over the block.

    Returns the units, the speed readings (one before the first unit and
    one after each) and the problems found.
    """
    reference = make_reference(workload.reference)
    reference()  # first call pays NumPy's FFT plan set-up
    units, refs, problems = [], [read_speed(reference, 5.0)], []
    for _ in range(passes):
        passed = []
        for seed in block:
            passed.append(workload.run(context, seed))
            refs.append(read_speed(reference, passed[-1].wall))
        for a, b in zip(units[:len(block)], passed):
            if [op.status for op in a.ops] != [op.status for op in b.ops]:
                problems.append(f"unit seed {a.seed} changed its outcome on a repeat")
        units += passed
    return units, refs, problems


def print_units(label, units):
    """One line per unit; every operation that did not succeed is named."""
    for i, u in enumerate(units):
        bad = [f"{op.name}={op.status}: {op.detail}" for op in u.ops if op.status != "ok"]
        print(f"{label} unit={i} seed={u.seed} wall_s={u.wall:.4f} ops={len(u.ops)} "
              f"failed={len(bad)}" + ("" if not bad else " " + json.dumps(bad)))


def tally(units):
    ops = [op for u in units for op in u.ops]
    failed = sum(op.status != "ok" for op in ops)
    wrong = [op for op in ops if op.status == "wrong"]
    return len(ops), failed, wrong


def per_unit(first, per_op):
    """Per unit of the block: the sum of ``per_op`` over its operations."""
    return [sum(per_op[(u.seed, op.name)] for op in u.ops) for u in first]


def end_to_end(workload, units, refs, setup):
    first = units[:workload.block]
    keyed = [((u.seed, op.name), op.wall, ref)
             for u, ref in zip(units, metrics.reference_brackets(refs)) for op in u.ops]
    wall = per_unit(first, metrics.by_key([(k, w) for k, w, _ in keyed], min))
    ratio = per_unit(first, metrics.by_key([(k, w / r) for k, w, r in keyed], statistics.median))
    # solve_s is over the units that certified a pair; with none in the
    # block, over all of them
    pick = [u.complete for u in first] if any(u.complete for u in first) else [True] * len(first)
    wall_basis = [v for v, keep in zip(wall, pick) if keep]
    ratio_basis = [v for v, keep in zip(ratio, pick) if keep]
    attempted, failed, _ = tally(first)
    tail, pct = metrics.tail(ratio_basis)
    wall_tail, _ = metrics.tail(wall_basis)
    total = sum(wall)
    unit_kind = "solve" if workload.kind == "solve" else "verify"
    report = {
        "unit_ref": (statistics.median(ratio_basis), "ref"),
        "unit_tail_ref": (tail, "ref"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"summary block={len(first)} passes={len(units) // len(first)} "
          f"complete={sum(u.complete for u in first)} attempted_ops={attempted} "
          f"failed_ops={failed} tail_percentile={pct:.1f} samples={len(ratio_basis)} "
          f"reference_s median={statistics.median(refs):.5f} min={min(refs):.5f} "
          f"max={max(refs):.5f} n={len(refs)}")
    print(f"metric {unit_kind}_s = {statistics.median(wall_basis):.6g} s")
    print(f"metric {unit_kind}_tail_s = {wall_tail:.6g} s (p{pct:.1f} of {len(wall_basis)})")
    print(f"metric s_per_pair = {metrics.per_success(total, attempted - failed):.6g} s "
          f"({total:.3f} s over {attempted - failed} successful of {attempted} ops)")
    print(f"metric failed_frac = {metrics.failed_frac(failed, attempted):.6g}")
    for name, (value, unit) in report.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()}


def run_traced(workload, context, block):
    from tracing import Tracer, instrument

    untraced = [workload.run(context, s) for s in block]
    tracer = Tracer()
    traced = []
    with instrument(tracer):
        for i, seed in enumerate(block + block[:1]):
            tracer.unit_id = i
            with tracer.span("unit"):
                traced.append(workload.run(context, seed))
    repeat = traced.pop()
    problems = []
    if tracer.unit_counts(0) != tracer.unit_counts(len(block)):
        problems.append("traced repeat of unit 0 gave different counts")
    for a, b in zip(untraced, traced + [repeat]):
        if [op.status for op in a.ops] != [op.status for op in b.ops]:
            problems.append(f"tracing changed the outcome of seed {a.seed}")
    return untraced, traced, tracer.summarize(range(len(block))), problems


def per_layer(workload, summary, untraced, traced, setup):
    from besselmp.solvers import SolveOptions

    s = summary
    # every path sweep takes one Armijo step at each interior node
    sweeps = s.count["armijo"] / (SolveOptions().path_nodes - 2)
    info = lambda key: sum(u.info.get(key, 0) for u in traced)  # noqa: E731
    path_iters = info("path_iters")
    attempted, failed, _ = tally(untraced)
    untraced_wall = sum(u.wall for u in untraced)
    verify_failed = tally(traced)[1] if workload.kind == "verify" else 0
    fft_points = s.events["fft_points"]
    values = {
        "grid.fft_calls": (s.count["fft"], "count"),
        "grid.fft_s": (s.self_time["fft"], "s"),
        "grid.fft_points": (fft_points, "count"),
        "grid.fft_bytes_computed": (16 * fft_points, "B"),
        "grid.field_constructions": (s.count["field"], "count"),
        "grid.field_s": (s.self_time["field"], "s"),
        "grid.multiplier_calls": (s.count["multiplier"], "count"),
        "grid.multiplier_s": (s.self_time["multiplier"], "s"),
        "problem.energy_calls": (s.count["energy"], "count"),
        "problem.energy_s": (s.self_time["energy"], "s"),
        "problem.residual_calls": (s.count["residual"], "count"),
        "problem.residual_s": (s.self_time["residual"], "s"),
        "probe.s": (s.inclusive["probe"], "s"),
        "probe.energy_calls": (s.by_top[("probe", "energy")], "count"),
        "probe.fft_calls": (s.by_top[("probe", "fft")], "count"),
        "mountain_pass.s": (s.inclusive["mountain_pass"], "s"),
        "mountain_pass.path_iters": (path_iters, "count"),
        "mountain_pass.polish_iters": (info("polish_iters"), "count"),
        "mountain_pass.energy_per_iter": (
            s.by_parent[("armijo", "energy")] / sweeps if sweeps else 0.0, "calls/iter"),
        "newton.dense_solves": (len(s.newton_dense), "count"),
        "newton.dense_s": (s.duration(s.newton_dense), "s"),
        "newton.krylov_solves": (len(s.newton_krylov), "count"),
        "newton.krylov_s": (s.duration(s.newton_krylov), "s"),
        "newton.krylov_failed": (s.events["krylov_failed"], "count"),
        "newton.failed": (s.events["newton_failed"], "count"),
        "ball.s": (s.inclusive["ball"], "s"),
        "ball.iters": (info("ball_iters"), "count"),
        "ball.energy_calls": (s.by_top[("ball", "energy")], "count"),
        "ball.newton_solves": (s.by_top[("ball", "newton")], "count"),
        "verify.embedding_s": (s.inclusive["verify.embedding"], "s"),
        "verify.norm_domination_s": (s.inclusive["verify.norm-domination"], "s"),
        "verify.sublevel_s": (s.inclusive["verify.sublevel-bound"]
                              + s.inclusive["verify.sublevel-measure"], "s"),
        "verify.random_fields": (s.top_count("verify.", "random_field"), "count"),
        "verify.failed_checks": (verify_failed, "count"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.spec_s": (setup["spec_s"], "s"),
        "solvers.runtime_warnings": (info("runtime_warnings"), "count"),
        "trace.overhead_s": (sum(u.wall for u in traced) - untraced_wall, "s"),
        "trace.spans": (s.spans, "count"),
        "failed_frac": (metrics.failed_frac(failed, attempted), "fraction"),
        "s_per_pair": (metrics.per_success(untraced_wall, attempted - failed), "s"),
        "unit_s": (statistics.median([u.wall for u in untraced if u.complete]
                                     or [u.wall for u in untraced]), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def print_spans(summary):
    print(f"{'span':<26}{'count':>10}{'inclusive_s':>14}{'self_s':>12}")
    for name in sorted(summary.count, key=lambda n: -summary.self_time[n]):
        print(f"{name:<26}{summary.count[name]:>10}{summary.inclusive[name]:>14.4f}"
              f"{summary.self_time[name]:>12.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "besselmp" / "__init__.py").is_file():
        return _fail(f"no besselmp sources under {SRC}")
    from setup_probe import setup
    try:
        first, context = setup(args.workload)
    except LookupError as err:
        return _fail(str(err))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    setup_times = measure_setup(workload.name, first)
    block = workloads.unit_block(workload.name, args.seed, workload.block)

    if args.trace:
        untraced, traced, summary, problems = run_traced(workload, context, block)
        print_units("untraced", untraced)
        print_units("traced", traced)
        print_spans(summary)
        result = per_layer(workload, summary, untraced, traced, setup_times)
        for name, m in result.items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}")
        untraced_wall = sum(u.wall for u in untraced)
        print(f"trace overhead {result['trace.overhead_s']['value']:+.4f} s on "
              f"{untraced_wall:.4f} s untraced ({len(traced)} units)")
        units = untraced
    else:
        units, refs, problems = run_timed(workload, context, block,
                                          workload.passes(args.seconds))
        print_units("timed", units)
        result = end_to_end(workload, units, refs, setup_times)

    attempted, failed, wrong = tally(units)
    problems += [f"{op.name}: {op.detail}" for op in wrong]
    for p in problems:
        print(f"gate: {p}")
    correct = not problems
    print(f"gate: {'pass' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
