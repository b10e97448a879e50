"""Interleaved benchmark of this checkout's solvers against a parent revision, in one process.

Loads ``besselmp`` twice, from this checkout's ``src/`` and from a parent's
(``git archive`` of --parent into a temporary directory, or the directory
--parent-src), by swapping the ``besselmp`` entries of ``sys.modules``.
For each run it records, on both sides:

* exact counts of a two-solution run on a fresh problem: forward and
  inverse transforms (``grid._rfft`` / ``grid._irfft`` calls), and per
  solve (saddle, minimizer) the descent rows, polish rows and Newton
  MINRES iterations;
* the saddle level c and the minimizer level m, and whether the run
  certified;
* warm wall times: in each of --rounds rounds every side times --repeats
  runs of the same problem, the side that goes first alternating between
  rounds, and the round's median per side decides who won it.  The JSON
  gives the median and quartiles of the round medians, in ms, and the
  rounds each side won.

BLAS is pinned to one thread before NumPy loads.  Wall times on a shared
machine swing between invocations: only the counts, the levels and the
interleaved comparison are comparable.  No gate is applied yet.

Usage: python scripts/bench.py [--parent HEAD | --parent-src DIR] [--runs a,b]
                               [--rounds 10] [--repeats 5] [--out BENCH.json]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STEEP_WELL = {"dim": 2, "box_length": 20.0, "potential": "well", "lam": 100.0, "mu": 0.05}
# name -> ("canonical", family, n) or ("config", RunConfig keywords)
RUNS = {
    "coercive_1d": ("canonical", "coercive", 256),
    "well_1d": ("canonical", "well", 256),
    "plane_2d": ("config", {"dim": 2, "n": 48, "box_length": 15.0}),
    "steep_well_2d_n64": ("config", {**STEEP_WELL, "n": 64}),
    "steep_well_2d_n128": ("config", {**STEEP_WELL, "n": 128}),
    "3d_n32": ("config", {"dim": 3, "n": 32, "box_length": 10.0, "q": 3.0}),
    "3d_n64": ("config", {"dim": 3, "n": 64, "box_length": 10.0, "q": 3.0}),
    "coercive_1d_n512": ("canonical", "coercive", 512),
    "well_1d_n512": ("canonical", "well", 512),
}
SIDES = ("parent", "checkout")


def _owned(name):
    return name == "besselmp" or name.startswith("besselmp.")


def load(src):
    """The modules of ``besselmp`` imported from the directory ``src``, by name.

    Whatever ``besselmp`` was loaded before is put back in ``sys.modules``,
    so two copies live side by side; ``active`` swaps one in to run it.
    """
    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if _owned(k)}
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("besselmp")  # which imports grid, problem, solvers and config
    finally:
        sys.path.remove(str(src))
        mods = {k: sys.modules.pop(k) for k in list(sys.modules) if _owned(k)}
        sys.modules.update(saved)
    return mods


@contextlib.contextmanager
def active(mods):
    """``mods`` in place of the ``besselmp`` entries of ``sys.modules``, for imports made at call time."""
    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if _owned(k)}
    sys.modules.update(mods)
    try:
        yield
    finally:
        for k in [k for k in sys.modules if _owned(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def build(mods, name):
    """A fresh ProblemSpec of the run ``name``, from the modules ``mods``."""
    kind, *args = RUNS[name]
    if kind == "canonical":
        family, n = args
        return getattr(mods["besselmp.problem"], f"canonical_{family}_spec")(n=n)
    config = mods["besselmp.config"]
    return config.build_spec(config.RunConfig(**args[0]))


@contextlib.contextmanager
def counted_transforms(grid):
    """Count the calls of ``grid._rfft`` and ``grid._irfft`` while the block runs."""
    calls, saved = Counter(), {}
    for name in ("_rfft", "_irfft"):
        saved[name] = fn = getattr(grid, name)

        def wrapper(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        setattr(grid, name, wrapper)
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(grid, name, fn)


def _solve_counts(report):
    polish = [t for t in report.trace if t.phase == "polish"]
    return {"descent_rows": len(report.trace) - len(polish), "polish_rows": len(polish),
            "newton_minres": sum(t.krylov_iters for t in polish)}


def measure_counts(mods, name):
    """Counts, levels and outcome of one run on a fresh problem."""
    with active(mods):
        spec = build(mods, name)
        with counted_transforms(mods["besselmp.grid"]) as calls:
            r = mods["besselmp.solvers"].two_solution_experiment(spec)
    out = {"certified": r.success, "failed_stage": r.failed_stage,
           "forward_transforms": calls["_rfft"], "inverse_transforms": calls["_irfft"]}
    for key, report in (("saddle", r.mountain_pass), ("minimizer", r.local_min)):
        out[key] = None if report is None else {"energy": report.energy, **_solve_counts(report)}
    return out


def _timed(mods, spec, repeats):
    """The median wall time in ms of ``repeats`` warm two-solution runs on ``spec``."""
    solve = mods["besselmp.solvers"].two_solution_experiment
    times = []
    with active(mods):
        for _ in range(repeats):
            t = time.perf_counter()
            solve(spec)
            times.append(1e3 * (time.perf_counter() - t))
    return statistics.median(times)


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "rounds": values}


def measure_times(sides, name, rounds, repeats):
    """Interleaved warm times of the run ``name`` on every side, with the rounds each won."""
    specs = {}
    for side, mods in sides.items():
        with active(mods):
            specs[side] = build(mods, name)
        _timed(mods, specs[side], 1)  # warm: caches, the 1-D matrices, bytecode
    medians = {side: [] for side in sides}
    order = list(sides)
    for k in range(rounds):
        for side in order if k % 2 == 0 else order[::-1]:
            medians[side].append(_timed(sides[side], specs[side], repeats))
    wins = Counter(min(sides, key=lambda s: medians[s][k]) for k in range(rounds))
    return {side: {**_spread(medians[side]), "won": wins[side]} for side in sides}


def parent_src(rev, into):
    """Extract ``src/`` of the git revision ``rev`` of this checkout under ``into``; the path."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                    else {}))
    return Path(into) / "src"


def machine():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "cpus": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def bench(src_parent, names, rounds, repeats):
    sides = {"parent": load(src_parent), "checkout": load(ROOT / "src")}
    runs = {}
    for name in names:
        counts = {side: measure_counts(mods, name) for side, mods in sides.items()}
        runs[name] = {**counts, "time_ms": measure_times(sides, name, rounds, repeats)}
    return runs


def _summary(runs):
    lines = [f"{'run':<20} {'fwd':>11} {'newton':>15} {'ms (won)':>28}  c / m move"]
    for name, run in runs.items():
        old, new = run["parent"], run["checkout"]
        newton = [f"{s['saddle']['newton_minres']}+{s['minimizer']['newton_minres']}"
                  if s["saddle"] and s["minimizer"] else "-" for s in (old, new)]
        t = run["time_ms"]
        times = " -> ".join(f"{t[s]['median']:.2f} ({t[s]['won']})" for s in SIDES)
        moves = []
        for key in ("saddle", "minimizer"):
            if old[key] and new[key]:
                moves.append(f"{old[key]['energy']!r} -> {new[key]['energy']!r}")
        lines.append(f"{name:<20} {old['forward_transforms']:>4} -> {new['forward_transforms']:<4}"
                     f" {' -> '.join(newton):>15} {times:>28}  {'; '.join(moves)}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--parent", default="HEAD", help="git revision to compare against")
    where.add_argument("--parent-src", type=Path, help="a directory holding the parent's besselmp")
    parser.add_argument("--runs", default=",".join(RUNS),
                        help=f"comma-separated subset of {', '.join(RUNS)}")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, help="where to write the JSON record")
    args = parser.parse_args(argv)
    names = [n for n in args.runs.split(",") if n]
    unknown = [n for n in names if n not in RUNS]
    if unknown or args.rounds < 1 or args.repeats < 1:
        parser.error(f"unknown runs {unknown}" if unknown else "rounds and repeats must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            src = args.parent_src or parent_src(args.parent, tmp)
        except subprocess.CalledProcessError as err:
            parser.error(f"git archive {args.parent}: {err.stderr.decode().strip()}")
        runs = bench(src, names, args.rounds, args.repeats)
    record = {"parent": str(args.parent_src) if args.parent_src else args.parent,
              "rounds": args.rounds, "repeats": args.repeats, "machine": machine(), "runs": runs}
    print(_summary(runs))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
