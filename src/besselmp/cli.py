"""Command-line front end: orchestrates runs and writes the output files.

Every mode produces report.json in the output directory; the solve modes
add convergence traces (trace.csv, and trace_ball.csv when the ball
minimizer was searched), a plot-ready profile.csv, and the solution fields as .bmpf.  Exit
status is 0 exactly when every executed stage passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .config import (
    MODES,
    ConfigError,
    RunConfig,
    build_options,
    build_spec,
    parse_config,
    resolve_checks,
)
from .fieldio import save_field
from .solvers import TraceEntry, _attempt, two_solution_stages
from .verify import CHECKS

__all__ = ["StageResult", "RunReport", "run", "main"]


@dataclass(frozen=True)
class StageResult:
    name: str
    passed: bool
    wall_seconds: float
    summary: dict


@dataclass(frozen=True)
class RunReport:
    version: str
    config: dict
    stages: tuple
    passed: bool

    def as_json_dict(self) -> dict:
        return {
            "version": self.version,
            "status": "ok" if self.passed else "FAILED",
            "config": self.config,
            "stages": [asdict(s) for s in self.stages],
            "passed": self.passed,
        }


def _config_echo(cfg: RunConfig) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(cfg).items()}


# the attributes of a GeometryProbe and of a SolveReport that a stage summary carries
_PROBE_KEYS = ("rho", "eta", "mu_budget", "mu0_lower", "c_inf", "c_2")
_SOLVE_KEYS = ("classification", "energy", "residual_norm", "iterations", "converged", "ok",
               "message")


def _summary(result, keys) -> dict:
    return {key: getattr(result, key) for key in keys}


def _write_trace(path: Path, entries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [f.name for f in fields(TraceEntry)]
        writer.writerow(names)
        writer.writerows([getattr(t, name) for name in names] for t in entries)


def _write_profile(path: Path, grid, columns: dict) -> None:
    """Plot-ready profile: x plus one column per named field (for dim > 1
    the axis-0 line at index n//2 on the other axes: through the box center,
    or at x_i = -h/2 when n is odd)."""
    line = (slice(None),) + (grid.n // 2,) * (grid.dim - 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + list(columns))
        writer.writerows(zip(grid.axis_coords.tolist(),
                             *(field.values[line].tolist() for field in columns.values())))


# how many stages of the two-solution pipeline each solve mode runs
_PIPELINE_STAGES = {"probe-geometry": 1, "solve": 2, "two-solutions": 4}
_TRACE_FILES = {"mountain_pass": "trace.csv", "local_min": "trace_ball.csv"}


def _pipeline_stages(cfg, out):
    """Each pipeline stage's (name, ok, summary), its artifacts written first."""
    spec = build_spec(cfg)
    pipeline = two_solution_stages(spec, build_options(cfg), cfg.distinct_tol)
    solutions = {}
    for name, ok, result in itertools.islice(pipeline, _PIPELINE_STAGES[cfg.mode]):
        if isinstance(result, str):
            summary = {"error": result}
        elif name == "probe_geometry":
            summary = _summary(result, _PROBE_KEYS)
            if cfg.mode == "probe-geometry":
                save_field(result.e, out / "endpoint.bmpf")
        elif name == "levels":
            summary = result
        else:
            summary = {**_summary(result, _SOLVE_KEYS), **result.counts}
            _write_trace(out / _TRACE_FILES[name], result.trace)
            save_field(result.solution, out / f"{name}.bmpf")
            solutions[f"u_{name}"] = result.solution
            if cfg.mode == "solve":
                _write_profile(out / "profile.csv", spec.grid, {"u": result.solution})
            elif name == "local_min":
                _write_profile(out / "profile.csv", spec.grid, solutions)
        yield name, ok, summary


def _outcome(name, fn):
    """(name, ok, summary) for fn() -> (ok, summary); a stage that raised fails with its error."""
    outcome, error = _attempt(fn)
    return (name, *outcome) if error is None else (name, False, {"error": error})


def _verify_stages(cfg, out):
    spec = build_spec(cfg)
    for name in resolve_checks(cfg):
        def check():
            record = CHECKS[name].run(spec, cfg)
            return record.passed, record.as_json_dict()

        yield _outcome(f"verify:{name}", check)


def _kernel_table_stages(cfg, out):
    from .kernels import bessel_kernel  # needs SciPy; only this mode imports it

    def table():
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["radius", "alpha", "dim", "G_value", "est_error"])
        rows = []
        for order in cfg.kernel_alphas:
            for radius in cfg.kernel_radii:
                k = bessel_kernel(radius, order, cfg.dim)
                rows.append([radius, order, cfg.dim, k.value, k.est_error])
        writer.writerows(rows)
        text = buf.getvalue()
        sys.stdout.write(text)
        (out / "kernel_table.csv").write_text(text)
        return True, {"rows": len(rows), "file": "kernel_table.csv"}

    yield _outcome("kernel_table", table)


_MODE_STAGES = {**dict.fromkeys(_PIPELINE_STAGES, _pipeline_stages),
                "verify": _verify_stages, "kernel-table": _kernel_table_stages}


def run(cfg: RunConfig) -> RunReport:
    if cfg.mode not in _MODE_STAGES:
        raise ConfigError([f"mode: unknown mode {cfg.mode!r}"])
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a file in the way, or no permission
        raise ConfigError([f"out_dir: cannot create directory {out}: {err.strerror}"]) from err
    stages: list[StageResult] = []
    t0 = time.perf_counter()
    for name, ok, summary in _MODE_STAGES[cfg.mode](cfg, out):
        now = time.perf_counter()
        stages.append(StageResult(name, bool(ok), now - t0, summary))
        t0 = now

    report = RunReport(
        version=__version__, config=_config_echo(cfg), stages=tuple(stages),
        passed=bool(stages) and all(s.passed for s in stages),
    )
    with open(out / "report.json", "w") as fh:
        json.dump(report.as_json_dict(), fh, indent=2)
        fh.write("\n")
    return report


def _read_config(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        reason = getattr(err, "strerror", err)
        raise ConfigError([f"config: cannot read {path}: {reason}"]) from err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bessel-mp",
        description="Spectral two-solution solver and property checks for a "
                    "nonlocal elliptic problem on a periodic box.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", type=Path, default=None,
                        help="key=value or JSON config file")
        sp.add_argument("--out", type=Path, default=None,
                        help="override the output directory")
    args = parser.parse_args(argv)

    # the command line wins over the file; validation sees the merged config,
    # so checks that only the mode selects are validated too
    overrides = {"mode": args.mode}
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    try:
        text = _read_config(args.config) if args.config is not None else ""
        cfg = parse_config(text, **overrides)
        report = run(cfg)
    except ConfigError as err:
        for line in err.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    for stage in report.stages:
        flag = "PASS" if stage.passed else "FAIL"
        print(f"[{flag}] {stage.name} ({stage.wall_seconds:.2f}s)")
    print(f"report: {Path(cfg.out_dir) / 'report.json'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
