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

import numpy as np

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
from .grid import Field
from .kernels import bessel_kernel
from .problem import validate_assumptions
from .solvers import TraceEntry, _attempt, two_solution_stages
from . import verify as verify_mod

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunReport":
        stages = tuple(StageResult(**s) for s in data["stages"])
        return cls(version=data["version"], config=data["config"], stages=stages,
                   passed=data["passed"])


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    for key, value in echo.items():
        if isinstance(value, tuple):
            echo[key] = list(value)
    return echo


def _solve_summary(report) -> dict:
    return {
        "classification": report.classification,
        "energy": report.energy,
        "residual_norm": report.residual_norm,
        "iterations": report.iterations,
        "converged": report.converged,
        "ok": report.ok,
        "message": report.message,
    }


def _probe_summary(probe) -> dict:
    return {
        "rho": probe.rho,
        "eta": probe.eta,
        "mu_budget": probe.mu_budget,
        "c_inf": probe.c_inf,
        "c_2": probe.c_2,
    }


def _write_trace(path: Path, entries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [f.name for f in fields(TraceEntry)]
        writer.writerow(names)
        writer.writerows([getattr(t, name) for name in names] for t in entries)


def _write_profile(path: Path, grid, columns: dict) -> None:
    """Plot-ready profile: x plus one column per named field (axis-0 line
    through the box center for dim > 1)."""
    series = {}
    for name, field in columns.items():
        vals = field.values
        while vals.ndim > 1:
            vals = vals[:, vals.shape[1] // 2]
        series[name] = vals
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + list(series))
        for i, x in enumerate(grid.axis_coords):
            writer.writerow([float(x)] + [float(series[name][i]) for name in series])


def _timed(stages, name, fn):
    t0 = time.perf_counter()
    outcome, error = _attempt(fn)
    passed, summary = outcome if error is None else (False, {"error": error})
    stages.append(StageResult(name, bool(passed), time.perf_counter() - t0, summary))


# how many stages of the two-solution pipeline each solve mode runs
_PIPELINE_STAGES = {"probe-geometry": 1, "solve": 2, "two-solutions": 4}
_TRACE_FILES = {"mountain_pass": "trace.csv", "local_min": "trace_ball.csv"}


def _run_pipeline(cfg, out, stages):
    """Time each pipeline stage and write its artifacts and summary."""
    spec = build_spec(cfg)
    pipeline = two_solution_stages(spec, build_options(cfg), cfg.distinct_tol)
    solutions = {}
    t0 = time.perf_counter()
    for name, ok, result in itertools.islice(pipeline, _PIPELINE_STAGES[cfg.mode]):
        wall = time.perf_counter() - t0
        if isinstance(result, str):
            summary = {"error": result}
        elif name == "probe_geometry":
            summary = _probe_summary(result)
            if cfg.mode == "probe-geometry":
                save_field(result.e, out / "endpoint.bmpf")
        elif name == "levels":
            summary = result
        else:
            summary = _solve_summary(result)
            _write_trace(out / _TRACE_FILES[name], result.trace)
            save_field(result.solution, out / f"{name}.bmpf")
            solutions[f"u_{name}"] = result.solution
            if cfg.mode == "solve":
                _write_profile(out / "profile.csv", spec.grid, {"u": result.solution})
            elif name == "local_min":
                _write_profile(out / "profile.csv", spec.grid, solutions)
        stages.append(StageResult(name, bool(ok), wall, summary))
        t0 = time.perf_counter()


def _run_verify(cfg, out, stages):
    spec = build_spec(cfg)
    g = spec.grid
    beta = cfg.beta if cfg.beta is not None else 0.9 * 2.0 * cfg.alpha
    bump = Field(g, np.exp(-g.radius_sq))
    partner = Field(g, 0.8 * np.exp(-1.3 * g.radius_sq))

    def record_stage(record):
        return record.passed, record.as_json_dict()

    runners = {
        "assumptions": lambda: _assumptions_record(spec, cfg.b),
        "superquadratic-tail": lambda: record_stage(
            verify_mod.check_superquadratic_tail(spec, tau=cfg.tau)),
        "sublevel-bound": lambda: record_stage(
            verify_mod.check_sublevel_l2_bound(spec, b=cfg.b)),
        "splitting": lambda: record_stage(
            verify_mod.check_splitting(spec, bump, partner, cfg.separations)),
        "coercivity": lambda: record_stage(
            verify_mod.coercivity_probe(spec.V_field,
                                        np.linspace(0.0, 0.5 * g.box_length - 1.5, 8),
                                        b=cfg.b)),
        "sublevel-measure": lambda: (True, {
            "checker": "sublevel_measure", "b": cfg.b,
            "measure": verify_mod.sublevel_measure(spec.V_field, cfg.b)}),
        "holder": lambda: (True, {
            "checker": "holder_estimate", "beta": beta,
            "value": verify_mod.holder_estimate(bump, beta)}),
        "embedding": lambda: _embedding_record(cfg, spec),
        "norm-domination": lambda: record_stage(
            verify_mod.check_norm_domination(spec)),
    }
    for name in resolve_checks(cfg):
        _timed(stages, f"verify:{name}", runners[name])


def _assumptions_record(spec, b):
    report = validate_assumptions(spec, b=b)
    checks = [{"name": c.name, "pass": c.passed, "required": c.required,
               "detail": c.detail} for c in report.checks]
    return report.passed, {"checker": "assumptions", "checks": checks}


def _embedding_record(cfg, spec):
    est = verify_mod.estimate_embedding_constants(cfg.alpha, spec.grid, cfg.s_list)
    ok = all(np.isfinite(v) and v <= est.upper[s] * (1.0 + 1e-12) for s, v in est.table.items())
    if 2.0 in est.table:
        ok = ok and est.table[2.0] <= 1.0 + 1e-9
    return ok, {"checker": "embedding",
                "table": {str(s): v for s, v in est.table.items()},
                "upper": {str(s): v for s, v in est.upper.items()}}


def _run_kernel_table(cfg, out, stages):
    def table_stage():
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["radius", "alpha", "dim", "G_value", "est_error"])
        rows = []
        for order in cfg.kernel_alphas:
            for radius in cfg.kernel_radii:
                k = bessel_kernel(radius, order, cfg.dim)
                rows.append([radius, order, cfg.dim, k.value, k.est_error])
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
        sys.stdout.write(text)
        (out / "kernel_table.csv").write_text(text)
        return True, {"rows": len(rows), "file": "kernel_table.csv"}

    _timed(stages, "kernel_table", table_stage)


def run(cfg: RunConfig) -> RunReport:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages: list[StageResult] = []
    if cfg.mode in _PIPELINE_STAGES:
        _run_pipeline(cfg, out, stages)
    elif cfg.mode == "verify":
        _run_verify(cfg, out, stages)
    elif cfg.mode == "kernel-table":
        _run_kernel_table(cfg, out, stages)
    else:
        raise ConfigError([f"mode: unknown mode {cfg.mode!r}"])

    report = RunReport(
        version=__version__, config=_config_echo(cfg), stages=tuple(stages),
        passed=bool(stages) and all(s.passed for s in stages),
    )
    with open(out / "report.json", "w") as fh:
        json.dump(report.as_json_dict(), fh, indent=2)
        fh.write("\n")
    return report


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
        text = Path(args.config).read_text() if args.config is not None else ""
        cfg = parse_config(text, **overrides)
    except ConfigError as err:
        for line in err.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    report = run(cfg)
    for stage in report.stages:
        flag = "PASS" if stage.passed else "FAIL"
        print(f"[{flag}] {stage.name} ({stage.wall_seconds:.2f}s)")
    print(f"report: {Path(cfg.out_dir) / 'report.json'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
