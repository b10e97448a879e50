"""Run configuration: flat key=value text or the JSON equivalent.

Parsing accumulates every problem it finds (unknown keys, duplicates,
range violations) and reports them together; nothing is computed from a
config that failed validation.  Range rules live in the objects a run
builds (Grid, ProblemSpec, WellPotential, SolveOptions): parsing builds
them and reports what they reject, so a config that parses also builds.
"""

from __future__ import annotations

import json
import types
from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

from .problem import (
    CoerciveQuadraticPotential,
    GaussianWeight,
    PowerNonlinearity,
    ProblemSpec,
    WellPotential,
)
from .grid import Grid
from .solvers import SolveOptions
from .verify import require_s_in_window, require_tau_in_window

__all__ = ["RunConfig", "ConfigError", "parse_config", "build_spec", "build_options",
           "resolve_checks", "MODES", "CHECK_NAMES"]

MODES = ("solve", "two-solutions", "verify", "probe-geometry", "kernel-table")
POTENTIALS = ("coercive_quadratic", "well")
WEIGHTS = ("gaussian",)
CHECK_NAMES = ("assumptions", "superquadratic-tail", "sublevel-bound", "splitting",
               "coercivity", "sublevel-measure", "holder", "embedding",
               "norm-domination")


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    mode: str = "solve"
    dim: int = 1
    n: int = 256
    box_length: float = 40.0
    alpha: float = 0.75
    lam: float = 1.0
    mu: float = 0.01
    p: float = 1.5
    q: float = 4.0
    potential: str = "coercive_quadratic"
    well_radius: float = 1.0
    well_height: float = 50.0
    well_ramp: float = 1.0
    xi: str = "gaussian"
    tol: float = 1e-8
    max_iter: int = 5000
    rho_grid: tuple[float, ...] | None = None
    samples_per_rho: int = 64
    distinct_tol: float = 1e-3
    # "auto" resolves at run time to the checkers that make sense for the
    # configured potential family (coercivity needs strict positivity, the
    # sublevel checks need a well)
    checks: tuple[str, ...] = ("auto",)
    b: float = 10.0
    trials: int = 100
    tau: float = 1.5
    beta: float | None = None
    separations: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0)
    s_list: tuple[float, ...] = (2.0, 3.0, 4.0)
    kernel_radii: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    kernel_alphas: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    seed: int = 0
    out_dir: str = "out"


# each key parses as its RunConfig annotation says (X | None as X): int,
# float, str, or a tuple of floats or of strings
_FIELD_TYPES = {name: get_args(tp)[0] if get_origin(tp) is types.UnionType else tp
                for name, tp in get_type_hints(RunConfig).items()}
_ALIASES = {"lambda": "lam"}


def _raw_pairs(text, errors):
    text = text.strip()
    if text.startswith("{"):
        pairs = []

        def hook(items):
            pairs.extend(items)
            return dict(items)

        try:
            json.loads(text, object_pairs_hook=hook)
        except json.JSONDecodeError as err:
            errors.append(f"invalid JSON: {err}")
            return []
        return [(k, v) for k, v in pairs]
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _coerce(key, value, errors):
    tp = _FIELD_TYPES[key]
    if get_origin(tp) is tuple:
        items = value if isinstance(value, (list, tuple)) else str(value).split(",")
        if get_args(tp)[0] is str:
            return tuple(str(item).strip() for item in items)
        out = []
        for item in items:
            try:
                out.append(float(str(item).strip()))
            except ValueError:
                errors.append(f"{key}: expected numbers, got {item!r}")
                return None
        return tuple(out)
    if tp is str:
        return str(value)
    try:
        # str() first: int(2.5) would truncate, int("2.5") and int("True") refuse
        return tp(str(value))
    except ValueError:
        errors.append(f"{key}: expected {'an integer' if tp is int else 'a number'}, got {value!r}")
        return None


def _validate(cfg: RunConfig, errors) -> None:
    """Rules no built object owns; build_spec and build_options check the rest."""
    if cfg.mode not in MODES:
        errors.append(f"mode: unknown mode {cfg.mode!r}; choose from {', '.join(MODES)}")
    if cfg.potential not in POTENTIALS:
        errors.append(f"potential: unknown choice {cfg.potential!r}; choose from {', '.join(POTENTIALS)}")
    if cfg.xi not in WEIGHTS:
        errors.append(f"xi: unknown choice {cfg.xi!r}; choose from {', '.join(WEIGHTS)}")
    for name in ("distinct_tol", "b", "samples_per_rho", "trials"):
        if getattr(cfg, name) <= 0:
            errors.append(f"{name}: must be positive, got {getattr(cfg, name)}")
    if cfg.beta is not None and not 0.0 < cfg.beta < 2.0:
        errors.append(f"beta: must lie in (0, 2), got {cfg.beta}")
    if cfg.rho_grid is not None and any(r <= 0 for r in cfg.rho_grid):
        errors.append("rho_grid: radii must be positive")
    for name in cfg.checks:
        if name != "auto" and name not in CHECK_NAMES:
            errors.append(f"checks: unknown checker {name!r}; choose from {', '.join(CHECK_NAMES)}")
    grid = _collect(errors, lambda: Grid(dim=cfg.dim, n=cfg.n, box_length=cfg.box_length))
    problem = None
    if cfg.dim in (1, 2, 3):
        # the problem's own rules need only the dimension: a small grid of it
        # stands in for one refused for its size or its box
        problem = _collect(errors, lambda: _problem_on(grid or Grid(cfg.dim, 8, 1.0), cfg))
    _collect(errors, lambda: build_options(cfg))
    if cfg.mode == "verify" and problem is not None:
        # the exponent windows of the selected checks, as the checks apply them
        checks = resolve_checks(cfg)
        if "superquadratic-tail" in checks:
            _collect(errors, lambda: require_tau_in_window(cfg.tau, cfg.dim, cfg.alpha, cfg.q))
        if "embedding" in checks:
            _collect(errors, lambda: require_s_in_window(cfg.s_list, cfg.dim, cfg.alpha))


def resolve_checks(cfg: RunConfig) -> tuple:
    """The checkers a verify run executes; "auto" picks those that fit the potential family."""
    if tuple(cfg.checks) != ("auto",):
        return tuple(cfg.checks)
    common = ("assumptions", "superquadratic-tail", "splitting", "holder",
              "embedding", "norm-domination")
    if cfg.potential == "well":
        return common + ("sublevel-bound", "sublevel-measure")
    return common + ("coercivity",)


def _collect(errors, build):
    """build(), or None after adding the problems of the ValueError it raised."""
    try:
        return build()
    except ValueError as err:
        # the constructors join their problems with "; " (grid._require)
        errors.extend(str(err).split("; "))
        return None


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse and validate a config; ``overrides`` (already typed) replace parsed keys."""
    errors: list[str] = []
    pairs = _raw_pairs(text, errors)

    seen: dict = {}
    values: dict = {}
    for key, value in pairs:
        key = _ALIASES.get(key, key)
        if key not in _FIELD_TYPES:
            errors.append(f"unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"duplicate key {key!r} (values {seen[key]!r} and {value!r})")
            continue
        seen[key] = value
        coerced = _coerce(key, value, errors)
        if coerced is not None:
            values[key] = coerced

    cfg = RunConfig(**{**values, **overrides})
    _validate(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def build_spec(cfg: RunConfig) -> ProblemSpec:
    return _problem_on(Grid(dim=cfg.dim, n=cfg.n, box_length=cfg.box_length), cfg)


def _problem_on(grid: Grid, cfg: RunConfig) -> ProblemSpec:
    if cfg.potential == "well":
        potential = WellPotential(radius=cfg.well_radius, height=cfg.well_height,
                                  ramp=cfg.well_ramp)
    else:
        potential = CoerciveQuadraticPotential()
    return ProblemSpec(
        grid=grid, alpha=cfg.alpha, lam=cfg.lam, mu=cfg.mu, p=cfg.p,
        nonlinearity=PowerNonlinearity(cfg.q), potential=potential,
        weight=GaussianWeight(),
    )


def build_options(cfg: RunConfig) -> SolveOptions:
    return SolveOptions(tol=cfg.tol, max_iter=cfg.max_iter)
