"""The benchmark's workloads: what one unit of work is, and its anchors.

A solver unit is ``two_solution_experiment`` on a prepared spec for one
unit seed; it certifies a pair or fails with a recorded stage.  A verify
unit runs the property checks that ``checks = auto`` picks, for both
potential families, with the arguments the ``verify`` command passes.
Each workload has a fixed block of unit seeds drawn from the workload
seed; the timed and the traced runs both use that block, and no unit in it
is ever skipped.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from besselmp import verify as checks
from besselmp.config import RunConfig, build_spec
from besselmp.grid import Field
from besselmp.problem import canonical_coercive_spec, canonical_well_spec, validate_assumptions
from besselmp.solvers import two_solution_experiment

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass(frozen=True)
class Anchor:
    """A reference value and the distance from it that still counts as a hit."""

    value: float
    tol: float

    def miss(self, label, got):
        if got is None or not abs(got - self.value) <= self.tol:
            return f"{label} {got!r} is not {self.value!r} +- {self.tol:g}"
        return None


@dataclass(frozen=True)
class Op:
    """One attempted operation, a solver unit or a single check, and its wall time."""

    name: str
    status: str
    wall: float
    detail: str = ""


@dataclass
class UnitResult:
    seed: int
    wall: float
    ops: list
    complete: bool  # certified a pair, or ran every check to its anchored verdict
    info: dict = field(default_factory=dict)


def unit_block(workload: str, seed: int, size: int) -> list:
    """The reproducible block of ``size`` unit seeds for one workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(size)]


def _fill_caches(spec):
    spec.V_field, spec.xi_field, spec.grid.freq_sq
    return spec


# ---------------------------------------------------------------------------
# solver units


@dataclass(frozen=True)
class PairAnchors:
    saddle: Anchor
    minimizer: Anchor | None = None
    distance: Anchor | None = None


def _solve_unit(spec, anchors: PairAnchors, seed: int) -> UnitResult:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            res = two_solution_experiment(spec, seed=seed)
            error = None
        except Exception as err:  # a crash is a failed unit, reported with its text
            res, error = None, f"{type(err).__name__}: {err}"
        wall = time.perf_counter() - t0
    info = {"runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}
    if res is None:
        return UnitResult(seed, wall, [Op("pair", WRONG, wall, error)], False, info)

    mp, ball = res.mountain_pass, res.local_min
    misses = []
    if mp is not None:
        info["path_iters"] = sum(t.phase == "path" for t in mp.trace)
        info["polish_iters"] = sum(t.phase == "polish" for t in mp.trace)
        if mp.converged:
            # the saddle is checked on rejected units too: a rejection must
            # come from certification, never from a different saddle
            misses.append(anchors.saddle.miss("saddle", mp.energy))
    if ball is not None:
        info["ball_iters"] = ball.iterations
    if res.success:
        if anchors.minimizer is not None:
            misses.append(anchors.minimizer.miss("minimizer", ball.energy))
        if anchors.distance is not None:
            misses.append(anchors.distance.miss("distance", res.distinctness))
    misses = [m for m in misses if m]
    if misses:
        status, detail = WRONG, "; ".join(misses)
    elif res.success:
        status, detail = OK, ""
    else:
        status, detail = FAILED, res.failed_stage or "not certified"
    return UnitResult(seed, wall, [Op("pair", status, wall, detail)], status == OK, info)


# ---------------------------------------------------------------------------
# verify units

# check name -> the exception it raises at this commit.  check_splitting
# indexes the box edge as a 1-D array and raises IndexError in dim 2; it is
# measured as failed, not left out, and any other outcome of it is wrong.
KNOWN_FAILING = {"splitting": "IndexError"}


def _verify_family_checks(cfg, spec, seed):
    """(name, thunk) per check; a thunk returns (verdict, anchor misses)."""
    g = spec.grid
    bump = Field(g, np.exp(-g.radius_sq))
    partner = Field(g, 0.8 * np.exp(-1.3 * g.radius_sq))
    beta = cfg.beta if cfg.beta is not None else 0.9 * 2.0 * cfg.alpha

    def assumptions():
        return validate_assumptions(spec, b=cfg.b).passed, []

    def tail():
        rec = checks.check_superquadratic_tail(spec, tau=cfg.tau)
        # quartic nonlinearity: threshold 4, to the scan resolution
        return rec.passed, [Anchor(4.0, 1e-3).miss("tail threshold", rec.data["threshold"])]

    def splitting():
        return checks.check_splitting(spec, bump, partner, cfg.separations).passed, []

    def holder():
        value = checks.holder_estimate(bump, beta)
        return True, [Anchor(1.5659591285976011, 1e-9).miss("holder quotient", value)]

    def embedding():
        est = checks.estimate_embedding_constants(cfg.alpha, g, cfg.s_list,
                                                  trials=cfg.trials, seed=seed)
        gamma2 = est.table[2.0]
        ok = all(math.isfinite(v) for v in est.table.values()) and gamma2 <= 1.0 + 1e-9
        # the constant field attains the L2 supremum exactly
        return ok, [Anchor(1.0, 1e-12).miss("gamma_2", gamma2)]

    def norm_domination():
        return checks.check_norm_domination(spec, trials=cfg.trials, seed=seed).passed, []

    def coercivity():
        radii = np.linspace(0.0, 0.5 * g.box_length - 1.5, 8)
        return checks.coercivity_probe(spec.V_field, radii, b=cfg.b).passed, []

    def sublevel_bound():
        rec = checks.check_sublevel_l2_bound(spec, b=cfg.b, trials=cfg.trials, seed=seed)
        return rec.passed, []

    def sublevel_measure():
        value = checks.sublevel_measure(spec.V_field, cfg.b)
        return True, [Anchor(8.203125, 1e-12).miss("sublevel measure", value)]

    common = [("assumptions", assumptions), ("superquadratic-tail", tail),
              ("splitting", splitting), ("holder", holder), ("embedding", embedding),
              ("norm-domination", norm_domination)]
    if spec.potential.family == "well":
        return common + [("sublevel-bound", sublevel_bound), ("sublevel-measure", sublevel_measure)]
    return common + [("coercivity", coercivity)]


def _verify_unit(families, seed: int) -> UnitResult:
    outcomes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        for family, cfg, spec in families:
            for name, thunk in _verify_family_checks(cfg, spec, seed):
                t_check = time.perf_counter()
                try:
                    verdict, misses = thunk()
                    error = None
                except Exception as err:  # a check that raised has verdict "failed"
                    verdict, misses, error = False, [], f"{type(err).__name__}: {err}"
                check_wall = time.perf_counter() - t_check
                outcomes.append((family, name, verdict, [m for m in misses if m], error,
                                 check_wall))
        wall = time.perf_counter() - t0
    ops = []
    for family, name, verdict, misses, error, check_wall in outcomes:
        label = f"{family}:{name}"
        if misses:
            ops.append(Op(label, WRONG, check_wall, "; ".join(misses)))
        elif verdict:
            ops.append(Op(label, OK, check_wall))
        elif error and error.startswith(KNOWN_FAILING.get(name, "-") + ":"):
            ops.append(Op(label, FAILED, check_wall, error))
        else:
            ops.append(Op(label, WRONG, check_wall, error or "verdict false, passed when anchored"))
    info = {"runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}
    return UnitResult(seed, wall, ops, all(op.status != WRONG for op in ops), info)


def _verify_families():
    out = []
    for family in ("coercive_quadratic", "well"):
        cfg = RunConfig(mode="verify", dim=2, n=64, box_length=40.0, potential=family,
                        trials=1000)
        out.append((family, cfg, _fill_caches(build_spec(cfg))))
    return out


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" or "verify"
    build: object  # () -> prepared context, first-use caches filled
    run: object  # (context, seed) -> UnitResult
    block: int  # unit seeds per workload seed
    pass_s: float  # nominal seconds of one timed pass over the block (2-vCPU VM)
    reference: str = "calls"  # the reference work its times are divided by (run.py)

    def passes(self, seconds: float) -> int:
        """Timed passes in a run of ``seconds``: fixed by the arguments alone,
        so the operations a run attempts never depend on the machine's speed."""
        return max(1, int(seconds // self.pass_s))


def _solver(name, make_spec, anchors, block, pass_s, reference="calls"):
    return Workload(
        name, "solve",
        build=lambda: _fill_caches(make_spec()),
        run=lambda spec, seed: _solve_unit(spec, anchors, seed),
        block=block,
        pass_s=pass_s,
        reference=reference,
    )


WORKLOADS = {w.name: w for w in (
    # anchors to the digits the README prints
    _solver("coercive_1d", canonical_coercive_spec,
            PairAnchors(saddle=Anchor(3.22418890, 5e-9), minimizer=Anchor(-5.635e-11, 5e-15)),
            block=2, pass_s=2.5),
    _solver("well_1d", canonical_well_spec,
            PairAnchors(saddle=Anchor(1.49315052, 5e-9), minimizer=Anchor(-9.819e-8, 5e-12),
                        distance=Anchor(1.674, 5e-4)),
            # about half the units fail cheaply in the probe; 12 leaves some
            # 5 certified units for the median a run reports
            block=12, pass_s=22.0),
    # n=48 on a 15-wide box keeps the n=64, box-20 mesh width and the Krylov
    # route (48**2 > 2048 points) at about 7 s a unit.  The saddle is as
    # recorded with this benchmark; 1e-8 leaves room for last-bit drift in
    # the Krylov polish and nothing more.
    _solver("plane_2d", lambda: build_spec(RunConfig(dim=2, n=48, box_length=15.0)),
            PairAnchors(saddle=Anchor(5.7174234285, 1e-8)),
            block=1, pass_s=6.5, reference="stacked"),
    Workload("verify_2d", "verify", build=_verify_families, run=_verify_unit,
             block=1, pass_s=6.0),
)}
