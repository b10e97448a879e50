"""Quantitative checks behind the existence argument.

Each checker evaluates one inequality or estimate on concrete fields and
returns a CheckRecord: name, parameters, seed, verdict, and witnesses.
Thresholds are artifact conventions (documented per checker), chosen so
that honest numerics pass and genuine violations fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    _require,
    bessel_norm_sq,
    lp_norm,
    random_field,
    spectral_derivative,
    weighted_norm_sq,
)
from .problem import ProblemSpec, critical_exponent, energy, eval_f, eval_scrF
from .problem import _ball_integrals, _ladder_verdict, _unit_ball

__all__ = [
    "CheckRecord",
    "EmbeddingEstimate",
    "check_superquadratic_tail",
    "check_sublevel_l2_bound",
    "check_splitting",
    "coercivity_probe",
    "sublevel_measure",
    "holder_estimate",
    "estimate_embedding_constants",
    "check_norm_domination",
    "require_tau_in_window",
    "require_s_in_window",
]


def require_tau_in_window(tau: float, dim: int, alpha: float, q: float) -> None:
    """Refuse a tail exponent outside the open window (max(1, dim/(2 alpha)), q/(q-2))."""
    lo = max(1.0, dim / (2.0 * alpha))
    hi = q / (q - 2.0)
    if not lo < tau < hi:
        raise ValueError(f"tau: {tau} outside the admissible window ({lo}, {hi}) "
                         "of the superquadratic-tail check")


def require_s_in_window(s_list, dim: int, alpha: float) -> None:
    """Refuse every embedding exponent outside [2, 2 dim/(dim - 2 alpha)), one message each."""
    s_crit = critical_exponent(dim, alpha)
    _require(*((2.0 <= s < s_crit,
                f"s_list: exponent {s} outside the embedding window [2, {s_crit})")
               for s in s_list))


@dataclass(frozen=True)
class CheckRecord:
    checker: str
    params: dict
    seed: int | None
    passed: bool
    witnesses: tuple
    data: dict

    def as_json_dict(self) -> dict:
        return {
            "checker": self.checker,
            "params": self.params,
            "seed": self.seed,
            "pass": self.passed,
            "witnesses": list(self.witnesses),
            "data": self.data,
        }


def check_superquadratic_tail(spec: ProblemSpec, tau: float, u_max: float = 20.0,
                              points: int = 20001) -> CheckRecord:
    """Find the threshold beyond which |f(u)|^tau / |u|^tau <= u f(u)/2 - F(u).

    tau must sit strictly inside (max(1, dim/(2 alpha)), q/(q-2)); outside
    that window the inequality has no subcritical meaning and the call is
    rejected (``require_tau_in_window``).  For the quartic model with
    tau = 1.5 the threshold is 4.
    """
    require_tau_in_window(tau, spec.grid.dim, spec.alpha, spec.nonlinearity.q)

    u = np.linspace(u_max / points, u_max, points)
    lhs = np.abs(eval_f(spec, u)) ** tau / u**tau
    rhs = eval_scrF(spec, u)
    holds = lhs <= rhs * (1.0 + 1e-12) + 1e-300
    tail_ok = np.logical_and.accumulate(holds[::-1])[::-1]
    if not tail_ok[-1]:
        return CheckRecord(
            "superquadratic_tail", {"tau": tau, "u_max": u_max}, None, False,
            ({"reason": "inequality fails at the top of the scan", "u_top": float(u[-1])},),
            {"threshold": None},
        )
    first = int(np.argmax(tail_ok))
    threshold = float(u[first])
    return CheckRecord(
        "superquadratic_tail", {"tau": tau, "u_max": u_max}, None, True,
        ({"threshold": threshold, "scan_step": float(u[1] - u[0])},),
        {"threshold": threshold},
    )


def check_sublevel_l2_bound(spec: ProblemSpec, b: float, trials: int = 100,
                            seed: int = 0) -> CheckRecord:
    """L^2 mass splits into the weighted norm over {V >= b} plus the sublevel part.

    For every field: int u^2 <= (1/(lam b)) ||u||_lam^2 + int_{V<b} u^2.
    This holds pointwise-algebraically, so any violation beyond roundoff is
    an implementation bug; the record reports the worst margin.
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    rng = np.random.Generator(np.random.Philox(seed))
    g = spec.grid
    mask = spec.V_field.values < b
    fields = [random_field(g, rng) for _ in range(trials)]

    def margin(u):
        lhs = lp_norm(u, 2) ** 2
        rhs = weighted_norm_sq(u, spec.V_field, spec.lam, spec.alpha) / (spec.lam * b)
        rhs += float(np.sum(u.values[mask] ** 2) * g.cell_volume)
        return rhs - lhs, lhs + abs(rhs)

    results = [margin(u) for u in fields]
    margins = np.array([m for m, _ in results])
    scales = np.array([s for _, s in results])
    violations = int(np.count_nonzero(margins < -1e-12 * scales))
    worst = float(np.min(margins / np.maximum(scales, 1e-300)))
    return CheckRecord(
        "sublevel_l2_bound", {"lam": spec.lam, "b": b, "trials": trials}, seed,
        violations == 0,
        ({"violations": violations, "worst_relative_margin": worst},),
        {"violations": violations, "worst_relative_margin": worst,
         "sublevel_measure": float(np.count_nonzero(mask) * g.cell_volume)},
    )


def _effective_radius(values, radius_sq, cut=1e-8):
    peak = np.max(np.abs(values))
    if peak == 0:
        return 0.0
    hit = np.abs(values) > cut * peak
    return float(np.sqrt(np.max(radius_sq[hit])))


def check_splitting(spec: ProblemSpec, u0: Field, w: Field, separations,
                    threshold: float = 1e-3) -> CheckRecord:
    """Energy additivity under separation: Phi(u0 + w(.-s)) vs Phi(u0) + Phi(w(.-s)).

    Shifts move w along the first axis and snap to whole grid cells (exact
    periodic roll).  Deviations must shrink as the parts separate and fall
    below the threshold at the largest separation; a part leaking into the
    band max_i |x_i| >= 0.45 box_length raises.
    """
    g = spec.grid
    h = g.spacing
    edge = np.max(np.abs(g.coords()), axis=0) >= 0.45 * g.box_length
    rows = []
    for s in separations:
        cells = int(round(s / h))
        s_actual = cells * h
        shifted = Field(g, np.roll(w.values, cells, axis=0))
        for f_ in (u0, shifted):
            band_peak = np.max(np.abs(f_.values[edge]))
            # 1e-4 relative edge mass perturbs the deviations well below the
            # 1e-3 verdict threshold; anything larger is wrap contamination
            if band_peak > 1e-4 * max(np.max(np.abs(f_.values)), 1e-300):
                raise ValueError(f"field mass reaches the box edge at separation {s}")
        combined = u0 + shifted
        e_c, e_0, e_s = energy(spec, combined), energy(spec, u0), energy(spec, shifted)
        rows.append({
            "separation": s_actual,
            "total": abs(e_c.total - e_0.total - e_s.total),
            "quad": abs(e_c.quad - e_0.quad - e_s.quad),
            "f_term": abs(e_c.f_term - e_0.f_term - e_s.f_term),
            "xi_term": abs(e_c.xi_term - e_0.xi_term - e_s.xi_term),
        })

    overlap = _effective_radius(u0.values, g.radius_sq) + _effective_radius(w.values, g.radius_sq)
    devs = [r["total"] for r in rows]
    seps = [r["separation"] for r in rows]
    beyond = [d for s, d in zip(seps, devs) if s > overlap]
    # a deviation below threshold / 100 has settled: its wiggle is at the
    # discretization level (about 1e-6 on a 2-D n=64 grid) and cannot carry
    # the final deviation across the threshold, so it cannot move the verdict
    settled = threshold / 100.0
    monotone = all(b <= a * 1.05 + 1e-15 or b < settled for a, b in zip(beyond, beyond[1:]))
    final_ok = devs[-1] < threshold
    return CheckRecord(
        "splitting", {"separations": [float(s) for s in seps], "threshold": threshold},
        None, bool(monotone and final_ok),
        ({"final_deviation": devs[-1], "overlap_radius": overlap, "monotone_beyond_overlap": monotone},),
        {"rows": rows},
    )


def coercivity_probe(V: Field, radii, b: float | None = None) -> CheckRecord:
    """Integrals of 1/V over unit balls marching outward along the first axis.

    Coercive potentials drive the ladder to zero; the pass rule asks for a
    non-increasing ladder (5% grid-jitter slack) ending below a tenth of
    its start.  Vanishing V inside a ball shows up as an infinite rung and
    is reported as a positivity violation.
    """
    radii = [float(r) for r in radii]
    ladder = _ball_integrals(V, radii)
    finite, monotone, decayed = _ladder_verdict(ladder)
    data = {"radii": radii, "ladder": [float(v) for v in ladder]}
    witnesses = [{"finite": finite, "monotone": monotone, "decayed": decayed}]
    if not finite:
        witnesses.append({"positivity_violation": "V vanishes inside a probe ball"})
    if b is not None:
        sub = V.values < b
        data["sublevel_intersections"] = [
            float(np.count_nonzero(sub & _unit_ball(V.grid, y)) * V.grid.cell_volume)
            for y in radii]
    return CheckRecord(
        "coercivity", {"radii": radii, "b": b}, None,
        bool(finite and monotone and decayed), tuple(witnesses), data,
    )


def sublevel_measure(V: Field, b: float) -> float:
    """Grid measure of {V < b}."""
    if not np.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    return float(np.count_nonzero(V.values < b) * V.grid.cell_volume)


def holder_estimate(u: Field, beta: float) -> float:
    """Discrete Holder quotient of exponent beta in (0, 2).

    beta <= 1 takes the sup of |u(x) - u(y)| / |x-y|^beta over non-wrapped
    pairs up to a quarter box apart; beta > 1 applies the quotient with
    exponent beta - 1 to the spectral first derivative.  Above dimension
    one only axis-aligned and main-diagonal pairs are scanned.
    """
    if not 0.0 < beta < 2.0:
        raise ValueError(f"holder exponent must lie in (0, 2), got {beta}")
    g = u.grid
    if beta > 1.0:
        # dim > 1: the first-axis derivative stands in; a gradient magnitude would mix axes
        base = spectral_derivative(u, axis=0)
        expo = beta - 1.0
    else:
        base = u
        expo = beta
    vals = base.values
    h = g.spacing
    max_lag = max(1, g.n // 4)
    best = 0.0
    # in 1-D the diagonal scan repeats the axis scan, quotient for quotient
    for lag in range(1, max_lag + 1):
        for ax in range(g.dim):
            sl_hi = [slice(None)] * g.dim
            sl_lo = [slice(None)] * g.dim
            sl_hi[ax] = slice(lag, None)
            sl_lo[ax] = slice(None, -lag)
            diffs = np.abs(vals[tuple(sl_hi)] - vals[tuple(sl_lo)])
            if diffs.size:
                best = max(best, float(np.max(diffs)) / (lag * h) ** expo)
        diag_hi = tuple(slice(lag, None) for _ in range(g.dim))
        diag_lo = tuple(slice(None, -lag) for _ in range(g.dim))
        diffs = np.abs(vals[diag_hi] - vals[diag_lo])
        if diffs.size:
            dist = lag * h * math.sqrt(g.dim)
            best = max(best, float(np.max(diffs)) / dist**expo)
    return best


@dataclass(frozen=True)
class EmbeddingEstimate:
    alpha: float
    table: dict
    trials: int
    seed: int


def estimate_embedding_constants(alpha: float, grid, s_list, trials: int = 1000,
                                 seed: int = 0) -> EmbeddingEstimate:
    """Empirical constants gamma_s = sup ||u||_{L^s} / ||u||_{bessel} over random fields.

    Exponents must satisfy 2 <= s < 2*dim/(dim - 2 alpha) (unbounded when
    dim <= 2 alpha).  gamma_2 can never exceed 1 because the symbol is at
    least 1; the tests pin that.
    """
    s_list = [float(s) for s in s_list]
    require_s_in_window(s_list, grid.dim, alpha)
    rng = np.random.Generator(np.random.Philox(seed))
    table = {s: 0.0 for s in s_list}
    # deterministic anchors: the constant field attains the s=2 supremum
    # (the symbol's minimum is 1, at frequency zero), and smooth bumps
    # cover the concentrated profiles random noise misses
    anchors = [Field(grid, np.ones(grid.shape))]
    for sigma in (0.5, 1.0, 2.0, 4.0, 8.0):
        anchors.append(Field(grid, np.exp(-grid.radius_sq / sigma**2)))

    def account(u):
        nrm = math.sqrt(bessel_norm_sq(u, alpha))
        if nrm < 1e-14:
            return
        for s in s_list:
            table[s] = max(table[s], lp_norm(u, s) / nrm)

    for u in anchors:
        account(u)
    for _ in range(trials):
        account(random_field(grid, rng))
    return EmbeddingEstimate(alpha=alpha, table=table, trials=trials, seed=seed)


def check_norm_domination(spec: ProblemSpec, trials: int = 200, seed: int = 0) -> CheckRecord:
    """The weighted norm dominates the plain bessel norm when V >= 0, constant 1.

    Reports the empirical sup of the ratio bessel/weighted over random
    fields together with its gap below the literal bound 1.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(trials):
        u = random_field(spec.grid, rng)
        wn = weighted_norm_sq(u, spec.V_field, spec.lam, spec.alpha)
        bn = bessel_norm_sq(u, spec.alpha)
        if wn > 0:
            worst = max(worst, math.sqrt(bn / wn))
    ok = worst <= 1.0 + 1e-10
    return CheckRecord(
        "norm_domination", {"lam": spec.lam, "trials": trials}, seed, bool(ok),
        ({"empirical_ratio": worst, "gap_below_one": 1.0 - worst},),
        {"empirical_ratio": worst},
    )
