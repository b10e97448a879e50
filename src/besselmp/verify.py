"""Quantitative checks behind the existence argument.

Each checker evaluates one inequality or estimate on concrete fields and
returns a CheckRecord: name, parameters, verdict, witnesses and data.
Thresholds are artifact conventions (documented per checker), chosen so
that honest numerics pass and genuine violations fail loudly.

Nothing here is random.  Norm domination, the sublevel bound and the
embedding constants bracket their sharp grid constant in closed form from
the full-lattice symbol s_k = (1 + |xi_k|^2)^alpha: the upper end holds
for every field, and a grid field attains the lower end (a unit spike,
also scored through the norm kernels as a witness, or six smooth anchors).
Their ``trials`` and ``seed`` keywords are accepted and ignored.

``CHECKS`` is the table verify mode runs: per check name, the potential
family it needs (None: any), its runner ``(spec, cfg) -> CheckRecord`` and
the rule it imposes on the config (an exponent window, a nonempty
separation list), if any.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    _bessel_norm_sq,
    _lp_norm,
    _potential,
    _require,
    _sup_constant,
    spectral_derivative,
)
from .problem import (
    ProblemSpec,
    critical_exponent,
    energy,
    eval_f,
    eval_scrF,
    validate_assumptions,
)
from .problem import _ball_integrals, _ball_radii, _ladder_verdict, _unit_ball

__all__ = [
    "CHECKS",
    "Check",
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
    "require_separations",
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


def require_separations(separations) -> None:
    """Refuse an empty separation list: the splitting verdict reads the largest separation."""
    if len(separations) == 0:
        raise ValueError("separations: the splitting check needs at least one separation")


@dataclass(frozen=True)
class CheckRecord:
    checker: str
    params: dict
    passed: bool
    witnesses: tuple
    data: dict

    def as_json_dict(self) -> dict:
        return {
            "checker": self.checker,
            "params": self.params,
            "pass": self.passed,
            "witnesses": list(self.witnesses),
            "data": self.data,
        }


def _tail_holds(spec, tau, u):
    """Where |f(u)|^tau / |u|^tau <= u f(u)/2 - F(u), up to roundoff."""
    lhs = np.abs(eval_f(spec, u)) ** tau / u**tau
    return lhs <= eval_scrF(spec, u) * (1.0 + 1e-12) + 1e-300


def check_superquadratic_tail(spec: ProblemSpec, tau: float, u_max: float | None = None,
                              points: int = 20001) -> CheckRecord:
    """Find the threshold beyond which |f(u)|^tau / |u|^tau <= u f(u)/2 - F(u).

    tau must sit strictly inside (max(1, dim/(2 alpha)), q/(q-2)); outside
    that window the inequality has no subcritical meaning and the call is
    rejected (``require_tau_in_window``).  For the quartic model with
    tau = 1.5 the threshold is 4; for q = 3 it is 6^(1/(3 - tau)), 36 at
    tau = 2.5.  Without ``u_max`` the scan's top starts at 20 and doubles,
    at most 10 times, until the inequality holds there; a given ``u_max``
    is scanned as it is.  ``params`` records the top scanned.
    """
    require_tau_in_window(tau, spec.grid.dim, spec.alpha, spec.nonlinearity.q)
    if u_max is None:
        u_max = 20.0
        for _ in range(10):
            if _tail_holds(spec, tau, np.array([u_max]))[0]:
                break
            u_max *= 2.0

    u = np.linspace(u_max / points, u_max, points)
    holds = _tail_holds(spec, tau, u)
    tail_ok = np.logical_and.accumulate(holds[::-1])[::-1]
    if not tail_ok[-1]:
        return CheckRecord(
            "superquadratic_tail", {"tau": tau, "u_max": u_max}, False,
            ({"reason": "inequality fails at the top of the scan", "u_top": float(u[-1])},),
            {"threshold": None},
        )
    first = int(np.argmax(tail_ok))
    threshold = float(u[first])
    return CheckRecord(
        "superquadratic_tail", {"tau": tau, "u_max": u_max}, True,
        ({"threshold": threshold, "scan_step": float(u[1] - u[0])},),
        {"threshold": threshold},
    )


def _mean_symbol(grid, alpha: float) -> float:
    """Mean of s_k over the full lattice: ||d||_bessel^2 / ||d||_2^2 for a unit spike d."""
    return float(np.mean((1.0 + grid.freq_sq) ** alpha))


def _spike_norms(spec: ProblemSpec, index: int) -> tuple:
    """(||d||_bessel^2, lam int V d^2) of the unit spike d at flat grid index ``index``.

    Both go through the norm kernels; ||d||_2^2 is the cell volume.
    """
    g = spec.grid
    d = np.zeros(g.shape)
    d.flat[index] = 1.0
    return _bessel_norm_sq(g, d, spec.alpha), _potential(g, d, spec.V_field.values, spec.lam)


def check_sublevel_l2_bound(spec: ProblemSpec, b: float, trials=None, seed=None) -> CheckRecord:
    """Mass in {V >= b} is controlled by the lam-norm: int_{V>=b} u^2 <= ||u||_lam^2 / (lam b).

    The sharp constant C* = sup int_{V>=b} u^2 / ||u||_lam^2 lies in
    [lower, upper].  The symbol is at least 1 and lam V >= lam b on the set,
    so upper = 1/(1 + lam b); the unit spike where V is least on the set
    attains lower = 1/(mean s_k + lam V there), 0 if the set is empty.  The
    check passes when the spike's quotient equals lower to 1e-9 relative
    and lower <= upper <= 1/(lam b).
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    g = spec.grid
    V = spec.V_field.values
    constant = 1.0 / (spec.lam * b)
    upper = 1.0 / (1.0 + spec.lam * b)
    lower, witnesses, spike_ok = 0.0, (), True
    above = V >= b
    if np.any(above):
        index = int(np.argmin(np.where(above, V, np.inf)))
        lower = 1.0 / (_mean_symbol(g, spec.alpha) + spec.lam * float(V.flat[index]))
        spike = g.cell_volume / sum(_spike_norms(spec, index))
        spike_ok = abs(spike - lower) <= 1e-9 * lower
        witnesses = ({"spike_quotient": spike, "V_at_spike": float(V.flat[index])},)
    return CheckRecord(
        "sublevel_l2_bound", {"lam": spec.lam, "b": b},
        bool(spike_ok and lower <= upper <= constant), witnesses,
        {"constant": constant, "sharp_lower": lower, "sharp_upper": upper,
         "sublevel_measure": sublevel_measure(spec.V_field, b)},
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
    band max_i |x_i| >= 0.45 box_length raises, and so does an empty
    separation list.
    """
    require_separations(separations)
    g = spec.grid
    h = g.spacing
    edge = np.max(np.abs(g.coords()), axis=0) >= 0.45 * g.box_length

    def reaches_edge(f_):
        # 1e-4 relative edge mass perturbs the deviations well below the
        # 1e-3 verdict threshold; anything larger is wrap contamination
        return np.max(np.abs(f_.values[edge])) > 1e-4 * max(np.max(np.abs(f_.values)), 1e-300)

    if reaches_edge(u0):
        raise ValueError("field mass of u0 reaches the box edge")
    e_0 = energy(spec, u0)
    rows = []
    for s in separations:
        cells = int(round(s / h))
        s_actual = cells * h
        shifted = Field(g, np.roll(w.values, cells, axis=0))
        if reaches_edge(shifted):
            raise ValueError(f"field mass reaches the box edge at separation {s}")
        combined = u0 + shifted
        e_c, e_s = energy(spec, combined), energy(spec, shifted)
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
        bool(monotone and final_ok),
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
        "coercivity", {"radii": radii, "b": b},
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
    upper: dict


def estimate_embedding_constants(alpha: float, grid, s_list, trials=None,
                                 seed=None) -> EmbeddingEstimate:
    """A bracket on gamma_s = sup ||u||_{L^s} / ||u||_bessel over fields on the grid.

    ``table`` is the largest quotient of six anchors: the constant field,
    which attains gamma_2 = 1 (the symbol's minimum is 1, at frequency
    zero), and Gaussian bumps of widths 0.5 to 8.  ``upper`` interpolates
    between L^2 and L^inf: ||u||_s^s <= sup|u|^(s-2) ||u||_2^2, with
    sup|u| <= C_inf ||u||_bessel (``grid._sup_constant``, no shift) and
    ||u||_2 <= ||u||_bessel, gives gamma_s <= C_inf^(1 - 2/s).  Exponents
    must satisfy 2 <= s < 2*dim/(dim - 2 alpha) (unbounded when
    dim <= 2 alpha).
    """
    s_list = [float(s) for s in s_list]
    require_s_in_window(s_list, grid.dim, alpha)
    table = {s: 0.0 for s in s_list}
    anchors = [np.ones(grid.shape)] + [np.exp(-grid.radius_sq / sigma**2)
                                       for sigma in (0.5, 1.0, 2.0, 4.0, 8.0)]
    for u in anchors:
        nrm = math.sqrt(_bessel_norm_sq(grid, u, alpha))
        for s in s_list:
            table[s] = max(table[s], _lp_norm(grid, u, s) / nrm)
    c_inf = _sup_constant(grid, alpha)
    return EmbeddingEstimate(alpha=alpha, table=table,
                             upper={s: c_inf ** (1.0 - 2.0 / s) for s in s_list})


def check_norm_domination(spec: ProblemSpec, trials=None, seed=None) -> CheckRecord:
    """The lam-norm dominates the bessel norm when V >= 0: a bracket on their sup ratio.

    With m = lam min V, ||u||_lam^2 >= ||u||_bessel^2 + m ||u||_2^2 and
    ||u||_bessel^2 <= max s_k ||u||_2^2, so sup ||u||_bessel / ||u||_lam is
    at most upper = (1 + m / max s_k)^(-1/2); the unit spike at argmin V
    attains lower = (1 + m / mean s_k)^(-1/2).  Both are 1 when V vanishes
    on the grid.  The check passes when the spike's ratio equals lower to
    1e-9 relative and lower <= upper <= 1.
    """
    g = spec.grid
    V = spec.V_field.values
    shift = spec.lam * float(np.min(V))
    lower = (1.0 + shift / _mean_symbol(g, spec.alpha)) ** -0.5
    upper = (1.0 + shift / float(np.max(g.symbol(spec.alpha)))) ** -0.5
    bessel, potential = _spike_norms(spec, int(np.argmin(V)))
    spike = math.sqrt(bessel / (bessel + potential))
    ok = abs(spike - lower) <= 1e-9 * lower and lower <= upper <= 1.0
    return CheckRecord(
        "norm_domination", {"lam": spec.lam}, bool(ok),
        ({"spike_ratio": spike, "gap_below_one": 1.0 - upper},),
        {"ratio_lower": lower, "ratio_upper": upper},
    )


# ---------------------------------------------------------------------------
# the checks verify mode runs, in the order "auto" runs them


def _assumptions(spec, cfg) -> CheckRecord:
    report = validate_assumptions(spec, b=cfg.b)
    checks = [{"name": c.name, "pass": c.passed, "required": c.required, "detail": c.detail}
              for c in report.checks]
    return CheckRecord("assumptions", {"b": cfg.b}, report.passed, (), {"checks": checks})


def _splitting(spec, cfg) -> CheckRecord:
    g = spec.grid
    bump, partner = Field(g, np.exp(-g.radius_sq)), Field(g, 0.8 * np.exp(-1.3 * g.radius_sq))
    return check_splitting(spec, bump, partner, cfg.separations)


def _holder(spec, cfg) -> CheckRecord:
    beta = cfg.beta if cfg.beta is not None else 0.9 * 2.0 * spec.alpha
    value = holder_estimate(Field(spec.grid, np.exp(-spec.grid.radius_sq)), beta)
    return CheckRecord("holder_estimate", {"beta": beta}, True, (), {"value": value})


def _embedding(spec, cfg) -> CheckRecord:
    """Passes when every entry is finite and at most its upper end, and gamma_2 <= 1."""
    est = estimate_embedding_constants(spec.alpha, spec.grid, cfg.s_list)
    ok = all(np.isfinite(v) and v <= est.upper[s] * (1.0 + 1e-12) for s, v in est.table.items())
    ok = ok and est.table.get(2.0, 1.0) <= 1.0 + 1e-9
    return CheckRecord("embedding", {"alpha": est.alpha, "s_list": list(est.table)}, bool(ok), (),
                       {"table": {str(s): v for s, v in est.table.items()},
                        "upper": {str(s): v for s, v in est.upper.items()}})


@dataclass(frozen=True)
class Check:
    family: str | None
    run: Callable
    require: Callable | None = None


CHECKS = {
    "assumptions": Check(None, _assumptions),
    "superquadratic-tail": Check(
        None, lambda spec, cfg: check_superquadratic_tail(spec, tau=cfg.tau),
        lambda cfg: require_tau_in_window(cfg.tau, cfg.dim, cfg.alpha, cfg.q)),
    "splitting": Check(None, _splitting, lambda cfg: require_separations(cfg.separations)),
    "holder": Check(None, _holder),
    "embedding": Check(None, _embedding,
                       lambda cfg: require_s_in_window(cfg.s_list, cfg.dim, cfg.alpha)),
    "norm-domination": Check(None, lambda spec, cfg: check_norm_domination(spec)),
    "sublevel-bound": Check("well", lambda spec, cfg: check_sublevel_l2_bound(spec, b=cfg.b)),
    "sublevel-measure": Check("well", lambda spec, cfg: CheckRecord(
        "sublevel_measure", {"b": cfg.b}, True, (),
        {"measure": sublevel_measure(spec.V_field, cfg.b)})),
    "coercivity": Check("coercive", lambda spec, cfg: coercivity_probe(
        spec.V_field, _ball_radii(spec.grid), b=cfg.b)),
}
