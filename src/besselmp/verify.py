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
``check_bounded_descent`` reads a solve's trace instead of a field.

``CHECKS`` is the table verify mode runs: per check name, the potential
family it needs (None: any), its runner ``(spec, cfg) -> CheckRecord`` and
the rule it imposes on the config (an exponent window, separations
inside half the box), if any; ``holder_estimate`` gives no verdict and
is none of them.  ``validate_assumptions`` runs the hypotheses on V and xi
of the potential's own family (a coercive V, or a steep well as in Bartsch
& Wang, Comm. PDE 20, 1995), each declaring its family the same way;
``applies_to`` decides.  None runs that holds for every valid spec:
those on f (growth, f(u)/u -> 0 at 0, theta F = u f) hold identically for
the power law with 2 < q < 2 dim/(dim - 2 alpha) that ``ProblemSpec``
admits, and the coercive V = 1 + |x|^2 >= 1 has a positive infimum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    Grid,
    _abs_power,
    _bessel_norm_sq,
    _integral,
    _lp_norm,
    _multiply,
    _potential,
    _require,
    _sup_constant,
    spectral_derivative,
)
from .problem import (
    ProblemSpec,
    critical_exponent,
    eval_scrF,
)

__all__ = [
    "CHECKS",
    "Check",
    "CheckRecord",
    "validate_assumptions",
    "applies_to",
    "EmbeddingEstimate",
    "check_superquadratic_tail",
    "check_sublevel_l2_bound",
    "check_splitting",
    "coercivity_probe",
    "sublevel_measure",
    "holder_estimate",
    "estimate_embedding_constants",
    "check_norm_domination",
    "check_bounded_descent",
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
    """Refuse an empty list, and each exponent outside [2, 2 dim/(dim - 2 alpha)), one by one."""
    s_crit = critical_exponent(dim, alpha)
    _require((len(s_list) > 0, "s_list: the embedding check needs at least one exponent"),
             *((2.0 <= s < s_crit,
                f"s_list: exponent {s} outside the embedding window [2, {s_crit})")
               for s in s_list))


def require_separations(separations, box_length: float) -> None:
    """Refuse an empty separation list, and each one not finite or not below box_length / 2.

    The verdict reads the largest |s|, and each snaps to whole grid
    cells, which an inf or a nan has none of; the periodic roll of the
    partner wraps it back towards u0 from half the box on.
    """
    if len(separations) == 0:
        raise ValueError("separations: the splitting check needs at least one separation")
    _require(*((abs(s) < box_length / 2, f"separations: each must be finite, got {s}"
                if not math.isfinite(s) else
                f"separations: each must be below half the box length, {box_length / 2}, got {s}")
               for s in separations))


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


@dataclass(frozen=True)
class Check:
    family: str | None
    run: Callable
    require: Callable | None = None


def applies_to(family: str | None, potential) -> bool:
    """Whether a check of ``family`` (None: every family) applies to ``potential``'s family."""
    return family in (None, potential.family)


def check_superquadratic_tail(spec: ProblemSpec, tau: float) -> CheckRecord:
    """The threshold beyond which (|f(u)| / |u|)^tau <= u f(u)/2 - F(u).

    tau must sit strictly inside (max(1, dim/(2 alpha)), q/(q-2)); outside
    that window the inequality has no subcritical meaning and the call is
    rejected (``require_tau_in_window``).  For f = |u|^(q-2) u both sides
    are powers of |u|, |u|^((q-2) tau) and (q-2)/(2q) |u|^q, so the
    inequality holds exactly from u* = (2q/(q-2))^(1/e) on, e = q - (q-2) tau,
    and the window keeps e positive: u* is 4 for the quartic model at
    tau = 1.5, and 6^(1/(3 - tau)) for q = 3, 36 at tau = 2.5.  The witness
    scores both sides, from |f(u)| = |u|^(q-1) and ``eval_scrF``, at
    u = min(u*, 2^(512/q)), where |u|^q stays far inside the float range
    although u*^q may not, and compares their log ratio with the closed
    form's, e log(u / u*) = e log u - log(2q/(q-2)), 0 at u = u*.  The
    check passes when both sides are positive and finite and the two logs
    agree to 1e-12 q/(q-2): the tau-th power and the cancellation in
    (1/2 - 1/q) |u|^q each scale roundoff by up to q/(q-2).  A u* past the
    float range fails.
    """
    q = spec.q
    require_tau_in_window(tau, spec.grid.dim, spec.alpha, q)
    # positive inside the window, but roundoff can zero it within an ulp of the top
    exponent = q - (q - 2.0) * tau
    try:
        threshold = math.pow(2.0 * q / (q - 2.0), 1.0 / exponent) if exponent > 0.0 else math.inf
    except OverflowError:
        threshold = math.inf
    if threshold == math.inf:
        return CheckRecord(
            "superquadratic_tail", {"tau": tau}, False,
            ({"reason": "the threshold (2q/(q-2))^(1/(q - (q-2) tau)) is past the float range"},),
            {"threshold": None},
        )
    u = min(threshold, 2.0 ** (512.0 / q))
    # |f(u)| / u = u^(q-1) / u at u > 0
    lhs = float(_abs_power(_abs_power(np.array([u]), q - 1.0) / u, tau)[0])
    rhs = float(eval_scrF(spec, np.array([u]))[0])
    gap = math.inf
    if 0.0 < lhs < math.inf and 0.0 < rhs < math.inf:
        gap = math.log(rhs / lhs) - (exponent * math.log(u) - math.log(2.0 * q / (q - 2.0)))
    return CheckRecord(
        "superquadratic_tail", {"tau": tau}, abs(gap) <= 1e-12 * q / (q - 2.0),
        ({"threshold": threshold, "u": u, "lhs": lhs, "rhs": rhs, "log_gap": gap},),
        {"threshold": threshold},
    )


def _mean_symbol(grid, alpha: float) -> float:
    """Mean of s_k over the full lattice: ||d||_bessel^2 / ||d||_2^2 for a unit spike d."""
    return float(np.vdot(grid.lattice_weights, grid.symbol(alpha))) / grid.total_points


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

    Each deviation is its interaction term, which keeps its low bits far
    apart: the cross term int (A u0 + lam V u0) w_s of the quadratic part,
    A = (I - Laplacian)^alpha, from the call's one transform pair, and the
    integrated excesses |u0 + w_s|^k - |u0|^k - |w_s|^k of the f and xi parts.
    Shifts move w along the first axis and snap to whole grid cells (exact
    periodic roll).  Rows run in order of |s|, whatever the order listed,
    so a permuted list gives the same record.  Deviations must shrink as
    the parts separate and fall below the threshold at the largest |s|; a
    part leaking into the band max_i |x_i| >= 0.45 box_length raises, and
    so does a separation list that ``require_separations`` refuses.
    """
    g = spec.grid
    require_separations(separations, g.box_length)
    _require((u0.grid == g == w.grid, "field grid does not match problem grid"))
    edge = np.max(np.abs(g.coords()), axis=0) >= 0.45 * g.box_length

    def reaches_edge(values):
        # 1e-4 relative edge mass perturbs the deviations well below the
        # 1e-3 verdict threshold; anything larger is wrap contamination
        return np.max(np.abs(values[edge])) > 1e-4 * max(np.max(np.abs(values)), 1e-300)

    u, q, p = u0.values, spec.q, spec.p
    if reaches_edge(u):
        raise ValueError("field mass of u0 reaches the box edge")
    image = _multiply(g, u, spec.alpha) + spec.lam * spec.V_field.values * u
    u_q, u_p, w_q, w_p = (_abs_power(v, k) for v in (u, w.values) for k in (q, p))
    rows = []
    for s in sorted(separations, key=lambda s: (abs(s), s)):
        cells = int(round(s / g.spacing))
        shifted = np.roll(w.values, cells, axis=0)
        if reaches_edge(shifted):
            raise ValueError(f"field mass reaches the box edge at separation {s}")
        combined = u + shifted
        quad = _integral(g, image * shifted)
        f_term = _integral(g, (_abs_power(combined, q) - u_q - np.roll(w_q, cells, axis=0)) / q)
        xi_term = (spec.mu / p) * _integral(g, spec.xi_field.values * (
            _abs_power(combined, p) - u_p - np.roll(w_p, cells, axis=0)))
        rows.append({"separation": cells * g.spacing, "total": abs(quad - f_term - xi_term),
                     "quad": abs(quad), "f_term": abs(f_term), "xi_term": abs(xi_term)})

    overlap = _effective_radius(u, g.radius_sq) + _effective_radius(w.values, g.radius_sq)
    beyond = [r["total"] for r in rows if abs(r["separation"]) > overlap]
    # a deviation below threshold / 100 has settled: its wiggle is at the
    # discretization level (about 1e-6 on a 2-D n=64 grid) and cannot carry
    # the final deviation across the threshold, so it cannot move the verdict
    settled = threshold / 100.0
    monotone = all(b <= a * 1.05 + 1e-15 or b < settled for a, b in zip(beyond, beyond[1:]))
    final = rows[-1]["total"]
    return CheckRecord(
        "splitting", {"separations": [float(r["separation"]) for r in rows], "threshold": threshold},
        bool(monotone and final < threshold),
        ({"final_deviation": final, "overlap_radius": overlap, "monotone_beyond_overlap": monotone},),
        {"rows": rows},
    )


def _unit_ball(grid: Grid, y: float) -> np.ndarray:
    """Mask of the grid points inside the unit ball B(y e_1, 1)."""
    coords = grid.coords()
    d2 = (coords[0] - y) ** 2
    for c in coords[1:]:
        d2 = d2 + c**2
    return d2 < 1.0


def _ball_radii(grid: Grid) -> np.ndarray:
    """Eight centers from 0 to L/2 - 1.5 along the first axis, the last at least 1."""
    return np.linspace(0.0, max(0.5 * grid.box_length - 1.5, 1.0), 8)


def coercivity_probe(V: Field, radii, b: float | None = None) -> CheckRecord:
    """Integrals of 1/V over unit balls marching outward along the first axis.

    Coercive potentials drive the ladder to zero; the pass rule asks for a
    non-increasing ladder (5% grid-jitter slack) ending below a tenth of
    its start.  Vanishing V inside a ball shows up as an infinite rung and
    is reported as a positivity violation; a ball that holds no grid point
    reads 0.  An empty ``radii`` raises.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radii: the coercivity ladder needs at least one ball center")
    g = V.grid
    ladder = []
    for y in radii:
        vals = V.values[_unit_ball(g, y)]
        ladder.append(0.0 if vals.size == 0 else math.inf if np.min(vals) <= 0.0
                      else float(np.sum(1.0 / vals) * g.cell_volume))
    finite = all(math.isfinite(v) for v in ladder)
    # grid jitter moves individual rungs by a few percent, hence the slack
    monotone = finite and all(nxt <= cur * 1.05 + 1e-12 for cur, nxt in zip(ladder, ladder[1:]))
    decayed = finite and ladder[-1] <= 0.1 * ladder[0] + 1e-12
    data = {"radii": radii, "ladder": ladder}
    witnesses = [{"finite": finite, "monotone": monotone, "decayed": decayed}]
    if not finite:
        witnesses.append({"positivity_violation": "V vanishes inside a probe ball"})
    if b is not None:
        sub = V.values < b
        data["sublevel_intersections"] = [
            _integral(g, sub & _unit_ball(g, y)) for y in radii]
    return CheckRecord(
        "coercivity", {"radii": radii, "b": b},
        finite and monotone and decayed, tuple(witnesses), data,
    )


def sublevel_measure(V: Field, b: float) -> float:
    """Grid measure of {V < b}."""
    if not np.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    return _integral(V.grid, V.values < b)


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
    # beta > 1 in dim > 1: the first-axis derivative stands in; a gradient magnitude would mix axes
    base, expo = (spectral_derivative(u, axis=0), beta - 1.0) if beta > 1.0 else (u, beta)
    vals, h, best = base.values, g.spacing, 0.0
    for lag in range(1, max(1, g.n // 4) + 1):
        for ax in range(g.dim):
            sl_hi, sl_lo = [slice(None)] * g.dim, [slice(None)] * g.dim
            sl_hi[ax], sl_lo[ax] = slice(lag, None), slice(None, -lag)
            diffs = np.abs(vals[tuple(sl_hi)] - vals[tuple(sl_lo)])
            if diffs.size:
                best = max(best, float(np.max(diffs)) / (lag * h) ** expo)
        if g.dim == 1:
            continue  # in 1-D the diagonal is the axis, quotient for quotient
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
    zero), and Gaussian bumps of widths 0.5 to 8, less any that underflows
    to the zero field (a narrow one far from every sample).  ``upper`` interpolates
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
        if nrm == 0.0:
            continue
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


def check_bounded_descent(spec: ProblemSpec, trace) -> CheckRecord:
    """The Palais-Smale norm bound on the rows of a Nehari descent's trace.

    A row of phase "nehari" or "ball" records t = ||u||_lam of its iterate
    (``norm_lam``) and its energy; polish rows are not read.  Each row must
    satisfy
        (1/2 - 1/theta) t^2 <= 1 + c + t + (1/p - 1/theta) mu ||xi||_{2/(2-p)} t^p
    up to 1e-9 relative slack, with c the highest energy among the rows:
    theta F <= u f and Hoelder on the concave term bound Phi(u) - <r(u), u>
    / theta from below by the left side minus the t^p term, and every row
    sits on its ray's critical point, where <r(u), u> = 0.  The Hoelder step
    carries the p-th power of the L^2 embedding constant, which is exactly
    1: the symbol is at least 1 and V >= 0, so ||u||_2 <= ||u||_lam.  For
    1 + c > 0 the left side minus the right has one positive root, so the
    test reads t <= that root and no root is solved for.  The witness is
    the row that comes closest to failing, or fails by the most.  A trace
    with no descent rows raises ValueError.
    """
    rows = [t for t in trace if t.phase in ("nehari", "ball")]
    if not rows:
        raise ValueError("the trace has no descent rows (phase 'nehari' or 'ball') to check")
    theta, p = spec.q, spec.p
    xi_norm = _lp_norm(spec.grid, spec.xi_field.values, 2.0 / (2.0 - p))
    half = 0.5 - 1.0 / theta
    slack = (1.0 / p - 1.0 / theta) * spec.mu * xi_norm
    level = max(t.energy for t in rows)

    def margin(row):
        t = row.norm_lam
        lhs, rhs = half * t * t, 1.0 + level + t + slack * t**p
        return (lhs - rhs) / (1.0 + abs(rhs)), lhs, rhs

    row = max(rows, key=lambda r: margin(r)[0])
    worst, lhs, rhs = margin(row)
    return CheckRecord(
        "bounded_descent", {"theta": theta, "rows": len(rows)}, bool(worst <= 1e-9),
        ({"iteration": row.iteration, "phase": row.phase, "norm_lam": row.norm_lam,
          "energy": row.energy, "lhs": lhs, "rhs": rhs},),
        {"level": level, "xi_norm": xi_norm, "max_norm": max(t.norm_lam for t in rows)},
    )


# ---------------------------------------------------------------------------
# the hypotheses on V and xi


def _ball_integrals_decay(spec, _b):
    rec = coercivity_probe(spec.V_field, _ball_radii(spec.grid))
    radii, ladder = rec.data["radii"], rec.data["ladder"]
    return (rec.passed, f"int_(B(y,1)) dx/V along |y| in [0, {radii[-1]:.3g}]: "
                        f"{ladder[0]:.4g} -> {ladder[-1]:.4g}", rec.data)


def _finite_sublevel(spec, b):
    g = spec.grid
    measure = sublevel_measure(spec.V_field, b)
    if measure == 0.0:
        return True, f"sublevel set {{V < {b:.4g}}} is empty", {"b": b, "measure": 0.0}
    mask = spec.V_field.values < b
    margin = math.inf
    for ax in range(g.dim):
        hit = np.any(mask, axis=tuple(a for a in range(g.dim) if a != ax))
        lo = float(g.axis_coords[np.argmax(hit)])
        hi = float(g.axis_coords[g.n - 1 - np.argmax(hit[::-1])])
        margin = min(margin, lo + 0.5 * g.box_length, 0.5 * g.box_length - hi)
    return (margin >= 1.0,
            f"measure({{V < {b:.4g}}}) = {measure:.4g}, distance to box edge {margin:.3g}",
            {"b": b, "measure": measure, "edge_margin": float(margin)})


def _erode(mask):
    """The points of a boolean array whose 2 * ndim face neighbours all lie in it.

    scipy.ndimage.binary_erosion's default: face connectivity, no
    wrap-around, and the outside of the box counts as not in the array.
    """
    inner = mask.copy()
    for ax in range(mask.ndim):
        head = (slice(None),) * ax
        inner[head + (slice(1, None),)] &= mask[head + (slice(None, -1),)]
        inner[head + (slice(None, -1),)] &= mask[head + (slice(1, None),)]
        inner[head + (0,)] = inner[head + (-1,)] = False
    return inner


def _flat_zero_region(spec, _b):
    # the zero set of the radial well is a discrete ball centred on the
    # lattice's symmetry point, face-connected whenever it is not empty, so
    # its interior, empty on a grid too coarse to resolve the well, decides
    mask = spec.V_field.values <= 1e-12 * max(float(np.max(spec.V_field.values)), 1e-300)
    measure = _integral(spec.grid, mask)
    points, interior = int(mask.sum()), int(_erode(mask).sum())
    return (interior > 0, f"zero set has measure {measure:.4g}, {points} grid point(s) of which "
                          f"{interior} interior; boundary smoothness is not machine-checkable",
            {"measure": measure, "points": points, "interior": interior})


def _weight_integrable(spec, _b):
    g = spec.grid
    power = 2.0 / (2.0 - spec.p)
    w = _abs_power(spec.xi_field.values, power)
    integral = _integral(g, w)
    edge = g.radius_sq >= (0.45 * g.box_length) ** 2
    decayed = np.max(w[edge]) <= 1e-10 * max(np.max(w), 1e-300)
    return (np.isfinite(integral) and decayed,
            f"int xi^(2/(2-p)) = {integral:.4g}, edge max {np.max(w[edge]):.3g}",
            {"integral": integral, "power": power})


# per hypothesis, in the order they are reported: the potential family it
# belongs to (None: every family) and its runner (spec, b) -> (passed,
# detail, witness); only finite_sublevel reads the sublevel height b
_HYPOTHESES = {
    "ball_integrals_decay": Check("coercive", _ball_integrals_decay),
    "finite_sublevel": Check("well", _finite_sublevel),
    "flat_zero_region": Check("well", _flat_zero_region),
    "weight_integrable": Check(None, _weight_integrable),
}


def validate_assumptions(spec: ProblemSpec, b: float | None = None) -> CheckRecord:
    """Run the hypotheses on V and xi of the potential's family; one entry each in ``data["checks"]``.

    A hypothesis runs when ``applies_to`` its family, the rule that picks
    ``auto``'s stages, and the record passes when every entry does.  ``b``
    is the height of finite_sublevel's set {V < b}, half of max V when None.
    """
    params = {"b": b}
    if b is None:
        b = 0.5 * float(np.max(spec.V_field.values))
    checks = []
    for name, hypothesis in _HYPOTHESES.items():
        if applies_to(hypothesis.family, spec.potential):
            passed, detail, witness = hypothesis.run(spec, b)
            checks.append({"name": name, "pass": bool(passed), "detail": detail,
                           "witness": witness})
    return CheckRecord("assumptions", params, all(c["pass"] for c in checks), (),
                       {"checks": checks})


# ---------------------------------------------------------------------------
# the checks verify mode runs, in the order "auto" runs them


def _splitting(spec, cfg) -> CheckRecord:
    g = spec.grid
    bump, partner = Field(g, np.exp(-g.radius_sq)), Field(g, 0.8 * np.exp(-1.3 * g.radius_sq))
    return check_splitting(spec, bump, partner, cfg.separations)


def _embedding(spec, cfg) -> CheckRecord:
    """Passes when every entry is finite and at most its upper end, and gamma_2 <= 1."""
    est = estimate_embedding_constants(spec.alpha, spec.grid, cfg.s_list)
    ok = all(np.isfinite(v) and v <= est.upper[s] * (1.0 + 1e-12) for s, v in est.table.items())
    ok = ok and est.table.get(2.0, 1.0) <= 1.0 + 1e-9
    return CheckRecord("embedding", {"alpha": est.alpha, "s_list": list(est.table)}, bool(ok), (),
                       {"table": {str(s): v for s, v in est.table.items()},
                        "upper": {str(s): v for s, v in est.upper.items()}})


CHECKS = {
    "assumptions": Check(None, lambda spec, cfg: validate_assumptions(spec, b=cfg.b)),
    "superquadratic-tail": Check(
        None, lambda spec, cfg: check_superquadratic_tail(spec, tau=cfg.tau),
        lambda cfg: require_tau_in_window(cfg.tau, cfg.dim, cfg.alpha, cfg.q)),
    "splitting": Check(None, _splitting,
                       lambda cfg: require_separations(cfg.separations, cfg.box_length)),
    "embedding": Check(None, _embedding,
                       lambda cfg: require_s_in_window(cfg.s_list, cfg.dim, cfg.alpha)),
    "norm-domination": Check(None, lambda spec, cfg: check_norm_domination(spec)),
    "sublevel-bound": Check("well", lambda spec, cfg: check_sublevel_l2_bound(spec, b=cfg.b)),
}
