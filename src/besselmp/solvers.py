"""Two-solution machinery: geometry probe, path deformation, ball descent.

The saddle search runs in two phases.  A deformation phase flows every
interior node of a discrete path from 0 to e downhill along the
preconditioned gradient, which brackets the crossing of the energy ridge;
the maximal node then seeds a damped Newton iteration on the strong-form
residual that pushes the candidate to solver tolerance.  The trace of
max-node energies over the deformation phase is non-increasing by
construction (every node only ever moves downhill).

The negative-energy solution comes from projected preconditioned descent
inside the ball ||u||_lam <= rho, monotone in Phi at every accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize
from scipy.sparse.linalg import LinearOperator, lgmres

from .grid import (
    DENSE_MAX_POINTS,
    Field,
    _band_limit,
    _multiply,
    _weighted_norm_sq_rows,
    apply_multiplier,
    lp_norm,
    random_field,
    weighted_norm_sq,
)
from .problem import (
    ProblemSpec,
    _energy_rows,
    _EnergyRows,
    _require_finite_energy,
    _residual_rows,
    energy,
    residual,
)

__all__ = [
    "SolveOptions",
    "GeometryProbe",
    "GeometryError",
    "PathCollapseError",
    "PathState",
    "TraceEntry",
    "SolveReport",
    "TwoSolutionResult",
    "PSDiagnostics",
    "probe_geometry",
    "mountain_pass_solve",
    "ball_min_solve",
    "assess_levels",
    "two_solution_stages",
    "two_solution_experiment",
    "two_solution_sweep",
    "ps_diagnostics",
    "DEFAULT_WELL_SWEEP",
]


class GeometryError(RuntimeError):
    """The sampled landscape does not show the required ridge/valley shape."""


class PathCollapseError(RuntimeError):
    """Every interior path node shrank to zero; e is degenerate for this problem."""


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 5000
    path_nodes: int = 41
    step_init: float = 1.0
    step_max: float = 10.0
    armijo_slope: float = 1e-4
    backtrack_factor: float = 0.5
    stall_window: int = 25
    stall_tol: float = 1e-9
    polish_threshold: float = 5e-2
    newton_max: int = 80
    collapse_fraction: float = 0.1
    interior_margin: float = 0.02
    # the probed ridge height is a sampled upper bound whose bias peaks when
    # a rung lands on the saddle sphere (the sampled minimum then approaches
    # the saddle level from above); level comparisons against it use this
    # relative slack, while residual certificates stay at tol
    level_slack: float = 0.01

    def __post_init__(self):
        if self.path_nodes < 3:
            raise ValueError("path needs at least 3 nodes")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must lie in (0, 1)")


@dataclass(frozen=True)
class GeometryProbe:
    rho: float
    eta: float
    mu0_estimate: float
    e: Field
    sample_count: int
    seed: int
    rho_table: tuple


@dataclass
class PathState:
    """Ordered path nodes; first and last stay pinned for the whole solve."""

    nodes: list


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    energy: float
    residual_norm: float
    step_size: float
    max_node_index: int
    phase: str


@dataclass(frozen=True)
class SolveReport:
    solution: Field
    energy: float
    residual_norm: float
    iterations: int
    classification: str
    converged: bool
    ok: bool
    message: str
    trace: tuple
    path: PathState | None = None


def _inner(a: Field, b: Field) -> float:
    return float(np.sum(a.values * b.values) * a.grid.cell_volume)


def _norm_lam(spec: ProblemSpec, u: Field) -> float:
    return math.sqrt(weighted_norm_sq(u, spec.V_field, spec.lam, spec.alpha))


def _bump(spec: ProblemSpec, sigma: float = 1.0) -> Field:
    return Field(spec.grid, np.exp(-spec.grid.radius_sq / sigma**2))


def _energy_or_inf(spec, u):
    """Energy total, with out-of-float-range fields mapped to +inf.

    Line searches probe trial points that can overflow the nonlinearity;
    those trials must read as infinitely bad, not crash the solve.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return energy(spec, u).total
    except ValueError:
        return math.inf


def _guarded_energy(spec, u, s, direction):
    """(trial, energy) for u + s*direction; (None, inf) when out of range."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trial = u + s * direction
    except ValueError:
        return None, math.inf
    return trial, _energy_or_inf(spec, trial)


def _guarded_residual_norm(spec, u, s, direction):
    """(trial, ||residual||) for u + s*direction; (None, inf) when out of range."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trial = u + s * direction
            return trial, lp_norm(residual(spec, trial), 2)
    except ValueError:
        return None, math.inf


# ---------------------------------------------------------------------------
# geometry probe


def _sphere_draws(spec, rng, count):
    """``count`` raw sphere candidates as a stack, drawn in RNG order.

    Two families with equal odds: band-limited noise under a random
    Gaussian envelope (broad oscillatory profiles), and width-randomized
    Gaussian bumps with multiplicative jitter (smooth concentrated
    profiles).  The bump family tracks the low-energy corners of the
    sphere; without it the sampled minimum overshoots the true infimum
    so badly that the reported ridge height can land above the saddle.
    Each draw takes a family, a width and a noise field from ``rng``.
    """
    g = spec.grid
    hi = g.box_length / 4.0
    bump = np.empty(count, dtype=bool)
    sigma = np.empty(count)
    noise = np.empty((count,) + g.shape)
    for i in range(count):
        bump[i] = rng.uniform() >= 0.5
        lo = 0.3 if bump[i] else 0.6
        sigma[i] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        noise[i] = rng.standard_normal(g.shape)
    rows = _band_limit(g, noise, 0.25, sigma)
    if bump.any():
        jitter = rows[bump]
        peak = np.max(np.abs(jitter), axis=tuple(range(1, jitter.ndim)), keepdims=True)
        peak[peak == 0.0] = 1.0
        width = _per_row(sigma[bump], g)
        rows[bump] = np.exp(-g.radius_sq / width**2) * (1.0 + 0.05 * jitter / peak)
    return rows


def _per_row(values, grid):
    """Per-row scalars shaped to broadcast against a stack of fields."""
    return values.reshape(values.shape + (1,) * grid.dim)


def _norm_lam_rows(spec, u):
    return np.sqrt(_weighted_norm_sq_rows(spec.grid, u, spec.V_field.values, spec.lam, spec.alpha))


def _sphere_samples(spec, rho, count, rng):
    """``count`` random fields scaled onto ||u||_lam = rho, with their energy pieces.

    Drawn and scored in stacks of ``grid.batch_rows``; a draw whose norm
    vanishes is replaced by the next one, so the samples do not depend on
    the stack size.
    """
    rows, terms = [], []
    while count > 0:
        raw = _sphere_draws(spec, rng, min(count, spec.grid.batch_rows))
        nrm = _norm_lam_rows(spec, raw)
        ok = nrm >= 1e-14
        u = raw[ok] * _per_row(rho / nrm[ok], spec.grid)
        t = _energy_rows(spec, u)
        _require_finite_energy(t.total)
        rows.append(u)
        terms.append(t)
        count -= len(u)
    return np.concatenate(rows), _concat_terms(terms)


def _concat_terms(parts):
    return _EnergyRows(*map(np.concatenate, zip(*parts)))


def _sphere_polish(spec, u, rho, e_u, steps=25):
    """Descend Phi along the spheres ||u_i||_lam = rho_i from each row of u; returns the endpoints.

    Plain sampling overestimates the sphere minimum, and near the saddle
    radius the bias is large enough to push the recorded ridge height above
    the saddle level itself.  A few projected-gradient steps per promising
    sample close most of that gap while keeping every evaluation a genuine
    feasible point, so the recorded minimum stays an upper bound.

    The rows move in lockstep but independently: each keeps its own step,
    backtracks on its own and stops when a backtracking run finds no
    decrease.  A trial row that is not finite, or whose norm is not, halves
    that row's step; a residual that is not finite raises ValueError.
    """
    g = spec.grid
    u, e_u = u.copy(), e_u.copy()
    step = np.full(len(u), 0.5)
    active = np.arange(len(u))
    for _ in range(steps):
        if active.size == 0:
            break
        ua, ea, ra = u[active], e_u[active], rho[active]
        r = _residual_rows(spec, ua)
        if not np.all(np.isfinite(r)):
            raise ValueError("field values must be finite")
        grad = _multiply(g, r, -spec.alpha)
        va = _weighted_norm_sq_rows(g, grad + ua, spec.V_field.values, spec.lam, spec.alpha)
        vb = _weighted_norm_sq_rows(g, grad - ua, spec.V_field.values, spec.lam, spec.alpha)
        tang = grad - ua * _per_row(0.25 * (va - vb) / ra**2, g)
        s = step[active]
        trying = np.ones(active.size, dtype=bool)
        for _ in range(30):
            idx = np.flatnonzero(trying)
            if idx.size == 0:
                break
            with np.errstate(over="ignore", invalid="ignore"):
                trial = ua[idx] - tang[idx] * _per_row(s[idx], g)
                nrm = np.full(idx.size, np.nan)
                finite = np.all(np.isfinite(trial), axis=tuple(range(1, trial.ndim)))
                nrm[finite] = _norm_lam_rows(spec, trial[finite])
                ok = np.isfinite(nrm) & (nrm > 1e-14)
                idx = idx[ok]
                trial = trial[ok] * _per_row(ra[idx] / nrm[ok], g)
                e_t = _energy_rows(spec, trial).total
            won = e_t < ea[idx] - 1e-14
            ua[idx[won]], ea[idx[won]] = trial[won], e_t[won]
            trying[idx[won]] = False
            s[trying] *= 0.5
        moved = ~trying
        u[active], e_u[active] = ua, ea
        step[active[moved]] = np.minimum(s[moved] * 2.0, 4.0)
        active = active[moved]
    return u


def probe_geometry(spec: ProblemSpec, rho_grid=None, samples_per_rho: int = 64,
                   seed: int = 0) -> GeometryProbe:
    """Estimate the ridge radius rho, its height eta, a mu budget, and a far endpoint e.

    Each radius's samples are drawn and scored as stacks; the four lowest
    per radius are then polished along their spheres, all radii together,
    in stacks of ``grid.batch_rows``.  Raises GeometryError with the
    sampled table when no radius keeps the sphere minimum positive (mu too
    large, or no ridge at all).
    """
    rng = np.random.Generator(np.random.Philox(seed))

    # far endpoint: scale a bump until the energy goes negative
    phi0 = _bump(spec)
    t = 1.0
    e = None
    for _ in range(60):
        cand = t * phi0
        if _energy_or_inf(spec, cand) < 0.0:
            e = cand
            break
        t *= 1.5
    if e is None:
        raise GeometryError("could not drive the energy negative by scaling a bump")
    e_norm = _norm_lam(spec, e)

    if rho_grid is None:
        rho_grid = e_norm * np.geomspace(0.02, 0.6, 8)
    rho_grid = [float(r) for r in rho_grid if 0.0 < r < e_norm]
    if not rho_grid:
        raise GeometryError("no admissible rho below ||e||")

    # one radius's samples at a time; its four lowest are polished after the last radius
    scored, starts = [], []
    for rho in rho_grid:
        samples, terms = _sphere_samples(spec, rho, samples_per_rho, rng)
        lowest = np.argsort(terms.total)[:4]
        scored.append(terms)
        starts.append((samples[lowest], np.full(lowest.size, rho), terms.total[lowest]))
    start_u, start_rho, start_e = (np.concatenate(a) for a in zip(*starts))
    cap = spec.grid.batch_rows
    polished = _concat_terms([
        _energy_rows(spec, _sphere_polish(spec, start_u[i:i + cap], start_rho[i:i + cap],
                                          start_e[i:i + cap]))
        for i in range(0, len(start_u), cap)])

    table = []
    best = None
    offset = 0
    for rho, terms in zip(rho_grid, scored):
        k = min(4, len(terms.total))
        terms = _concat_terms([terms, _EnergyRows(*(a[offset:offset + k] for a in polished))])
        offset += k
        table.append((rho, float(np.min(terms.total))))
        if best is None or table[-1][1] > best[1]:
            # keep the mu-independent pieces for the mu budget bisection
            base = terms.total + terms.xi_term
            xi_ints = terms.xi_term * spec.p / spec.mu if spec.mu > 0 else terms.xi_integral
            best = (rho, table[-1][1], base, xi_ints)

    rho_star, eta, base, xi_ints = best
    if eta <= 0.0:
        lines = ", ".join(f"rho={r:.4g}: min={m:.4g}" for r, m in table)
        raise GeometryError(f"no sampled sphere minimum is positive ({lines})")

    def eta_at(mu):
        return float(np.min(base - (mu / spec.p) * xi_ints))

    mu0 = _bisect_mu(eta_at, start=max(spec.mu, 1e-3))

    return GeometryProbe(
        rho=rho_star, eta=eta, mu0_estimate=mu0, e=e,
        sample_count=samples_per_rho * len(rho_grid), seed=seed,
        rho_table=tuple(table),
    )


def _bisect_mu(eta_at, start, doublings=60, bisections=80):
    if eta_at(0.0) <= 0.0:
        return 0.0
    hi = start
    for _ in range(doublings):
        if eta_at(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        return hi  # positive even at an absurd mu; report the bound reached
    lo = 0.0
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if eta_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# mountain pass


def _armijo_step(spec, u, e_u, step, opts):
    """One monotone descent step from u; returns (new_u, new_energy, step_used)."""
    r = residual(spec, u)
    g = apply_multiplier(r, -spec.alpha)
    slope = _inner(r, g)
    if slope <= 0.0:
        return u, e_u, 0.0
    s = step
    for _ in range(40):
        trial, e_t = _guarded_energy(spec, u, -s, g)
        if trial is not None and e_t <= e_u - opts.armijo_slope * s * slope:
            return trial, e_t, s
        s *= opts.backtrack_factor
    return u, e_u, 0.0


def _hessian_diag(spec, u):
    """Pointwise part of the second derivative of Phi at u."""
    coords = spec.grid.coords()
    vals = spec.lam * spec.V_field.values - spec.nonlinearity.f_prime(coords, u.values)
    if spec.mu > 0:
        # |u|^{p-2} blows up at zeros of u; the concave term's curvature is
        # meaningless there, so it is clamped off below a floor
        au = np.abs(u.values)
        floor = 1e-12 * max(1.0, float(np.max(au)))
        curv = np.where(au > floor, au ** (spec.p - 2.0), 0.0)
        vals = vals - spec.mu * (spec.p - 1.0) * spec.xi_field.values * curv
    return vals


def _newton_direction(spec, u, r):
    """Solve (D^2 Phi)(u) delta = -r; dense up to DENSE_MAX_POINTS unknowns, Krylov above."""
    g = spec.grid
    diag = _hessian_diag(spec, u)
    rhs = -r.values.ravel()
    npts = g.total_points
    if npts <= DENSE_MAX_POINTS:
        J = g.multiplier_matrix(spec.alpha) + np.diag(diag.ravel())
        try:
            delta = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            return None
    else:
        def matvec(v):
            f = Field(g, v.reshape(g.shape))
            return (apply_multiplier(f, spec.alpha).values + diag * f.values).ravel()

        def precond(v):
            return apply_multiplier(Field(g, v.reshape(g.shape)), -spec.alpha).values.ravel()

        op = LinearOperator((npts, npts), matvec=matvec)
        M = LinearOperator((npts, npts), matvec=precond)
        delta, info = lgmres(op, rhs, M=M, rtol=1e-10, atol=0.0, maxiter=400)
        if info != 0:
            return None
    if not np.all(np.isfinite(delta)):
        return None
    return Field(g, delta.reshape(g.shape))


def _polish(spec, u, opts, trace, it0, node_index, phase="polish"):
    """Damped Newton on the residual; returns (u, residual_norm, iterations_used)."""
    rn_floor = 1e-30
    it = it0
    for _ in range(opts.newton_max):
        r = residual(spec, u)
        rn = lp_norm(r, 2)
        trace.append(TraceEntry(it, energy(spec, u).total, rn, 0.0, node_index, phase))
        it += 1
        if rn <= opts.tol:
            return u, rn, it
        delta = _newton_direction(spec, u, r)
        moved = False
        if delta is not None:
            s = 1.0
            while s > 1e-10:
                trial, rn_t = _guarded_residual_norm(spec, u, s, delta)
                if trial is not None and rn_t <= (1.0 - 1e-4 * s) * rn:
                    u, moved = trial, True
                    break
                s *= 0.5
        if not moved:
            # fall back to preconditioned descent on the residual norm
            g = apply_multiplier(r, -spec.alpha)
            s = 1.0
            while s > 1e-12:
                trial, rn_t = _guarded_residual_norm(spec, u, -s, g)
                if trial is not None and rn_t < rn:
                    u, moved = trial, True
                    break
                s *= 0.5
        if not moved:
            return u, max(rn, rn_floor), it
    r = residual(spec, u)
    return u, lp_norm(r, 2), it


def mountain_pass_solve(spec: ProblemSpec, e: Field, opts: SolveOptions | None = None,
                        probe: GeometryProbe | None = None, seed: int = 0) -> SolveReport:
    """Saddle-point search along deforming paths from 0 to e.

    Needs Phi(e) < 0.  When the geometry probe is supplied its eta and rho
    gate the result: a converged iterate below eta by more than the level
    slack, or one that has
    collapsed toward zero, is reported with ok=False (one automatic restart
    with a perturbed path is attempted for the collapse case).
    """
    opts = opts or SolveOptions()
    if energy(spec, e).total >= 0.0:
        raise ValueError("endpoint e must have negative energy")
    rng = np.random.Generator(np.random.Philox(seed))

    for attempt in (0, 1):
        report = _mp_once(spec, e, opts, probe, rng, perturb=attempt > 0)
        collapsed = report.converged and probe is not None and \
            _norm_lam(spec, report.solution) < opts.collapse_fraction * probe.rho
        if not collapsed:
            return report
    return replace(report, ok=False, message="collapsed to zero after restart")


def _mp_once(spec, e, opts, probe, rng, perturb):
    m = opts.path_nodes
    zero = Field(spec.grid, np.zeros(spec.grid.shape))
    nodes = [(i / (m - 1)) * e for i in range(m)]
    nodes[0] = zero
    if perturb:
        scale = 0.01 * float(np.max(np.abs(e.values)))
        for i in range(1, m - 1):
            noise = random_field(spec.grid, rng, envelope_sigma=2.0)
            nodes[i] = nodes[i] + scale * noise
    energies = [energy(spec, u).total for u in nodes]
    steps = np.full(m, opts.step_init)

    trace: list[TraceEntry] = []
    it = 0
    recent: list[float] = []
    ridge_high = max(energies)
    best = None  # (residual_norm, node field, node index) near the ridge

    while it < opts.max_iter:
        for i in range(1, m - 1):
            nodes[i], energies[i], used = _armijo_step(spec, nodes[i], energies[i], steps[i], opts)
            steps[i] = min(max(used, 1e-6) * 2.0, opts.step_max) if used > 0 else max(steps[i] * 0.5, 1e-6)

        e_max = max(energies)
        k = next(i for i, v in enumerate(energies) if v >= e_max - 1e-12)
        rn = lp_norm(residual(spec, nodes[k]), 2)
        trace.append(TraceEntry(it, energies[k], rn, float(steps[k]), k, "path"))
        it += 1
        ridge_high = max(ridge_high, e_max)

        # remember the most nearly critical max node seen while the path
        # still brackets the ridge; nodes are evolved independently, so the
        # polygon eventually tears through the saddle and later max nodes
        # slide into a basin and stop being useful seeds
        if e_max >= 0.5 * ridge_high and (best is None or rn < best[0]):
            best = (rn, nodes[k], k)

        interior_peak = max(float(np.max(np.abs(u.values))) for u in nodes[1:-1])
        if interior_peak < 1e-12 * max(1.0, float(np.max(np.abs(e.values)))):
            raise PathCollapseError("every interior node collapsed to zero")

        if rn <= opts.tol:
            best = (rn, nodes[k], k)
            break
        if e_max < 0.5 * ridge_high:
            break  # torn through the ridge; refine from the best bracketing seed
        if it >= 20 and rn <= opts.polish_threshold * (1.0 + abs(energies[k])):
            best = (rn, nodes[k], k)
            break
        recent.append(energies[k])
        if len(recent) > opts.stall_window:
            recent.pop(0)
            if recent[0] - recent[-1] <= opts.stall_tol * (1.0 + abs(recent[-1])):
                best = (rn, nodes[k], k)
                break

    if best is None:
        k = max(range(m), key=lambda i: energies[i])
        best = (lp_norm(residual(spec, nodes[k]), 2), nodes[k], k)
    rn, u, candidate_idx = best
    if rn > opts.tol:
        u, rn, it = _polish(spec, u, opts, trace, it, candidate_idx)

    e_u = energy(spec, u).total
    converged = rn <= opts.tol
    ok = converged
    message = "converged" if converged else "residual tolerance not reached"
    if converged and probe is not None and \
            e_u < probe.eta - opts.level_slack * (1.0 + abs(probe.eta)):
        ok = False
        message = f"converged at energy {e_u:.6g} below the probed ridge height {probe.eta:.6g}"
    return SolveReport(
        solution=u, energy=e_u, residual_norm=rn, iterations=it,
        classification="mountain_pass", converged=converged, ok=ok,
        message=message, trace=tuple(trace), path=PathState(nodes=list(nodes)),
    )


# ---------------------------------------------------------------------------
# ball minimization


def ball_min_solve(spec: ProblemSpec, rho: float, opts: SolveOptions | None = None) -> SolveReport:
    """Minimize Phi over the ball ||u||_lam <= rho by projected descent.

    The starting point is the best of a scan of scaled bumps with negative
    energy; failure to find one (the mu = 0 situation) is reported, not
    raised.  Every accepted step decreases Phi, and the final iterate must
    sit strictly inside the ball.
    """
    opts = opts or SolveOptions()
    if not (rho > 0 and np.isfinite(rho)):
        raise ValueError(f"ball radius must be positive, got {rho}")

    phi0 = _bump(spec)
    t_max = rho / _norm_lam(spec, phi0)
    # the negative dip near zero sits at amplitudes of order mu^{1/(2-p)},
    # which can be minuscule; the scan floor has to reach well below it
    ts = t_max * np.geomspace(1e-8, 1.0, 80)
    scan = [(t, _energy_or_inf(spec, t * phi0)) for t in ts]
    t_best, e_best = min(scan, key=lambda te: te[1])
    if e_best >= 0.0:
        zero = Field(spec.grid, np.zeros(spec.grid.shape))
        return SolveReport(
            solution=zero, energy=0.0, residual_norm=lp_norm(residual(spec, zero), 2),
            iterations=0, classification="local_min", converged=False, ok=False,
            message="no negative energy found inside the ball (is mu positive?)",
            trace=(), path=None,
        )

    u = t_best * phi0
    e_u = e_best
    step = opts.step_init
    trace: list[TraceEntry] = []
    pinned_run = 0
    converged = False
    it = 0

    while it < opts.max_iter:
        r = residual(spec, u)
        rn = lp_norm(r, 2)
        trace.append(TraceEntry(it, e_u, rn, step, -1, "ball"))
        it += 1
        if rn <= opts.tol:
            converged = True
            break

        # Newton acceleration once the iterate is interior and nearly critical
        nrm = _norm_lam(spec, u)
        if rn <= 1e-3 * (1.0 + abs(e_u)) and nrm <= 0.95 * rho:
            delta = _newton_direction(spec, u, r)
            if delta is not None:
                s, accepted = 1.0, False
                while s > 1e-10:
                    trial, e_t = _guarded_energy(spec, u, s, delta)
                    if trial is not None and _norm_lam(spec, trial) <= rho \
                            and e_t <= e_u + 1e-12:
                        u, e_u, accepted = trial, e_t, True
                        break
                    s *= 0.5
                if accepted:
                    continue

        g = apply_multiplier(r, -spec.alpha)
        slope = _inner(r, g)
        s = step
        accepted = False
        projected = False
        for _ in range(40):
            trial, e_t = _guarded_energy(spec, u, -s, g)
            if trial is not None:
                t_norm = _norm_lam(spec, trial)
                projected = t_norm > rho
                if projected:
                    trial = trial * (rho / t_norm)
                    e_t = _energy_or_inf(spec, trial)
                target = e_u - opts.armijo_slope * s * slope if not projected else e_u - 1e-14
                if e_t <= target:
                    u, e_u, accepted = trial, e_t, True
                    step = min(s * 2.0, opts.step_max)
                    break
            s *= opts.backtrack_factor
        if not accepted:
            break
        pinned_run = pinned_run + 1 if projected else 0
        if pinned_run > 50:
            break

    margin = rho - _norm_lam(spec, u)
    ok = converged and e_u < 0.0 and margin >= opts.interior_margin * rho
    if not converged:
        message = "pinned to the sphere" if pinned_run > 50 else "residual tolerance not reached"
    elif e_u >= 0.0:
        message = "converged but the energy is not negative"
    elif margin < opts.interior_margin * rho:
        message = f"converged on the boundary shell (margin {margin:.3g})"
    else:
        message = "converged"
    return SolveReport(
        solution=u, energy=e_u, residual_norm=lp_norm(residual(spec, u), 2),
        iterations=it, classification="local_min", converged=converged, ok=ok,
        message=message, trace=tuple(trace), path=None,
    )


# ---------------------------------------------------------------------------
# the two-solution experiment


@dataclass(frozen=True)
class TwoSolutionResult:
    probe: GeometryProbe | None
    mountain_pass: SolveReport | None
    local_min: SolveReport | None
    distinctness: float
    levels: dict
    success: bool
    failed_stage: str | None


def assess_levels(probe, mp, ball, opts: SolveOptions, distinct_tol: float):
    """Final verdict over the two converged solves.

    Returns (success, distinctness, failure message or None).  The ridge
    height enters the ordering with the level slack because it is a
    sampled upper bound, not an exact level.
    """
    distinctness = lp_norm(mp.solution - ball.solution, 2)
    slack = opts.level_slack * (1.0 + abs(probe.eta))
    if not ball.energy < 0.0 < probe.eta <= mp.energy + slack:
        return False, distinctness, "levels: ordering m < 0 < eta <= c failed"
    if distinctness <= distinct_tol:
        return False, distinctness, "solutions are not distinct"
    return True, distinctness, None


def _attempt(fn):
    """fn() as (result, None), or (None, "Type: message") when it raised.

    GeometryError, ValueError and RuntimeError fail the stage that raised
    them; any other exception is a bug and propagates.
    """
    try:
        return fn(), None
    except (GeometryError, ValueError, RuntimeError) as err:
        return None, f"{type(err).__name__}: {err}"


def _stage(name, fn, passed):
    """Yield one stage as (name, ok, result); return the result if it passed."""
    result, error = _attempt(fn)
    ok = error is None and bool(passed(result))
    yield name, ok, result if error is None else error
    return result if ok else None


def two_solution_stages(spec: ProblemSpec, opts: SolveOptions | None = None, seed: int = 0,
                        distinct_tol: float = 1e-3, rho_grid=None, samples_per_rho: int = 64):
    """Run the two-solution argument one stage at a time.

    Yields (stage, ok, result) for "probe_geometry" (a GeometryProbe),
    "mountain_pass" and "local_min" (SolveReports) and "levels" (a dict
    with the "levels" table, the "distinctness" and the "failure" message),
    in that order, and stops after the first stage that fails.  A stage
    that raised yields its error as the text "Type: message" instead.
    """
    opts = opts or SolveOptions()
    probe = yield from _stage(
        "probe_geometry",
        lambda: probe_geometry(spec, rho_grid=rho_grid, samples_per_rho=samples_per_rho,
                               seed=seed),
        lambda p: p.eta > 0)
    if probe is None:
        return
    mp = yield from _stage(
        "mountain_pass", lambda: mountain_pass_solve(spec, probe.e, opts, probe=probe, seed=seed),
        lambda r: r.ok)
    if mp is None:
        return
    ball = yield from _stage("local_min", lambda: ball_min_solve(spec, probe.rho, opts),
                             lambda r: r.ok)
    if ball is None:
        return
    yield from _stage("levels", lambda: _level_verdict(probe, mp, ball, opts, distinct_tol),
                      lambda v: v["failure"] is None)


def _level_verdict(probe, mp, ball, opts, distinct_tol):
    _, distinctness, failure = assess_levels(probe, mp, ball, opts, distinct_tol)
    return {"levels": _levels(probe, mp, ball), "distinctness": distinctness,
            "failure": failure}


def _levels(probe, mp, ball):
    return {
        "local_min_energy": ball.energy if ball else None,
        "zero": 0.0,
        "ridge_height": probe.eta if probe else None,
        "mountain_pass_energy": mp.energy if mp else None,
    }


# failed_stage names the probe by its short name; other stages by their own
_FAILURE_PREFIX = {"probe_geometry": "probe"}


def two_solution_experiment(spec: ProblemSpec, opts: SolveOptions | None = None,
                            seed: int = 0, distinct_tol: float = 1e-3) -> TwoSolutionResult:
    """Probe the geometry, then find both the saddle and the ball minimizer.

    Success means: both solves converged and passed their own checks, the
    level ordering m < 0 < eta <= c holds, and the two solutions are at
    least distinct_tol apart in L^2.
    """
    results, failure = {}, None
    for name, ok, result in two_solution_stages(spec, opts, seed, distinct_tol):
        if isinstance(result, str):  # the stage raised
            failure = f"{_FAILURE_PREFIX.get(name, name)}: {result}"
        else:
            results[name] = result
            if not ok and isinstance(result, SolveReport):
                failure = f"{name}: {result.message}"
    probe = results.get("probe_geometry")
    mp = results.get("mountain_pass")
    ball = results.get("local_min")
    verdict = results.get("levels")
    if verdict is not None:
        return TwoSolutionResult(probe, mp, ball, verdict["distinctness"], verdict["levels"],
                                 verdict["failure"] is None, verdict["failure"])
    levels = _levels(probe, mp, ball) if probe is not None else {}
    return TwoSolutionResult(probe, mp, ball, 0.0, levels, False, failure)


DEFAULT_WELL_SWEEP = (
    (100.0, 0.05),
    (100.0, 0.02),
    (200.0, 0.05),
    (50.0, 0.05),
    (100.0, 0.1),
    (150.0, 0.02),
)


def two_solution_sweep(spec_factory, pairs=DEFAULT_WELL_SWEEP, opts=None, seed=0,
                       distinct_tol=1e-3):
    """Try (lam, mu) pairs until the experiment succeeds.

    Returns (pair, result, attempts) where attempts records every pair
    tried with its failure reason; raises if the whole sweep fails.
    """
    attempts = []
    for lam, mu in pairs:
        result = two_solution_experiment(spec_factory(lam=lam, mu=mu), opts=opts,
                                         seed=seed, distinct_tol=distinct_tol)
        attempts.append(((lam, mu), result.failed_stage))
        if result.success:
            return (lam, mu), result, attempts
    raise GeometryError(f"no (lam, mu) pair in the sweep produced two solutions: {attempts}")


# ---------------------------------------------------------------------------
# bounded Palais-Smale diagnostics


@dataclass(frozen=True)
class PSDiagnostics:
    entries: tuple
    level: float
    embedding_constant: float
    xi_norm: float
    norm_bound: float
    max_norm: float
    all_ok: bool


def ps_diagnostics(spec: ProblemSpec, iterates, embedding_trials: int = 200,
                   seed: int = 0) -> PSDiagnostics:
    """Check the norm-boundedness chain on a sequence of iterates.

    Per iterate the test is
        (1/2 - 1/theta) ||u||_lam^2 <= 1 + c + ||u||_lam
                                       + C (1/p - 1/theta) mu ||xi||_{2/(2-p)} ||u||_lam^p
    with c the highest energy seen along the sequence and C the p-th power
    of the empirically estimated L^2 embedding constant.  A sequence built
    to break the premise (energies or slopes out of scale) gets flagged.
    """
    from .verify import estimate_embedding_constants

    theta = spec.nonlinearity.theta
    gamma = estimate_embedding_constants(spec.alpha, spec.grid, (2.0,),
                                         trials=embedding_trials, seed=seed)
    C = gamma.table[2.0] ** spec.p
    xi_norm = lp_norm(spec.xi_field, 2.0 / (2.0 - spec.p))
    half = 0.5 - 1.0 / theta
    slack = (1.0 / spec.p - 1.0 / theta) * spec.mu * xi_norm * C

    totals = [energy(spec, u).total for u in iterates]
    c_level = max(totals) if totals else 0.0
    entries = []
    all_ok = True
    max_norm = 0.0
    for u, e_u in zip(iterates, totals):
        t = _norm_lam(spec, u)
        max_norm = max(max_norm, t)
        lhs = half * t * t
        rhs = 1.0 + c_level + t + slack * t**spec.p
        ok = lhs <= rhs + 1e-9 * (1.0 + abs(rhs))
        all_ok &= ok
        entries.append({"norm": t, "energy": e_u, "lhs": lhs, "rhs": rhs, "ok": ok})

    def h(t):
        return half * t * t - t - slack * t**spec.p - (1.0 + c_level)

    norm_bound = math.nan
    if 1.0 + c_level >= 0.0:
        hi = 1.0
        for _ in range(200):
            if h(hi) > 0.0:
                break
            hi *= 2.0
        norm_bound = float(optimize.brentq(h, 0.0, hi)) if h(hi) > 0 else math.inf

    return PSDiagnostics(
        entries=tuple(entries), level=c_level, embedding_constant=C,
        xi_norm=xi_norm, norm_bound=norm_bound, max_norm=max_norm,
        all_ok=bool(all_ok),
    )
