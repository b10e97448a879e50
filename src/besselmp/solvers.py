"""Two-solution machinery: geometry probe, Nehari descent, ball descent.

The geometry probe samples spheres ||u||_lam = rho and reports the radius
whose sampled minimum eta is highest.  Its mu budget needs no search:
Phi is linear in mu on each sampled field, so the largest mu that keeps
that radius's minimum positive is one division per field.

The saddle search is the local-minimax descent of Choi & McKenna (1993)
in the form of Li & Zhou (2001).  For a direction w let t+(w) be the top
of the fibering map t -> Phi(t w), its larger critical point; the search
descends J(w) = Phi(t+(w) w) from the far endpoint e, so its iterate
always sits on such a top (the Nehari manifold <r(u), u> = 0), and J never
rises over accepted steps.  The descent direction is the gradient in the
lam-norm, K^{-1} r with K = (I - Laplacian)^alpha + lam V, solved by
preconditioned CG; once its dual norm <r, K^{-1} r>^(1/2) is small next to
||u||_lam a damped Newton iteration on the strong-form residual pushes the
iterate to solver tolerance.

The negative-energy solution comes from projected preconditioned descent
inside the ball ||u||_lam <= rho.  Gradient and projected steps lower Phi;
the Newton steps that finish the descent are accepted while Phi rises by
at most 1e-12, so on a flat floor a run of them can creep upward by
roundoff-sized amounts.

One Armijo step serves the Nehari descent and the ball descent, and one
generator of damped Newton trials serves the polish and the ball; every
backtracking search walks the steps s, s/2, s/4, ... and only its count differs.

The solvers take and return Fields but work on plain arrays inside,
through the row kernels of ``grid`` and ``problem``: a trial point that
overflows reads +inf energy, or a residual norm that fails every
acceptance test, instead of being refused by the Field constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from scipy import optimize
from scipy.sparse.linalg import LinearOperator, lgmres

from .grid import (
    DENSE_MAX_POINTS,
    Field,
    _band_limit,
    _lp_norm,
    _multiply,
    _require,
    _row_sum,
    _weighted_norm_sq_rows,
    lp_norm,
)
from .problem import (
    EnergyBreakdown,
    ProblemSpec,
    _energy_rows,
    _require_finite_energy,
    _residual_rows,
    energy,
)

__all__ = [
    "SolveOptions",
    "GeometryProbe",
    "GeometryError",
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


# Line-search and stopping constants of the Nehari descent, the Newton
# polish and the ball descent.
STEP_INIT = 1.0
STEP_MAX = 10.0
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
BACKTRACK_TRIES = 40  # gradient steps tried per search; from 1 they stay above 1e-12
NEWTON_TRIES = 34  # damped Newton steps 1, 1/2, ... above 1e-10
RIESZ_RTOL = 1e-2  # the gradient solve stops at this relative preconditioned residual
HANDOVER_RATIO = 0.1  # the descent hands over to Newton at <r, K^-1 r>^(1/2) <= this ||u||_lam
NEWTON_MAX = 80
INTERIOR_MARGIN = 0.02  # a ball minimizer must sit this fraction of rho inside
# the probed ridge height is a sampled upper bound whose bias peaks when
# a rung lands on the saddle sphere (the sampled minimum then approaches
# the saddle level from above); level comparisons against it use this
# relative slack, while residual certificates stay at tol
LEVEL_SLACK = 0.01


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 5000
    # not an option: the benchmark's trace mode (perfbench/run.py) divides
    # its Armijo span count by path_nodes - 2, so the old path's node count
    # stays readable until the benchmark counts descent entries instead
    path_nodes: ClassVar[int] = 41

    def __post_init__(self):
        _require((self.tol > 0, f"tol: must be positive, got {self.tol}"),
                 (self.max_iter >= 1, f"max_iter: must be at least 1, got {self.max_iter}"))


@dataclass(frozen=True)
class GeometryProbe:
    rho: float
    eta: float
    mu0_estimate: float
    e: Field
    sample_count: int
    seed: int
    rho_table: tuple


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    energy: float
    residual_norm: float
    step_size: float
    phase: str
    # trial points scored by the step taken from this entry: energies in
    # the Nehari descent and the ball, residual norms in the polish
    trials: int


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


# Array helpers: u, r and search directions are ndarrays whose trailing axes
# are the grid's; only _residual and _norm_lam also meet stacks of fields.


def _energy(spec, u) -> float:
    """Phi(u); +inf when u is out of range for the nonlinearity."""
    return float(_energy_rows(spec, u).total)


def _residual(spec, u):
    """Residual at the iterate u (or at each row of a stack); it must be finite."""
    r = _residual_rows(spec, u)
    if not np.all(np.isfinite(r)):
        raise ValueError("field values must be finite")
    return r


def _residual_norm(spec, u) -> float:
    """L^2 norm of the residual at u; a trial that overflows reads inf or nan."""
    return _lp_norm(spec.grid, _residual_rows(spec, u), 2)


def _norm_lam(spec, u):
    return np.sqrt(_weighted_norm_sq_rows(spec.grid, u, spec.V_field.values, spec.lam, spec.alpha))


def _bump(spec):
    return np.exp(-spec.grid.radius_sq)


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


def _stacks(count, cap):
    """Slices that cut ``count`` rows into stacks of at most ``cap``."""
    return (slice(i, i + cap) for i in range(0, count, cap))


def _sphere_samples(spec, rho, count, rng):
    """``count`` random fields scaled onto ||u||_lam = rho, with their energy pieces.

    Drawn and scored in stacks of ``grid.batch_rows``; a draw whose norm
    vanishes is replaced by the next one, so the samples do not depend on
    the stack size.
    """
    rows, terms = [], []
    while count > 0:
        raw = _sphere_draws(spec, rng, min(count, spec.grid.batch_rows))
        nrm = _norm_lam(spec, raw)
        ok = nrm >= 1e-14
        u = raw[ok] * _per_row(rho / nrm[ok], spec.grid)
        t = _energy_rows(spec, u)
        _require_finite_energy(t.total)
        rows.append(u)
        terms.append(t)
        count -= len(u)
    return np.concatenate(rows), _concat_terms(terms)


def _concat_terms(parts):
    return EnergyBreakdown(*map(np.concatenate, zip(*parts)))


def _sphere_polish(spec, u, rho, e_u):
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
    for _ in range(25):
        if active.size == 0:
            break
        ua, ea, ra = u[active], e_u[active], rho[active]
        r = _residual(spec, ua)
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
            trial = ua[idx] - tang[idx] * _per_row(s[idx], g)
            nrm = np.full(idx.size, np.nan)
            finite = np.all(np.isfinite(trial), axis=tuple(range(1, trial.ndim)))
            nrm[finite] = _norm_lam(spec, trial[finite])
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


# Overflow in a trial point is an expected outcome of a line search (the
# trial reads +inf energy and is rejected), so the three solver entry
# points silence overflow and invalid-value warnings for their whole run.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
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
        if _energy(spec, cand) < 0.0:
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
    polished = _concat_terms([
        _energy_rows(spec, _sphere_polish(spec, start_u[rows], start_rho[rows], start_e[rows]))
        for rows in _stacks(len(start_u), spec.grid.batch_rows)])

    table = []
    offset = 0
    for i, (rho, terms) in enumerate(zip(rho_grid, scored)):
        k = min(4, len(terms.total))
        scored[i] = terms = _concat_terms(
            [terms, EnergyBreakdown(*(a[offset:offset + k] for a in polished))])
        offset += k
        table.append((rho, float(np.min(terms.total))))

    best = int(np.argmax([m for _, m in table]))
    rho_star, eta = table[best]
    if eta <= 0.0:
        lines = ", ".join(f"rho={r:.4g}: min={m:.4g}" for r, m in table)
        raise GeometryError(f"no sampled sphere minimum is positive ({lines})")

    return GeometryProbe(
        rho=rho_star, eta=eta, mu0_estimate=_mu_budget(spec, scored[best]),
        e=Field(spec.grid, e),
        sample_count=samples_per_rho * len(rho_grid), seed=seed,
        rho_table=tuple(table),
    )


def _mu_budget(spec, rows):
    """The mu at which the lowest of these sphere rows reaches energy 0.

    On a row Phi = base - (mu/p) int xi |u|^p with base = total + xi_term,
    so each row with a positive xi-integral crosses zero at
    p base / xi_integral; inf when no row has one.
    """
    weighted = rows.xi_integral > 0.0
    if not weighted.any():
        return math.inf
    base = rows.total + rows.xi_term
    return float(spec.p * np.min(base[weighted] / rows.xi_integral[weighted]))


# ---------------------------------------------------------------------------
# mountain pass


def _steps(s, tries):
    """The backtracking steps s, s * BACKTRACK_FACTOR, ..., ``tries`` of them."""
    for _ in range(tries):
        yield s
        s *= BACKTRACK_FACTOR


def _first(candidates, accept):
    """(the first candidate that accept passes, or None; the number of candidates tested)."""
    tested = 0
    for c in candidates:
        tested += 1
        if accept(c):
            return c, tested
    return None, tested


def _energy_stack(spec, u):
    """Phi of every row of u, scored in stacks of ``grid.batch_rows``."""
    return np.concatenate([_energy_rows(spec, u[rows]).total
                           for rows in _stacks(len(u), spec.grid.batch_rows)])


def _descent(spec, r):
    """Direction d = (I - Laplacian)^{-alpha} r and its slope <r, d>."""
    d = _multiply(spec.grid, r, -spec.alpha)
    return d, float(_row_sum(spec.grid, r * d)) * spec.grid.cell_volume


def _riesz_gradient(spec, r):
    """d ~ K^{-1} r, the gradient in the lam-norm, and its slope <r, d>.

    K = (I - Laplacian)^alpha + lam V is solved by conjugate gradients
    preconditioned with (I - Laplacian)^{-alpha}, from d = 0 until the
    residual's preconditioned norm falls below RIESZ_RTOL of its start.
    CG from 0 keeps <r, d> = ||d||_lam^2 > 0 for r != 0, so -d is a
    descent direction and <r, d>^(1/2) estimates the dual norm of r.
    The preconditioner inverts the operator's first part, so that part of
    each search direction p = z + beta p' follows from the residual as
    res + beta (its value on p'): one transform pair per iteration.
    """
    g = spec.grid
    weight = spec.lam * spec.V_field.values
    d = np.zeros_like(r)
    res, z = r, _multiply(g, r, -spec.alpha)
    rz = rz0 = float(np.sum(res * z))
    p, ap = z, r  # ap = (I - Laplacian)^alpha p
    for _ in range(g.total_points):
        if not rz > RIESZ_RTOL**2 * rz0:
            break
        kp = ap + weight * p
        a = rz / float(np.sum(p * kp))
        d = d + a * p
        res = res - a * kp
        z = _multiply(g, res, -spec.alpha)
        rz, prev = float(np.sum(res * z)), rz
        p, ap = z + (rz / prev) * p, res + (rz / prev) * ap
    return d, float(np.sum(r * d)) * g.cell_volume


def _fibering_top(spec, w):
    """(t, Phi(t w)) at the top of the fibering map t -> Phi(t w): its larger critical point.

    Phi(t w) = t^2 quad - int F(x, t w) - t^p xi_term with the pieces of
    one ``_energy_rows(w)`` call; only int F and int f(x, t w) w depend on
    t, and both are pointwise, so no t costs a transform.  From t = 1 the
    walk doubles t while dPhi/dt > 0 or halves it while dPhi/dt <= 0, until
    the sign changes, and brentq refines that bracket.  (nan, inf) when
    Phi(w) is not finite or the walk finds no top within
    BACKTRACK_TRIES doublings or halvings.
    """
    pieces = _energy_rows(spec, w)
    if not np.isfinite(pieces.total):
        return math.nan, math.inf
    coords, vol = spec.grid.coords(), spec.grid.cell_volume
    quad, xi_term, p = float(pieces.quad), float(pieces.xi_term), spec.p

    def slope(t):
        pull = float(np.sum(spec.nonlinearity.f(coords, t * w) * w)) * vol
        return 2.0 * t * quad - pull - p * t ** (p - 1.0) * xi_term

    rising = slope(1.0) > 0.0
    t = 1.0
    for _ in range(BACKTRACK_TRIES):
        nxt = t * 2.0 if rising else t * BACKTRACK_FACTOR
        if (slope(nxt) <= 0.0) if rising else (slope(nxt) > 0.0):
            break
        t = nxt
    else:
        return math.nan, math.inf
    top = optimize.brentq(slope, min(t, nxt), max(t, nxt), xtol=1e-300,
                          rtol=4 * np.finfo(float).eps)  # brentq's finest
    push = float(np.sum(spec.nonlinearity.F(coords, top * w))) * vol
    return top, top**2 * quad - push - top**p * xi_term


def _armijo_step(spec, u, e_u, d, slope, step, place):
    """One monotone descent step from u along -d, backtracking from ``step``.

    Walks the steps step, step/2, ..., BACKTRACK_TRIES of them.  ``place``
    maps each trial u - s d to (point, energy, projected); the first point
    whose energy is at most e_u - ARMIJO_SLOPE s slope is taken, or, when
    ``place`` projected it onto the ball's sphere, the first below e_u by
    more than 1e-14.  A slope that is not positive and finite tries
    nothing: its decrease test is unpassable.

    Returns (u, energy, step_used, projected, trials): step_used is 0.0
    where no step was accepted, trials the energies evaluated.
    """
    if not 0.0 < slope < math.inf:
        return u, e_u, 0.0, False, 0
    found, tried = _first(
        ((s, *place(u - s * d)) for s in _steps(step, BACKTRACK_TRIES)),
        lambda c: c[2] <= (e_u - 1e-14 if c[3] else e_u - ARMIJO_SLOPE * c[0] * slope))
    if found is None:
        return u, e_u, 0.0, False, tried
    s, point, e_t, projected = found
    return point, e_t, s, projected, tried


def _hessian_diag(spec, u):
    """Pointwise part of the second derivative of Phi at u."""
    coords = spec.grid.coords()
    vals = spec.lam * spec.V_field.values - spec.nonlinearity.f_prime(coords, u)
    if spec.mu > 0:
        # |u|^{p-2} blows up at zeros of u; the concave term's curvature is
        # meaningless there, so it is clamped off below a floor
        au = np.abs(u)
        floor = 1e-12 * max(1.0, float(np.max(au)))
        curv = np.where(au > floor, au ** (spec.p - 2.0), 0.0)
        vals = vals - spec.mu * (spec.p - 1.0) * spec.xi_field.values * curv
    return vals


def _newton_direction(spec, u, r):
    """Solve (D^2 Phi)(u) delta = -r; dense up to DENSE_MAX_POINTS unknowns, Krylov above."""
    g = spec.grid
    diag = _hessian_diag(spec, u)
    rhs = -r.ravel()
    npts = g.total_points
    if npts <= DENSE_MAX_POINTS:
        J = g.multiplier_matrix(spec.alpha) + np.diag(diag.ravel())
        try:
            delta = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            return None
    else:
        def matvec(v):
            v = v.reshape(g.shape)
            return (_multiply(g, v, spec.alpha) + diag * v).ravel()

        def precond(v):
            return _multiply(g, v.reshape(g.shape), -spec.alpha).ravel()

        op = LinearOperator((npts, npts), matvec=matvec)
        M = LinearOperator((npts, npts), matvec=precond)
        delta, info = lgmres(op, rhs, M=M, rtol=1e-10, atol=0.0, maxiter=400)
        if info != 0:
            return None
    if not np.all(np.isfinite(delta)):
        return None
    return delta.reshape(g.shape)


def _newton_trials(u, delta):
    """The damped Newton trials (s, u + s delta), s = 1, 1/2, ... above 1e-10; none without delta."""
    return () if delta is None else ((s, u + s * delta) for s in _steps(1.0, NEWTON_TRIES))


def _polish(spec, u, opts, trace, it0):
    """Damped Newton on the residual; returns (u, residual_norm, iterations_used)."""
    it = it0
    for _ in range(NEWTON_MAX):
        r = _residual(spec, u)
        rn = _lp_norm(spec.grid, r, 2)
        entry = TraceEntry(it, _energy(spec, u), rn, 0.0, "polish", 0)
        it += 1
        if rn <= opts.tol:
            trace.append(entry)
            return u, rn, it
        found, tried = _first(_newton_trials(u, _newton_direction(spec, u, r)),
                              lambda st: _residual_norm(spec, st[1]) <= (1.0 - 1e-4 * st[0]) * rn)
        if found is None:
            # fall back to preconditioned descent on the residual norm
            d = _multiply(spec.grid, r, -spec.alpha)
            found, more = _first(((s, u - s * d) for s in _steps(1.0, BACKTRACK_TRIES)),
                                 lambda st: _residual_norm(spec, st[1]) < rn)
            tried += more
        trace.append(replace(entry, trials=tried))
        if found is None:
            return u, max(rn, 1e-30), it
        u = found[1]
    return u, _lp_norm(spec.grid, _residual(spec, u), 2), it


@_quiet_overflow
def mountain_pass_solve(spec: ProblemSpec, e: Field, opts: SolveOptions | None = None,
                        probe: GeometryProbe | None = None) -> SolveReport:
    """Saddle-point search by descent on the Nehari manifold, started from e.

    Needs Phi(e) < 0.  One deterministic attempt: the iterate starts at the
    top of the ray through e and descends J(w) = Phi(t+(w) w) along the
    lam-norm gradient, each trial scaled onto the top of its own ray before
    it is scored, so J never rises over accepted steps.  Once the
    gradient's dual norm is at most HANDOVER_RATIO ||u||_lam, or a line
    search refuses every step, Newton polishes the iterate.  A ray through
    e with no top raises ValueError.  When the geometry probe is supplied
    its eta gates the result: a converged iterate below eta by more than
    the level slack is reported with ok=False.
    """
    opts = opts or SolveOptions()
    if energy(spec, e).total >= 0.0:
        raise ValueError("endpoint e must have negative energy")
    g = spec.grid

    def on_top(w):
        t, level = _fibering_top(spec, w)
        return t * w, level, False

    u, level, _ = on_top(e.values)
    if not math.isfinite(level):
        raise ValueError("the fibering map along e has no local maximum")
    step = STEP_INIT
    trace: list[TraceEntry] = []
    it = 0
    while it < opts.max_iter:
        r = _residual(spec, u)
        d, slope = _riesz_gradient(spec, r)
        entry = TraceEntry(it, level, _lp_norm(g, r, 2), step, "nehari", 0)
        it += 1
        if slope <= (HANDOVER_RATIO * float(_norm_lam(spec, u))) ** 2:
            trace.append(entry)
            break
        u, level, used, _, tried = _armijo_step(spec, u, level, d, slope, step, on_top)
        trace.append(replace(entry, trials=tried))
        if used == 0.0:
            break
        step = min(used * 2.0, STEP_MAX)
    u, rn, it = _polish(spec, u, opts, trace, it)

    solution = Field(g, u)
    e_u = energy(spec, solution).total
    converged = rn <= opts.tol
    ok = converged
    message = "converged" if converged else "residual tolerance not reached"
    if converged and probe is not None and _below_ridge(probe, e_u):
        ok = False
        message = f"converged at energy {e_u:.6g} below the probed ridge height {probe.eta:.6g}"
    return SolveReport(
        solution=solution, energy=e_u, residual_norm=rn, iterations=it,
        classification="mountain_pass", converged=converged, ok=ok,
        message=message, trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# ball minimization


@_quiet_overflow
def ball_min_solve(spec: ProblemSpec, rho: float, opts: SolveOptions | None = None) -> SolveReport:
    """Minimize Phi over the ball ||u||_lam <= rho by projected descent.

    The starting point is the best of a scan of scaled bumps with negative
    energy; failure to find one (the mu = 0 situation) is reported, not
    raised.  Gradient and projected steps decrease Phi, a Newton step may
    raise it by at most 1e-12, and the final iterate must sit strictly
    inside the ball.
    """
    opts = opts or SolveOptions()
    if not (rho > 0 and np.isfinite(rho)):
        raise ValueError(f"ball radius must be positive, got {rho}")

    g = spec.grid
    phi0 = _bump(spec)
    t_max = rho / _norm_lam(spec, phi0)
    # the negative dip near zero sits at amplitudes of order mu^{1/(2-p)},
    # which can be minuscule; the scan floor has to reach well below it
    ts = t_max * np.geomspace(1e-8, 1.0, 80)
    scan = _energy_stack(spec, _per_row(ts, g) * phi0)
    best = int(np.argmin(scan))  # the first of equal minima
    t_best, e_best = ts[best], float(scan[best])
    if e_best >= 0.0:
        zero = np.zeros(g.shape)
        return SolveReport(
            solution=Field(g, zero), energy=0.0,
            residual_norm=_lp_norm(g, _residual(spec, zero), 2),
            iterations=0, classification="local_min", converged=False, ok=False,
            message="no negative energy found inside the ball (is mu positive?)",
            trace=(),
        )

    def into_ball(trial):
        """The trial, scaled back onto the sphere when it left the ball, and its energy."""
        t_norm = float(_norm_lam(spec, trial))
        if t_norm > rho:
            trial = trial * (rho / t_norm)
        return trial, _energy(spec, trial), t_norm > rho

    u = t_best * phi0
    e_u = e_best
    step = STEP_INIT
    trace: list[TraceEntry] = []
    pinned_run = 0
    converged = False
    it = 0

    while it < opts.max_iter:
        r = _residual(spec, u)
        rn = _lp_norm(g, r, 2)
        entry = TraceEntry(it, e_u, rn, step, "ball", 0)
        it += 1
        if rn <= opts.tol:
            trace.append(entry)
            converged = True
            break

        # Newton acceleration once the iterate is interior and nearly critical
        newton = 0
        if rn <= 1e-3 * (1.0 + abs(e_u)) and _norm_lam(spec, u) <= 0.95 * rho:
            trials = _newton_trials(u, _newton_direction(spec, u, r))
            # most trials fail the energy test, so the norm comes second
            found, newton = _first(
                ((t, _energy(spec, t)) for _, t in trials),
                lambda te: te[1] <= e_u + 1e-12 and _norm_lam(spec, te[0]) <= rho)
            if found is not None:
                trace.append(replace(entry, trials=newton))
                u, e_u = found
                continue

        d, slope = _descent(spec, r)
        u, e_u, used, projected, armijo = _armijo_step(spec, u, e_u, d, slope, step, into_ball)
        trace.append(replace(entry, trials=newton + armijo))
        if used == 0.0:
            break
        step = min(used * 2.0, STEP_MAX)
        pinned_run = pinned_run + 1 if projected else 0
        if pinned_run > 50:
            break

    margin = rho - float(_norm_lam(spec, u))
    ok = converged and e_u < 0.0 and margin >= INTERIOR_MARGIN * rho
    if not converged:
        message = "pinned to the sphere" if pinned_run > 50 else "residual tolerance not reached"
    elif e_u >= 0.0:
        message = "converged but the energy is not negative"
    elif margin < INTERIOR_MARGIN * rho:
        message = f"converged on the boundary shell (margin {margin:.3g})"
    else:
        message = "converged"
    return SolveReport(
        solution=Field(g, u), energy=e_u, residual_norm=_lp_norm(g, _residual(spec, u), 2),
        iterations=it, classification="local_min", converged=converged, ok=ok,
        message=message, trace=tuple(trace),
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


def _below_ridge(probe, level) -> bool:
    """level lies below the probed ridge height by more than the level slack."""
    return level < probe.eta - LEVEL_SLACK * (1.0 + abs(probe.eta))


def assess_levels(probe, mp, ball, distinct_tol: float):
    """Final verdict over the two converged solves.

    Returns (success, distinctness, failure message or None).  The ridge
    height enters the ordering with the level slack because it is a
    sampled upper bound, not an exact level.
    """
    distinctness = lp_norm(mp.solution - ball.solution, 2)
    if not ball.energy < 0.0 < probe.eta or _below_ridge(probe, mp.energy):
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
        "mountain_pass", lambda: mountain_pass_solve(spec, probe.e, opts, probe=probe),
        lambda r: r.ok)
    if mp is None:
        return
    ball = yield from _stage("local_min", lambda: ball_min_solve(spec, probe.rho, opts),
                             lambda r: r.ok)
    if ball is None:
        return
    yield from _stage("levels", lambda: _level_verdict(probe, mp, ball, distinct_tol),
                      lambda v: v["failure"] is None)


def _level_verdict(probe, mp, ball, distinct_tol):
    _, distinctness, failure = assess_levels(probe, mp, ball, distinct_tol)
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


def two_solution_sweep(spec: ProblemSpec, pairs=DEFAULT_WELL_SWEEP, opts=None, seed=0,
                       distinct_tol=1e-3):
    """Try (lam, mu) pairs on spec until the experiment succeeds.

    Every pair's spec shares spec's Grid, so the cached symbols and matrix too.
    Returns (pair, result, attempts) where attempts records every pair
    tried with its failure reason; raises if the whole sweep fails.
    """
    attempts = []
    for lam, mu in pairs:
        result = two_solution_experiment(replace(spec, lam=lam, mu=mu), opts=opts,
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
    xi_norm: float
    norm_bound: float
    max_norm: float
    all_ok: bool


def ps_diagnostics(spec: ProblemSpec, iterates) -> PSDiagnostics:
    """Check the norm-boundedness chain on a sequence of iterates.

    Per iterate the test is
        (1/2 - 1/theta) ||u||_lam^2 <= 1 + c + ||u||_lam
                                       + (1/p - 1/theta) mu ||xi||_{2/(2-p)} ||u||_lam^p
    with c the highest energy seen along the sequence.  The Holder step
    carries the p-th power of the L^2 embedding constant, which is exactly
    1: the symbol (1 + |xi|^2)^alpha is at least 1 and V >= 0, so
    ||u||_2 <= ||u||_lam.  A sequence built to break the premise (energies
    or slopes out of scale) gets flagged.
    """
    theta = spec.nonlinearity.theta
    xi_norm = lp_norm(spec.xi_field, 2.0 / (2.0 - spec.p))
    half = 0.5 - 1.0 / theta
    slack = (1.0 / spec.p - 1.0 / theta) * spec.mu * xi_norm

    totals = [energy(spec, u).total for u in iterates]
    c_level = max(totals) if totals else 0.0
    entries = []
    all_ok = True
    max_norm = 0.0
    for u, e_u in zip(iterates, totals):
        t = float(_norm_lam(spec, u.values))
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
        entries=tuple(entries), level=c_level, xi_norm=xi_norm, norm_bound=norm_bound, max_norm=max_norm,
        all_ok=bool(all_ok),
    )
