"""Two-solution machinery: the certified ridge and two descents on the Nehari manifold.

The geometry probe bounds Phi from below on every sphere ||u||_lam = rho
in closed form, from the grid's exact L-infinity and L^2 embedding
constants (one symbol sum), and reports the radius where that bound is
highest, its height eta > 0 and the mu budget, the mu at which the
bound's maximum reaches 0.

Both solutions come from one descent on the Nehari manifold
<r(u), u> = 0, the local-minimax method of Choi & McKenna (1993) in the
form of Li & Zhou (2001).  For a direction w the fibering map
t -> Phi(t w) = t^2 A - t^q B - mu t^p C of this concave-convex energy
(Brown & Zhang, 2003) has a bottom t-(w), a local minimum, and above it a
top t+(w), its larger critical point, exactly when mu is below the ray's
extremal value mu(w).  Both are the roots of one function, concave in
log t, that a Newton iteration in log t reaches without crossing them
(``_root``); the probe's radius is the top root of another.  The solvers
rest on F being homogeneous: the power law |u|^q / q of every
ProblemSpec.  The saddle search descends J+(w) = Phi(t+(w) w) from the
far endpoint e; the negative-energy minimizer is the minimum of
J-(w) = Phi(t-(w) w), the N+ branch of Brown & Zhang (2003), descended
from a Gaussian bump.  The
iterate always sits on its ray's critical point and J never rises over
accepted steps.  Each step goes along the Polak-Ribiere+ direction
d = g + beta d_prev, beta >= 0 (Gilbert & Nocedal, SIAM J. Optim. 2,
1992), on the gradient g = M r of an SPD M that stands in for the
lam-norm's Riesz map K^{-1}, K = (I - Laplacian)^alpha + lam V: K^{-1}
itself on a 1-D even grid, inverted once per problem, and one transform
pair elsewhere (``_riesz_gradient``).  A d that is no descent direction
restarts along g.  Once <r, g>^(1/2) is small next to ||u||_lam, or a
row's one line search refuses every step along d, a damped Newton
iteration on the strong-form residual pushes the iterate to solver
tolerance, each step solved by MINRES, on a 1-D even grid preconditioned
by K^{-1}.  The ball radius rho only checks the minimizer: it must sit
inside the ball, with a margin.

Every backtracking search walks the steps s, s/2, s/4, ... and only its
count differs.

The solvers take and return Fields but work on plain arrays inside,
through the array kernels of ``grid`` and ``problem``: a trial point that
overflows reads +inf energy, or a residual norm that fails every
acceptance test, instead of being refused by the Field constructor.

Both descents run in the even subspace when they can.  V of both
families and xi are radial, and so is every start that the config
builds, so Phi is invariant under each reflection x_i -> -x_i, and every
step above maps fields even in each x_i to even fields: the transforms,
the pointwise maps, the line searches and MINRES.  By Palais' principle
of symmetric criticality (Comm. Math. Phys. 69, 1979) a critical point
of Phi restricted to the even fields is a critical point of Phi.  On
any grid such a field is stored as its (n//2 + 1)^dim samples on
x_i <= 0, from the box edge (``grid.EvenGrid``), where a transform pair
and the array work of a MINRES iteration cost about 2^dim times less.
In 1-D that is at most 209 samples, few enough to store
A = (I - Laplacian)^alpha and K^{-1} dense: a residual or an energy is
one product with A, the gradient one with K^{-1}, and a Newton MINRES
iteration one more, with no transform.  The rule is fixed: a solve runs
there exactly when, in 1-D, n is at most EVEN_1D_MAX_N and the start is
even to roundoff; otherwise on the full grid, as it stands.  The 1-D bound
weighs a fresh problem against a warm one: each product is O(n^2), and
the first run also builds A and inverts K, O(n^3), so from about n = 384
the cold coercive canonical run is slower than on the full grid's FFT,
though warm runs stay faster up to n = 1024 (README).  The solution
is extended back to the full grid and its residual re-checked there
once; a report says which grid it ran on, and why not the even one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .grid import (
    Field,
    _abs_power,
    _direct,
    _dot,
    _extend,
    _filter,
    _integral,
    _is_even,
    _lp_norm,
    _multiply_and_norm,
    _potential,
    _require,
    _restrict,
    _sum,
    _sup_constant,
    lp_norm,
)
from .problem import (
    ProblemSpec,
    _energy_parts,
    _residual_values,
    energy,  # not called here: perfbench's tests read besselmp.solvers.energy
)

__all__ = [
    "SolveOptions",
    "GeometryProbe",
    "GeometryError",
    "TraceEntry",
    "SolveReport",
    "TwoSolutionResult",
    "probe_geometry",
    "mountain_pass_solve",
    "ball_min_solve",
    "assess_levels",
    "two_solution_stages",
    "two_solution_experiment",
]


class GeometryError(RuntimeError):
    """The mountain-pass geometry cannot be certified for this problem."""


# Line-search and stopping constants of the Nehari descent and the Newton
# polish.
STEP_INIT = 1.0
STEP_MAX = 10.0
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
BACKTRACK_TRIES = 40  # gradient steps tried per search; from 1 they stay above 1e-12
NEWTON_TRIES = 34  # damped Newton steps 1, 1/2, ... above 1e-10
GRADIENT_SHIFT = 4.0  # c of the descent's M off the 1-D even grid (``_riesz_gradient``)
HANDOVER_RATIO = 0.1  # the descent hands over to Newton at <r, M r>^(1/2) <= this ||u||_lam
DESCENT_MAX = 5000  # descent rows per solve; the canonical runs take at most a handful
NEWTON_MAX = 80
MINRES_MAXITER = 400
INTERIOR_MARGIN = 0.02  # a ball minimizer must sit this fraction of rho inside
BASIN_SLACK = 1e-10  # a polish may end above its handover level by this, relative, and no more
# Largest n, odd or even, at which a 1-D solve runs on the even half, where
# warm runs win and the cold coercive run no longer does (module docstring,
# README); from n = 2048 EvenGrid refuses the matrix.
EVEN_1D_MAX_N = 416


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    # not an option: the benchmark's trace mode (perfbench/run.py) divides
    # its Armijo span count by path_nodes - 2, so the old path's node count
    # stays readable until the benchmark counts descent entries instead
    path_nodes: ClassVar[int] = 41

    def __post_init__(self):
        _require((0 < self.tol < math.inf, f"tol: must be positive and finite, got {self.tol}"))


@dataclass(frozen=True)
class GeometryProbe:
    rho: float
    eta: float
    mu_budget: float
    # a certified lower end of mu_0 = inf_w mu(w) (``_extremal_mu``)
    mu0_lower: float
    c_inf: float
    c_2: float
    e: Field


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    energy: float
    residual_norm: float
    # a descent entry: the step its line search starts from; a polish
    # entry: the damped Newton step s it accepted, 1.0 a full step, below 1
    # a damped one, 0.0 a refused step (no trial passed, or the solve
    # failed) and on the entry that stops at tol
    step_size: float
    phase: str
    # trial points scored by the step taken from this entry: energies in
    # the Nehari descent and the ball, residual norms in the polish
    trials: int
    # MINRES iterations of a polish entry's Newton direction, also when the
    # solve failed (MINRES_MAXITER if it hit the cap); 0 on a descent entry,
    # whose gradient solves nothing, and on the polish entry that stops at tol
    krylov_iters: int = 0
    # a polish entry: why its solve stopped, ``_minres``'s "forcing" or its
    # failures "cap", "breakdown" and "singular" (K refused); "" at tol.  A
    # descent entry: its gradient's route, "direct" (K^{-1}, 1-D even grid),
    # "scaled" (M_c, elsewhere) or "singular" (K refused, or not finite)
    krylov_stop: str = ""
    # a descent entry: the Polak-Ribiere+ weight of the previous direction
    # in its search direction, 0.0 on a gradient step (the first row or a
    # restart) and on every polish entry
    beta: float = 0.0
    # a descent entry: ||u||_lam of its iterate, the norm its handover test
    # reads; 0.0 on every polish entry
    norm_lam: float = 0.0


@dataclass(frozen=True)
class SolveReport:
    solution: Field
    energy: float
    residual_norm: float
    iterations: int  # len(trace), each row's iteration its index
    classification: str
    converged: bool
    ok: bool
    message: str
    trace: tuple
    # the grid the solve ran on, "even" (the x_i <= 0 half) or "full", and
    # why not the even one: "dim 1, n above 416" (EVEN_1D_MAX_N) or "start
    # is not even"; "" when even.
    grid: str = "full"
    grid_reason: str = ""

    @property
    def counts(self) -> dict:
        """The work summed from the trace: descent rows, the conjugate ones among them
        (beta > 0), and the MINRES iterations of the Newton solves; and the grid the
        solve ran on, with the reason."""
        descent = [t for t in self.trace if t.phase != "polish"]
        return {"descent_rows": len(descent),
                "conjugate_rows": sum(t.beta > 0.0 for t in descent),
                "newton_krylov_iters": sum(t.krylov_iters for t in self.trace
                                           if t.phase == "polish"),
                "grid": self.grid, "grid_reason": self.grid_reason}


# Array helpers: u, r and search directions are ndarrays of the grid's shape.


def _residual(spec, u):
    """(r, ||r||_2, ||u||_bessel^2) from one ``_multiply_and_norm``; overflow reads inf or nan."""
    image, bessel = _multiply_and_norm(spec.grid, u, spec.alpha)
    r = _residual_values(spec, u, image)
    return r, _lp_norm(spec.grid, r, 2), bessel


def _bump(spec):
    return np.exp(-spec.grid.radius_sq)


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


def _scalar_power(t: float, k: float) -> float:
    """t^k for a float t > 0; inf where a Python float power raises OverflowError."""
    try:
        return t**k
    except OverflowError:
        return math.inf


def _root(a, b, c, q, p, bottom=False):
    """The larger root t > 0 of g(t) = a - b t^(q-2) - c t^(p-2), or with ``bottom`` the smaller.

    q > 2 > p, a and b positive, c >= 0; nan where there is no such root.
    In s = log t, g is strictly concave, g'' = -b (q-2)^2 t^(q-2) -
    c (2-p)^2 t^(p-2) < 0, so it has at most two roots, and it has them
    exactly when g > 0 at its peak, where b (q-2) t^(q-2) = c (2-p) t^(p-2)
    and so g = a - b t^(q-2) (q-p) / (2-p); that test runs in logs.  With
    c = 0, g falls from a: its one root is the top, and there is no bottom.
    Newton's method in s from a point beyond a root, where g < 0, moves
    toward it and never crosses it, since the tangent of a concave g lies
    above g.  The top starts at t = (a/b)^(1/(q-2)), where g = -c t^(p-2),
    the bottom at t = (c/a)^(1/(2-p)), where g = -b t^(q-2); the iteration
    stops once g is not negative or a step does not move t toward the root.
    A start past the float range, 0 or inf, is returned as it stands.
    """
    if not (a > 0.0 and b > 0.0) or (bottom and c == 0.0):
        return math.nan
    if c > 0.0:
        log_b = math.log(b)
        peak = (math.log(c) - log_b + math.log((2.0 - p) / (q - 2.0))) / (q - p)  # s at g's peak
        if not log_b + (q - 2.0) * peak < math.log(a) + math.log((2.0 - p) / (q - p)):
            return math.nan
    if bottom:
        t = _scalar_power(c / a, 1.0 / (2.0 - p))
    else:
        t = _scalar_power(a / b, 1.0 / (q - 2.0))
    while 0.0 < t < math.inf:
        convex, concave = b * _scalar_power(t, q - 2.0), c * _scalar_power(t, p - 2.0)
        g = a - convex - concave
        if not g < 0.0:
            break
        nxt = t * math.exp(-g / ((2.0 - p) * concave - (q - 2.0) * convex))
        if not (nxt > t if bottom else nxt < t):
            break
        t = nxt
    return t


# ---------------------------------------------------------------------------
# geometry probe


def _ridge_bound(spec, c_inf, c_2):
    """(rho, eta, mu_budget) of l(rho) = rho^2/2 - a rho^q - mu b rho^p, a lower bound of Phi.

    F = |u|^q / q <= sup|u|^(q-2) u^2 / q and Hoelder on the concave term give
    Phi(u) >= l(||u||_lam) with a = C_inf^(q-2) C_2^2 / q, b = ||xi||_{2/(2-p)} C_2^p / p.
    The budget is the largest mu with max l >= 0: the maximum over rho of
    (rho^(2-p)/2 - a rho^(q-p)) / b, taken at rho^(q-2) = (2-p) / (2 a (q-p)).
    Below it rho = argmax l is the top root of l'(rho) / rho = 1 - q a rho^(q-2)
    - p mu b rho^(p-2) (``_root``).
    """
    q, p, mu = spec.q, spec.p, spec.mu
    numbers = f"C_inf = {c_inf:.6g}, C_2 = {c_2:.6g}"
    try:
        a = c_inf ** (q - 2.0) * c_2**2 / q
        b = lp_norm(spec.xi_field, 2.0 / (2.0 - p)) * c_2**p / p
        peak = ((2.0 - p) / (2.0 * a * (q - p))) ** (1.0 / (q - 2.0))
        budget = peak ** (2.0 - p) * (q - 2.0) / (2.0 * (q - p)) / b if b > 0.0 else math.inf
        if not mu < budget:
            raise GeometryError(f"mu = {mu:.6g} is not below the certified budget "
                                f"{budget:.6g} ({numbers})")
        rho = _root(1.0, q * a, p * mu * b, q, p)
        eta = 0.5 * rho**2 - a * rho**q - mu * b * rho**p
    except (OverflowError, ZeroDivisionError):  # q near 2, an extreme lam: past float range
        rho = eta = math.inf
    if not (math.isfinite(rho) and math.isfinite(eta)):
        raise GeometryError(f"the ridge bound is not a finite float ({numbers}, q = {q!r}, "
                            f"p = {p!r})")
    return rho, eta, budget


# Overflow in a trial point is an expected outcome of a line search (the
# trial reads +inf energy and is rejected), so the three solver entry
# points silence overflow and invalid-value warnings for their whole run.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def probe_geometry(spec: ProblemSpec) -> GeometryProbe:
    """Certify Phi >= eta > 0 on the sphere ||u||_lam = rho and find a far endpoint e beyond it.

    Raises GeometryError, with the numbers, when mu is not below the
    budget, when the ridge bound is not a finite float, when the bump's
    energy is not finite, or when ||e||_lam <= rho.
    """
    # with m = lam min V, ||u||_lam^2 >= ||u||_bessel^2 + m ||u||_2^2 and the symbol is at
    # least 1: sup |u| <= C_inf ||u||_lam and ||u||_2 <= C_2 ||u||_lam, C_2^2 = 1/(1 + m)
    shift = spec.lam * float(np.min(spec.V_field.values))
    c_inf, c_2 = _sup_constant(spec.grid, spec.alpha, shift), 1.0 / math.sqrt(1.0 + shift)
    rho, eta, budget = _ridge_bound(spec, c_inf, c_2)
    # mu(w) is 0-homogeneous, and the ridge constants bound its t^q and t^p
    # coefficients as they bound l's, so at ||w||_lam = 1 mu(w) is at least
    # max_t (t^(2-p) - q a t^(q-p)) / (p b), the budget times (2/p) (2/q)^((2-p)/(q-2))
    q, p = spec.q, spec.p
    mu0_lower = 2.0 / p * (2.0 / q) ** ((2.0 - p) / (q - 2.0)) * budget

    # far endpoint: the first of the bumps 1.5^k exp(-|x|^2) with negative (and
    # finite) energy, each scored in closed form along the bump's ray
    phi0 = _bump(spec)
    pieces = _energy_parts(spec, phi0)
    if pieces.total == math.inf:
        raise GeometryError(f"the bump exp(-|x|^2) has infinite energy on the grid (n = "
                            f"{spec.grid.n}, box_length = {spec.grid.box_length:.6g})")
    k, _ = _first(range(60), lambda k: -math.inf < _along(spec, pieces, 1.5**k) < 0.0)
    if k is None:
        raise GeometryError("could not drive the energy negative by scaling a bump")
    # ||e||_lam^2 = 1.5^(2k) ||phi0||_lam^2 = 1.5^(2k) 2 quad
    e_norm = 1.5**k * math.sqrt(2.0 * pieces.quad)
    if not e_norm > rho:
        raise GeometryError(f"the far endpoint has ||e||_lam = {e_norm:.6g}, "
                            f"not beyond the certified ridge radius rho = {rho:.6g}")
    return GeometryProbe(rho=rho, eta=eta, mu_budget=budget, mu0_lower=mu0_lower,
                         c_inf=c_inf, c_2=c_2, e=Field(spec.grid, 1.5**k * phi0))


# ---------------------------------------------------------------------------
# mountain pass


def _riesz_gradient(spec, r):
    """d = M r, the descent's gradient for an SPD M ~ K^{-1}; (d, its slope <r, d>, stop).

    K = (I - Laplacian)^alpha + lam V.  On a 1-D even grid M = K^{-1}, one
    product with the problem's dense K^{-1} (``ProblemSpec._riesz_inverse``),
    stop "direct": d is the lam-norm gradient and <r, d>^(1/2) the dual
    norm of r.  Elsewhere M = M_c = D (A + c)^(-1) D, one transform pair,
    stop "scaled", with A = (I - Laplacian)^alpha, c = GRADIENT_SHIFT and
    D^2 = (1 + c) / (1 + c + lam V).  Preconditioned nonlinear CG needs
    only an SPD M (Hager & Zhang, Pacific J. Optim. 2, 2006), symmetric in
    ``_dot``'s inner product: <r, d> > 0 for r != 0, and -d is a descent
    direction.  Where lam V is a constant w, M_c K has the condition number
    max((1 + w) / (1 + c), (1 + c) / (1 + w)): at most 1 + c where w <= c,
    and on a wall w > c the 1 + w of the c = 0 form D A^(-1) D over 1 + c.
    c = 4 was measured on the runs of ``test_solver_work_is_pinned``:
    c = 16 makes as many forward transforms over them but more on the 2-D
    plane and the 1-D full grid, and c = 0 takes the n=128 steep well's
    ball descent to 58 rows.  A refused K, or a d that is not finite,
    returns d = 0 with slope 0 and stop "singular", which hands the
    descent over to the polish.
    """
    g = spec.grid
    if _direct(g):
        inverse, stop = spec._riesz_inverse, "direct"
        d = None if inverse is None else inverse @ r
    else:
        c, stop = GRADIENT_SHIFT, "scaled"
        scale = np.sqrt((1.0 + c) / (1.0 + c + spec.lam * spec.V_field.values))
        d = scale * _filter(g, scale * r, 1.0 / (g.symbol(spec.alpha) + c))
    if d is None or not np.isfinite(d).all():
        return np.zeros_like(r), 0.0, "singular"
    return d, _integral(g, r * d), stop


def _along(spec, pieces, t):
    """Phi(t w) = t^2 quad - t^q f_term - t^p xi_term, from the ``_energy_parts(w)`` pieces.

    The power law's int F is homogeneous of degree q (Brown & Zhang, 2003),
    so no t costs a transform; a t^q past the float range reads -inf.
    """
    return (t**2 * pieces.quad - pieces.f_term * _scalar_power(t, spec.q)
            - t**spec.p * pieces.xi_term)


def _fibering(spec, w, bottom=False, pieces=None):
    """(t, Phi(t w)) at the top of the fibering map t -> Phi(t w), or with ``bottom`` at its bottom.

    dPhi(t w)/dt = t (a - b t^(q-2) - c t^(p-2)) with a = 2 quad,
    b = q f_term and c = p xi_term from w's ``_energy_parts``, ``pieces``
    or one call, so the top t+(w), the larger critical point, and the
    bottom t-(w), the local minimum below it, are the two roots that
    ``_root`` finds, on any ray that has them, whatever the scale of w.  A ray has both exactly
    when mu < mu(w), its extremal value (``_extremal_mu``).  (nan, inf)
    when Phi(w) or Phi(t w) is not finite or the ray has no such point; a
    descent refuses such a trial.  A bottom that underflows reads (0.0, 0.0).
    """
    pieces = pieces or _energy_parts(spec, w)
    if pieces.total == math.inf:
        return math.nan, math.inf
    q, p = spec.q, spec.p
    t = _root(2.0 * pieces.quad, q * pieces.f_term, p * pieces.xi_term, q, p, bottom)
    level = _along(spec, pieces, t)
    return (t, level) if math.isfinite(level) else (math.nan, math.inf)


def _extremal_mu(spec, w):
    """mu(w), the mu past which the fibering map t -> Phi(t w) has no critical point.

    For Phi(t w) = t^2 A - t^q B - mu t^p C it is
    2 (q-2) A t*^(2-p) / ((q-p) p C) with t*^(q-2) = 2 (2-p) A / (q (q-p) B),
    a 0-homogeneous nonlinear Rayleigh quotient (Il'yasov, Topol. Methods
    Nonlinear Anal. 49, 2017); inf where C = 0.
    """
    parts = _energy_parts(spec, w)
    q, p = spec.q, spec.p
    big_a, big_c = parts.quad, parts.xi_integral / p
    if not big_c > 0.0:
        return math.inf
    peak = (2.0 * (2.0 - p) * big_a / (q * (q - p) * parts.f_term)) ** (1.0 / (q - 2.0))
    return 2.0 * (q - 2.0) * big_a * peak ** (2.0 - p) / ((q - p) * p * big_c)


def _armijo_step(u, e_u, d, slope, step, place):
    """One monotone descent step from u along -d, backtracking from ``step``.

    Walks the steps step, step/2, ..., BACKTRACK_TRIES of them.  ``place``
    maps each trial u - s d to (point, energy); the first point whose
    energy is at most e_u - ARMIJO_SLOPE s slope is taken.  A slope that
    is not positive and finite tries nothing: its decrease test is
    unpassable.

    Returns (u, energy, step_used, trials): step_used is 0.0 where no step
    was accepted, trials the energies evaluated.
    """
    if not 0.0 < slope < math.inf:
        return u, e_u, 0.0, 0
    found, tried = _first(
        ((s, *place(u - s * d)) for s in _steps(step, BACKTRACK_TRIES)),
        lambda c: c[2] <= e_u - ARMIJO_SLOPE * c[0] * slope)
    if found is None:
        return u, e_u, 0.0, tried
    s, point, e_t = found
    return point, e_t, s, tried


def _hessian_diag(spec, u):
    """Pointwise part of the second derivative of Phi at u."""
    vals = spec.lam * spec.V_field.values - (spec.q - 1.0) * _abs_power(u, spec.q - 2.0)
    if spec.mu > 0:
        # |u|^{p-2} blows up at zeros of u; the concave term's curvature is
        # meaningless there, so it is clamped off below a floor
        au = np.abs(u)
        floor = 1e-12 * max(1.0, float(np.max(au)))
        curv = np.power(au, spec.p - 2.0, out=np.zeros_like(au), where=au > floor)
        vals = vals - spec.mu * (spec.p - 1.0) * spec.xi_field.values * curv
    return vals


def _minres(spec, h, b, forcing):
    """Solve H x = b, H = (I - Laplacian)^alpha + diag(h), by MINRES; (x, iterations, stop).

    Paige & Saunders' recurrence (SIAM J. Numer. Anal. 12, 1975), as in
    scipy.sparse.linalg.minres, with the SPD preconditioner M = (A + s)^(-1)
    for A = (I - Laplacian)^alpha and a pointwise s: A M r2 = r2 - s M r2,
    so for v = M r2 / beta the Lanczos product H v = r2 / beta + (h - s) v
    needs no transform.  On a 1-D even grid s = lam V and M is the dense
    K^{-1} (``ProblemSpec._riesz_inverse``): K^{-1} H is the identity minus
    a compact part, so the count does not grow with n.  Elsewhere
    s = mean |h| over the full grid and M r2 is one transform pair; an
    iteration costs one M, and a solve one more, for M b.  ``stop`` is
    "forcing" once the recurrence's ||H x - b||_M is at most ``forcing``
    ||b||_M, the inexact-Newton stop of Dembo, Eisenstat & Steihaug (SIAM
    J. Numer. Anal. 19, 1982), and on a zero b or a beta of 0 (an invariant
    subspace, which zeroes phibar).  Only here does a linear solve fail,
    with x None: "cap" after MINRES_MAXITER iterations; "breakdown" on a
    beta^2 = <r2, M r2> that is not finite, or negative, which a symmetric
    H and SPD M rule out but for rounding; "singular", 0 iterations, where
    LAPACK refused K; and an x that is not finite keeps the stop that ended
    the loop.  Inner products are ``_dot``'s, the full grid's also on an
    EvenGrid, in which H and M stay symmetric.
    """
    g = spec.grid
    if _direct(g):
        inverse, offset = spec._riesz_inverse, h - spec.lam * spec.V_field.values
        if inverse is None:
            return None, 0, "singular"

        def precondition(r):
            return inverse @ r
    else:
        sigma = _sum(g, np.abs(h)) / g.total_points
        inverse = 1.0 / (g.symbol(spec.alpha) + sigma)
        offset = h - sigma

        def precondition(r):
            return _filter(g, r, inverse)
    x = np.zeros_like(b)
    y = precondition(b)
    beta1 = _dot(g, b, y)
    if not 0.0 < beta1 < math.inf:
        return (x, 0, "forcing") if beta1 == 0.0 else (None, 0, "breakdown")
    beta1 = math.sqrt(beta1)
    eps = np.finfo(float).eps
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    # work vectors, allocated once and updated in place; each new w goes
    # into the buffer of the w1 it retires, and y is fresh from each
    # preconditioner call, so b itself is never written
    v, tmp, w1 = (np.empty_like(b) for _ in range(3))
    w, w2 = np.zeros_like(b), np.zeros_like(b)
    r1 = r2 = b
    for itn in range(1, MINRES_MAXITER + 1):
        # Lanczos step: v = M r2 / beta, then y = H v - alfa/beta r2 - beta/oldb r1
        s = 1.0 / beta
        np.multiply(s, y, out=v)
        np.multiply(s, r2, out=y)
        y += np.multiply(offset, v, out=tmp)
        if itn >= 2:
            y -= np.multiply(beta / oldb, r1, out=tmp)
        alfa = _dot(g, v, y)
        y -= np.multiply(alfa / beta, r2, out=tmp)
        r1, r2 = r2, y
        y = precondition(r2)
        oldb, beta = beta, _dot(g, r2, y)
        if not 0.0 <= beta < math.inf:
            return None, itn, "breakdown"
        beta = math.sqrt(beta)
        # apply the previous plane rotation, then make the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar  # phibar = ||H x - b||_M after this update
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(oldeps, w1, out=w), out=w)
        w -= np.multiply(delta, w2, out=tmp)
        w /= gamma
        x += np.multiply(phi, w, out=tmp)
        if phibar <= forcing * beta1:
            return (x if np.isfinite(x).all() else None), itn, "forcing"
    return None, MINRES_MAXITER, "cap"


def _newton_direction(spec, u, r, forcing):
    """Solve (D^2 Phi)(u) delta = -r; (delta, MINRES iterations, stop), delta None if the solve fails.

    ``_minres`` applies the Hessian matrix-free, preconditioned by its
    one M, one product with M per iteration: the Hessian is symmetric
    but indefinite at a saddle, where CG has no guarantee and GMRES keeps
    a long recurrence that symmetry makes short, while MINRES needs only
    symmetry and an SPD preconditioner.  It stops once
    ||H delta + r||_M <= forcing ||r||_M, or fails as ``_minres`` says.  On
    a 1-D even grid M = K^{-1}, so that norm is the dual lam-norm
    <r, K^{-1} r>^(1/2).
    """
    return _minres(spec, _hessian_diag(spec, u), -r, forcing)


def _polish(spec, u, e_u, r, rn, bessel, opts, trace):
    """Damped Newton from u, of energy e_u, residual r (norm rn) and bessel; (u, e_u, rn, bessel).

    Each step tries u + s delta for s = 1, 1/2, ... and takes the first
    that lowers the residual norm by the factor 1 - 1e-4 s.  When no trial
    passes, or the Newton solve fails, the polish ends where it stands; a
    run that ends above tol reports it.  Each Newton solve stops at the
    inexact-Newton forcing term min(0.1, 0.1 ||r||_2), which keeps Newton's
    local quadratic rate (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
    Anal. 19, 1982) without solving far past what the current residual can
    use.  It is never below 0.5 tol / ||r||_2 (Kelley, Iterative Methods
    for Linear and Nonlinear Equations, 1995): near the end a step only has
    to take the residual to tol, and solving past that can cost more than
    the cap.  The floor bounds the solve's relative M-norm residual, not
    the L^2 residual that the polish stops on.  Each trial is scored by
    one ``_residual``; an accepted step's energy is built from that
    trial's bessel norm, with no transform, so the first entry records the
    e_u it was given (the descent's J) and the energy returned is the one
    at the returned u.
    """
    for _ in range(NEWTON_MAX):
        if rn <= opts.tol:
            trace.append(TraceEntry(len(trace), e_u, rn, 0.0, "polish", 0))
            return u, e_u, rn, bessel
        forcing = min(0.1, max(0.1 * rn, 0.5 * opts.tol / rn))
        delta, iters, stop = _newton_direction(spec, u, r, forcing)
        # the damped Newton trials u + s delta, s = 1, 1/2, ... above 1e-10, scored by
        # their residuals; the accepted one's (finite) is the next row's
        trials = () if delta is None else ((s, u + s * delta) for s in _steps(1.0, NEWTON_TRIES))
        found, tried = _first(((s, v, *_residual(spec, v)) for s, v in trials),
                              lambda c: c[3] <= (1.0 - 1e-4 * c[0]) * rn)
        trace.append(TraceEntry(len(trace), e_u, rn, 0.0 if found is None else found[0],
                                "polish", tried, krylov_iters=iters, krylov_stop=stop))
        if found is None:
            return u, e_u, rn, bessel
        _, u, r, rn, bessel = found
        e_u = _energy_parts(spec, u, bessel).total
    return u, e_u, rn, bessel


def _conjugate(spec, r, grad, slope, prev):
    """The Polak-Ribiere+ direction at residual r; (d, its slope <r, d>, beta).

    ``grad`` = M r is this row's gradient (``_riesz_gradient``) and ``slope``
    its <r, grad>; ``prev`` holds the previous row's (gradient, slope,
    direction), or is None on the first row.  d = grad + beta d_prev with
    beta = max(0, <r, grad - g_prev> / <r_prev, g_prev>) (Gilbert & Nocedal,
    SIAM J. Optim. 2, 1992): M is symmetric, so these are M-inner products
    of residuals, and beta costs two sums and no solve.  The denominator is
    the previous slope, positive or the descent would have handed over.  A
    d whose slope is not positive is no descent direction: the row
    restarts along grad with beta = 0.
    """
    if prev is None:
        return grad, slope, 0.0
    g_prev, slope_prev, d_prev = prev
    g = spec.grid
    beta = max(0.0, (slope - _integral(g, r * g_prev)) / slope_prev)
    d_slope = slope + beta * _sum(g, r * d_prev) * g.cell_volume
    if not (beta > 0.0 and d_slope > 0.0):
        return grad, slope, 0.0
    return grad + beta * d_prev, d_slope, beta


def _nehari_solve(spec, u, level, bottom, opts):
    """Descend J(w) = Phi(t(w) w) from u, then polish; returns (u, energy, rn, bessel, trace).

    t(w) is the top of the fibering map, or with ``bottom`` its bottom;
    u must sit on that critical point of its own ray, at energy ``level``.
    Each row makes one line search along the Polak-Ribiere+ direction of
    ``_conjugate``, built on the gradient g = M r, each trial placed on its
    own ray's critical point before it is scored, so J never rises over
    accepted steps.  Once <r, g>^(1/2) is at most HANDOVER_RATIO ||u||_lam,
    or a row's line search refuses every step, Newton polishes the iterate
    from the residual that the last row computed.  Descent entries have
    phase "ball" on the bottoms and "nehari" on the tops; a descent iterate
    whose residual is not finite raises ValueError.
    """
    g = spec.grid
    phase = "ball" if bottom else "nehari"

    def score(u):
        r, rn, bessel = _residual(spec, u)
        if not math.isfinite(rn):
            raise ValueError(f"the residual at a descent iterate is not finite (||r||_2 = {rn})")
        return r, rn, bessel, math.sqrt(bessel + _potential(g, u, spec.V_field.values, spec.lam))

    def place(w):
        t, j = _fibering(spec, w, bottom)
        return t * w, j

    step = STEP_INIT
    trace: list[TraceEntry] = []
    prev = None  # the previous row's (gradient, slope, direction)
    r, rn, bessel, norm = score(u)
    while len(trace) < DESCENT_MAX:
        grad, slope, stop = _riesz_gradient(spec, r)
        row = (len(trace), level, rn, step, phase)
        if slope <= (HANDOVER_RATIO * norm) ** 2:
            trace.append(TraceEntry(*row, 0, krylov_stop=stop, norm_lam=norm))
            break
        d, d_slope, beta = _conjugate(spec, r, grad, slope, prev)
        u, level, used, tried = _armijo_step(u, level, d, d_slope, step, place)
        trace.append(TraceEntry(*row, tried, krylov_stop=stop, beta=beta, norm_lam=norm))
        if used == 0.0:
            break
        prev = grad, slope, d
        step = min(used * 2.0, STEP_MAX)
        r, rn, bessel, norm = score(u)
    u, e_u, rn, bessel = _polish(spec, u, level, r, rn, bessel, opts, trace)
    return u, e_u, rn, bessel, tuple(trace)


def _subspace(spec, start):
    """(problem, start on its grid, grid, why): where a solve from the full-grid ``start`` runs.

    The even half (``ProblemSpec.even_half``) when the module docstring's
    rule allows, with grid "even" and why ""; else the full grid as it
    stands, grid "full" and why the rule refused.
    """
    g = spec.grid
    if g.dim == 1 and g.n > EVEN_1D_MAX_N:
        why = f"dim 1, n above {EVEN_1D_MAX_N}"
    elif not _is_even(g, start):
        why = "start is not even"
    else:
        return spec.even_half, _restrict(g, start), "even", ""
    return spec, start, "full", why


def _descend(spec, run, u, level, bottom, opts):
    """``_nehari_solve`` on ``run``, the problem ``_subspace`` picked, and back to ``spec``'s grid.

    From the even half the solution is extended to the full grid, and its
    energy and residual norm are scored once there by ``_residual``,
    converged or not: they are ``energy`` and ``residual`` of the reported
    solution to the bit.  Returns (u, energy, rn, ||u||_lam, trace,
    handover), handover the level the descent handed to the polish.
    """
    g = spec.grid
    u, e_u, rn, bessel, trace = _nehari_solve(run, u, level, bottom, opts)
    handover = next(t.energy for t in trace if t.phase == "polish")
    if run is not spec:
        u = _extend(g, u)
        _, rn, bessel = _residual(spec, u)
        e_u = _energy_parts(spec, u, bessel).total
    norm = math.sqrt(bessel + _potential(g, u, spec.V_field.values, spec.lam))
    return u, e_u, rn, norm, trace, handover


def _refusal(rn, e_u, handover, opts):
    """Why both solvers refuse a solve, or None: a residual above tol, or a polish out of its basin.

    The handover point lies on the branch whose J the descent minimizes,
    and the point it seeks, inf J, is at most that level: a polish that
    ends above it, beyond roundoff, has found another critical point.
    """
    if not rn <= opts.tol:
        return "residual tolerance not reached"
    if e_u <= handover + BASIN_SLACK * abs(handover):
        return None
    return (f"converged at energy {e_u:.6g}, above the level {handover:.6g} at which the "
            "descent handed over: the polish left its basin")


@_quiet_overflow
def mountain_pass_solve(spec: ProblemSpec, e: Field, opts: SolveOptions | None = None,
                        probe: GeometryProbe | None = None) -> SolveReport:
    """Saddle-point search by descent on the Nehari manifold, started from e.

    Needs Phi(e) < 0.  One deterministic attempt: the iterate starts at the
    top of the ray through e and descends J(w) = Phi(t+(w) w) on the tops of
    the rays (``_nehari_solve``).  A ray through e with no top raises
    ValueError.  When the geometry probe is supplied its eta gates the
    result: a converged iterate whose energy is not above eta is reported
    with ok=False.  So is one whose polish left its basin (``_refusal``).
    The solve runs on the grid the module docstring's rule picks, which the
    report names.
    """
    opts = opts or SolveOptions()
    _require((e.grid == spec.grid, "field grid does not match problem grid"))
    run, start, grid, why = _subspace(spec, e.values)
    pieces = _energy_parts(run, start)
    if not pieces.total < 0.0:
        raise ValueError("endpoint e must have negative energy")
    t, level = _fibering(run, start, pieces=pieces)
    if not math.isfinite(level):
        raise ValueError("the fibering map along e has no local maximum")
    u, e_u, rn, _, trace, handover = _descend(spec, run, t * start, level, False, opts)

    message = _refusal(rn, e_u, handover, opts)
    if message is None and probe is not None and not e_u > probe.eta:
        message = f"converged at energy {e_u:.6g}, not above the ridge height {probe.eta:.6g}"
    return SolveReport(
        solution=Field(spec.grid, u), energy=e_u, residual_norm=rn, iterations=len(trace),
        classification="mountain_pass", converged=rn <= opts.tol, ok=message is None,
        message=message or "converged", trace=trace, grid=grid, grid_reason=why,
    )


# ---------------------------------------------------------------------------
# ball minimization


@_quiet_overflow
def ball_min_solve(spec: ProblemSpec, rho: float, opts: SolveOptions | None = None) -> SolveReport:
    """The negative-energy local minimizer, by descent on the N+ branch of the Nehari manifold.

    The iterate starts at the bottom of the ray through a Gaussian bump and
    descends J(w) = Phi(t-(w) w) on the bottoms of the rays
    (``_nehari_solve``).  A bump ray with no negative bottom is reported,
    not raised, with its cause: at mu = 0 no ray has one; at mu > 0 the
    bump's ray has none once mu is at least its extremal value mu(bump)
    (``_extremal_mu``), where its fibering map loses both critical points;
    and below mu(bump) its bottom can lie below the float range, as it
    does when p is near 2.  rho does not steer the search; it only checks
    the result, which must sit at most (1 - INTERIOR_MARGIN) rho from the
    origin in the lam-norm.  A polish that left its basin, and the grid,
    are as in ``mountain_pass_solve``.  A result that passes ``_refusal``
    has negative energy, so nothing checks its sign: the descent starts
    below 0, J never rises over accepted steps, and ``_refusal`` passes
    only an energy at most handover (1 - BASIN_SLACK) < 0.
    """
    opts = opts or SolveOptions()
    if not (rho > 0 and np.isfinite(rho)):
        raise ValueError(f"ball radius must be positive, got {rho}")

    g = spec.grid
    run, phi0, grid, why = _subspace(spec, _bump(spec))
    t, level = _fibering(run, phi0, bottom=True)
    if not level < 0.0:
        # every term of the residual vanishes at the zero field
        return SolveReport(
            solution=Field(g, np.zeros(g.shape)), energy=0.0, residual_norm=0.0,
            iterations=0, classification="local_min", converged=False, ok=False,
            message="no negative energy found inside the ball: " + _no_bottom(run, phi0, t),
            trace=(), grid=grid, grid_reason=why,
        )
    u, e_u, rn, norm, trace, handover = _descend(spec, run, t * phi0, level, True, opts)
    bound = (1.0 - INTERIOR_MARGIN) * rho
    message = _refusal(rn, e_u, handover, opts)
    if message is None and norm > bound:
        message = (f"converged at ||u||_lam = {norm:.6g}, beyond {bound:.6g} inside "
                   f"the ball radius rho = {rho:.6g}")
    return SolveReport(
        solution=Field(g, u), energy=e_u, residual_norm=rn, iterations=len(trace),
        classification="local_min", converged=rn <= opts.tol, ok=message is None,
        message=message or "converged", trace=trace, grid=grid, grid_reason=why,
    )


def _no_bottom(spec, phi0, t):
    """Why the bump phi0's ray gave ``ball_min_solve`` no negative bottom, t its bottom or nan."""
    if spec.mu == 0.0:
        return "mu = 0, so no ray has a negative bottom"
    extremal = f"mu(bump) = {_extremal_mu(spec, phi0):.6g}"
    if math.isnan(t):
        return (f"the bump's ray has no bottom, mu = {spec.mu:.6g} is not below its "
                f"extremal value {extremal}")
    return (f"mu = {spec.mu:.6g} is below the bump's extremal value {extremal}, but its "
            "ray's bottom lies below the float range")


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


def assess_levels(probe, mp, ball, distinct_tol: float):
    """Final verdict over the two converged solves.

    Returns (success, distinctness, failure message or None).  The ridge
    height eta is a certified lower bound of Phi on its sphere, so the
    ordering m < 0 < eta < c is checked as it stands.
    """
    distinctness = lp_norm(mp.solution - ball.solution, 2)
    if not ball.energy < 0.0 < probe.eta < mp.energy:
        return False, distinctness, "levels: ordering m < 0 < eta < c failed"
    if distinctness <= distinct_tol:
        return False, distinctness, "levels: solutions are not distinct"
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


def two_solution_stages(spec: ProblemSpec, opts: SolveOptions | None = None,
                        distinct_tol: float = 1e-3):
    """Run the two-solution argument one stage at a time.

    Yields (stage, ok, result) for "probe_geometry" (a GeometryProbe),
    "mountain_pass" and "local_min" (SolveReports) and "levels" (a dict
    with the "levels" table, the "distinctness" and the "failure" message),
    in that order, and stops after the first stage that fails.  A stage
    that raised yields its error as the text "Type: message" instead.
    """
    opts = opts or SolveOptions()
    probe = yield from _stage("probe_geometry", lambda: probe_geometry(spec),
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
    level ordering m < 0 < eta < c holds, and the two solutions are at
    least distinct_tol apart in L^2.  Nothing in the experiment is random,
    so the result does not depend on ``seed``; the keyword stays for the
    benchmark harness (perfbench), which passes its unit seed.
    """
    results, failure = {}, None
    for name, ok, result in two_solution_stages(spec, opts, distinct_tol):
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
