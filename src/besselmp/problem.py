"""Problem data and the variational functional.

A ProblemSpec bundles the grid, the nonlocal order alpha, the potential
weight lam, the concave-term size mu with exponent p in (1, 2), the
superquadratic nonlinearity, the potential, and the positive weight in
front of the concave term.  The functional is

    Phi(u) = 1/2 ||u||_lam^2 - int F(x, u) - (mu/p) int xi |u|^p,

with ||u||_lam^2 the bessel seminorm plus lam * int V u^2.  The strong-form
residual returned by ``residual`` is the exact L^2 gradient of the discrete
functional, which the tests verify against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .grid import (
    Field,
    Grid,
    _multiply,
    _require,
    _row_sum,
    _weighted_norm_sq_rows,
    apply_multiplier,
)

__all__ = [
    "PowerNonlinearity",
    "CustomNonlinearity",
    "CoerciveQuadraticPotential",
    "WellPotential",
    "CustomPotential",
    "GaussianWeight",
    "CustomWeight",
    "ProblemSpec",
    "EnergyBreakdown",
    "AssumptionCheck",
    "ValidationReport",
    "eval_f",
    "eval_F",
    "eval_scrF",
    "energy",
    "residual",
    "precond_gradient",
    "validate_assumptions",
    "critical_exponent",
    "canonical_coercive_spec",
    "canonical_well_spec",
]


def critical_exponent(dim: int, alpha: float) -> float:
    """Upper limit for the growth exponent: 2*dim/(dim - 2*alpha), inf at or below dim <= 2*alpha."""
    if dim <= 2.0 * alpha:
        return math.inf
    return 2.0 * dim / (dim - 2.0 * alpha)


def _abs_power(u: np.ndarray, k: float) -> np.ndarray:
    """|u|^k; a whole k >= 1 by square-and-multiply, any other k through ``**``.

    libm's pow costs about five multiplies per point, and some thirty times
    more again where the result overflows, as it does at the trial points of
    a diverging line search; a product overflows to inf at full speed.
    """
    a = np.abs(u)
    if not (k >= 1.0 and float(k).is_integer()):
        return a**k
    k = int(k)
    out = None
    while True:
        if k & 1:
            out = a if out is None else out * a
        k >>= 1
        if not k:
            return out
        a = a * a


@dataclass(frozen=True)
class PowerNonlinearity:
    """f(u) = |u|^{q-2} u with primitive F(u) = |u|^q / q; theta = q."""

    q: float

    @property
    def theta(self) -> float:
        return self.q

    def f(self, x, u):
        u = np.asarray(u, dtype=np.float64)
        return np.sign(u) * _abs_power(u, self.q - 1.0)

    def F(self, x, u):
        u = np.asarray(u, dtype=np.float64)
        return _abs_power(u, self.q) / self.q

    def f_prime(self, x, u):
        u = np.asarray(u, dtype=np.float64)
        return (self.q - 1.0) * _abs_power(u, self.q - 2.0)


@dataclass(frozen=True)
class CustomNonlinearity:
    """User-supplied f(x, u), F(x, u) with declared growth q and superquadraticity theta.

    Callables receive x as the tuple of ``grid.shape`` coordinate arrays
    (or None for x-independent evaluation) and must vectorize over u.  u
    may arrive as one field or as a stack of fields with leading axes, so
    expressions in x must broadcast against it (plain elementwise numpy
    does).  Only sampled validation is possible for these.
    """

    f_fn: object
    F_fn: object
    q: float
    theta: float

    def f(self, x, u):
        return np.asarray(self.f_fn(x, np.asarray(u, dtype=np.float64)), dtype=np.float64)

    def F(self, x, u):
        return np.asarray(self.F_fn(x, np.asarray(u, dtype=np.float64)), dtype=np.float64)

    def f_prime(self, x, u, h=1e-6):
        u = np.asarray(u, dtype=np.float64)
        step = h * (1.0 + np.abs(u))
        return (self.f(x, u + step) - self.f(x, u - step)) / (2.0 * step)


@dataclass(frozen=True)
class CoerciveQuadraticPotential:
    """V(x) = 1 + |x|^2: positive infimum, ball averages of 1/V decay."""

    family = "coercive"

    def values(self, grid: Grid) -> np.ndarray:
        return 1.0 + grid.radius_sq


@dataclass(frozen=True)
class WellPotential:
    """Flat zero well of given radius, quadratic ramp of given width up to a finite barrier."""

    radius: float
    height: float
    ramp: float

    family = "well"

    def __post_init__(self):
        _require((self.radius > 0, f"well radius: must be positive, got {self.radius}"),
                 (self.height > 0, f"well height: must be positive, got {self.height}"),
                 (self.ramp > 0, f"well ramp: must be positive, got {self.ramp}"))

    def values(self, grid: Grid) -> np.ndarray:
        rho = np.sqrt(grid.radius_sq)
        t = np.clip((rho - self.radius) / self.ramp, 0.0, None)
        return self.height * np.minimum(1.0, t**2)


@dataclass(frozen=True)
class CustomPotential:
    """V(x) = fn(*coords), with coords the tuple of ``grid.shape`` coordinate arrays.

    fn must return an array of ``grid.shape``; the energy and the residual
    multiply it into fields that may arrive stacked with leading axes,
    against which it broadcasts.
    """

    fn: object
    family: str = "coercive"

    def values(self, grid: Grid) -> np.ndarray:
        return np.asarray(self.fn(*grid.coords()), dtype=np.float64)


@dataclass(frozen=True)
class GaussianWeight:
    """xi(x) = exp(-|x|^2), strictly positive with every power integrable."""

    def values(self, grid: Grid) -> np.ndarray:
        return np.exp(-grid.radius_sq)


@dataclass(frozen=True)
class CustomWeight:
    """xi(x) = fn(*coords), with coords the tuple of ``grid.shape`` coordinate arrays.

    As for ``CustomPotential``, the values broadcast against fields that
    may arrive stacked with leading axes.
    """

    fn: object

    def values(self, grid: Grid) -> np.ndarray:
        return np.asarray(self.fn(*grid.coords()), dtype=np.float64)


@dataclass(frozen=True)
class ProblemSpec:
    grid: Grid
    alpha: float
    lam: float
    mu: float
    p: float
    nonlinearity: object = field(default_factory=lambda: PowerNonlinearity(4.0))
    potential: object = field(default_factory=CoerciveQuadraticPotential)
    weight: object = field(default_factory=GaussianWeight)

    def __post_init__(self):
        alpha_ok = 0.0 < self.alpha < 1.0
        q = getattr(self.nonlinearity, "q", None)
        theta = getattr(self.nonlinearity, "theta", None)
        # without a valid alpha only the lower bound on q can be checked
        qmax = critical_exponent(self.grid.dim, self.alpha) if alpha_ok else math.inf
        _require(
            (alpha_ok, f"alpha: must lie in the open interval (0, 1), got {self.alpha}"),
            (0.0 < self.lam < math.inf, f"lam: must be positive and finite, got {self.lam}"),
            (0.0 <= self.mu < math.inf, f"mu: must be nonnegative and finite, got {self.mu}"),
            (1.0 < self.p < 2.0, f"p: must lie in the open interval (1, 2), got {self.p}"),
            (q is None or 2.0 < q < qmax, f"q: growth exponent must lie in (2, {qmax}), got {q}"),
            # a theta equal to q is checked by the rule on q
            (theta is None or theta == q or theta > 2.0,
             f"theta: superquadraticity exponent must exceed 2, got {theta}"),
        )

    @cached_property
    def V_field(self) -> Field:
        vals = self.potential.values(self.grid)
        if np.min(vals) < 0:
            raise ValueError("potential evaluates negative on the grid")
        return Field(self.grid, vals)

    @cached_property
    def xi_field(self) -> Field:
        vals = self.weight.values(self.grid)
        if np.min(vals) < 0:
            raise ValueError("weight evaluates negative on the grid")
        return Field(self.grid, vals)


@dataclass(frozen=True)
class EnergyBreakdown:
    quad: float
    f_term: float
    xi_term: float
    total: float


def eval_f(spec: ProblemSpec, u_value, x=None):
    return spec.nonlinearity.f(x, u_value)


def eval_F(spec: ProblemSpec, u_value, x=None):
    return spec.nonlinearity.F(x, u_value)


def eval_scrF(spec: ProblemSpec, u_value, x=None):
    """Superquadratic excess u*f/2 - F; nonnegative for the power model."""
    u = np.asarray(u_value, dtype=np.float64)
    return 0.5 * u * spec.nonlinearity.f(x, u) - spec.nonlinearity.F(x, u)


class _EnergyRows(NamedTuple):
    """Energy pieces of a stack of fields, one entry per row.

    ``xi_integral`` is int xi |u|^p and ``xi_term`` is mu/p times it; a row
    whose total is not finite has total +inf.
    """

    quad: np.ndarray
    f_term: np.ndarray
    xi_integral: np.ndarray
    xi_term: np.ndarray
    total: np.ndarray


def _energy_rows(spec: ProblemSpec, u: np.ndarray) -> _EnergyRows:
    """Phi and its pieces for every row of ``u`` (trailing axes on the grid)."""
    g = spec.grid
    vol = g.cell_volume
    quad = 0.5 * _weighted_norm_sq_rows(g, u, spec.V_field.values, spec.lam, spec.alpha)
    f_term = _row_sum(g, spec.nonlinearity.F(g.coords(), u)) * vol
    xi_integral = _row_sum(g, spec.xi_field.values * np.abs(u) ** spec.p) * vol
    xi_term = (spec.mu / spec.p) * xi_integral
    total = quad - f_term - xi_term
    total = np.where(np.isfinite(total), total, np.inf)
    return _EnergyRows(quad, f_term, xi_integral, xi_term, total)


def _require_finite_energy(total) -> None:
    if not np.all(np.isfinite(total)):
        raise ValueError("energy evaluated non-finite; field is out of range for the nonlinearity")


def _residual_rows(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Strong-form residual of every row of ``u``; rows are not checked for finiteness."""
    vals = _multiply(spec.grid, u, spec.alpha) + spec.lam * spec.V_field.values * u
    vals = vals - spec.nonlinearity.f(spec.grid.coords(), u)
    return vals - spec.mu * spec.xi_field.values * np.sign(u) * np.abs(u) ** (spec.p - 1.0)


def energy(spec: ProblemSpec, u: Field) -> EnergyBreakdown:
    """Evaluate Phi(u) and its three pieces."""
    if u.grid != spec.grid:
        raise ValueError("field grid does not match problem grid")
    rows = _energy_rows(spec, u.values)
    _require_finite_energy(rows.total)
    return EnergyBreakdown(quad=float(rows.quad), f_term=float(rows.f_term),
                           xi_term=float(rows.xi_term), total=float(rows.total))


def residual(spec: ProblemSpec, u: Field) -> Field:
    """Strong-form residual, the exact L^2 gradient of the discrete Phi.

    r(u) = (I - Laplacian)^alpha u + lam V u - f(x, u) - mu xi |u|^{p-2} u,
    with |u|^{p-2} u read as sign(u) |u|^{p-1} so the value at 0 is 0.
    """
    if u.grid != spec.grid:
        raise ValueError("field grid does not match problem grid")
    return Field(spec.grid, _residual_rows(spec, u.values))


def precond_gradient(spec: ProblemSpec, u: Field) -> Field:
    """Residual smoothed by (I - Laplacian)^{-alpha}; a descent direction for Phi when negated."""
    return apply_multiplier(residual(spec, u), -spec.alpha)


# ---------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    required: bool
    detail: str
    witness: dict
    advisory: bool = False


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required and not c.advisory)

    def by_name(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _check_growth_bound(spec):
    q = getattr(spec.nonlinearity, "q", None)
    if q is None:
        return AssumptionCheck("growth_bound", False, True, "no declared growth exponent", {})
    u = np.concatenate([-np.geomspace(1e-4, 1e3, 200)[::-1], np.geomspace(1e-4, 1e3, 200)])
    ratio = np.abs(eval_f(spec, u)) / (1.0 + np.abs(u) ** (q - 1.0))
    top = ratio[np.abs(u) >= 1e2]
    quotient = float(np.max(top) / max(np.median(top), 1e-300))
    ok = bool(np.all(np.isfinite(ratio)) and quotient <= 1.2)
    return AssumptionCheck(
        "growth_bound", ok, True,
        f"sup |f(u)|/(1+|u|^(q-1)) ~ {np.max(ratio):.4g}, top-decade spread {quotient:.3g}",
        {"c_estimate": float(np.max(ratio)), "top_decade_spread": quotient},
    )


def _check_vanishing_at_zero(spec):
    u = np.geomspace(1e-8, 1e-1, 120)
    ratio = np.abs(eval_f(spec, u) / u)
    ok = bool(ratio[0] <= 1e-4 * (1.0 + ratio[-1]))
    return AssumptionCheck(
        "vanishing_at_zero", ok, True,
        f"|f(u)/u| falls from {ratio[-1]:.3g} at |u|=0.1 to {ratio[0]:.3g} at |u|=1e-8",
        {"ratio_small": float(ratio[0]), "ratio_large": float(ratio[-1])},
    )


def _check_superquadratic(spec):
    theta = getattr(spec.nonlinearity, "theta", None)
    if theta is None:
        return AssumptionCheck("superquadratic", False, True, "no declared theta", {})
    u = np.concatenate([-np.geomspace(1e-6, 1e3, 250)[::-1], np.geomspace(1e-6, 1e3, 250)])
    F = eval_F(spec, u)
    uf = u * eval_f(spec, u)
    margin = uf - theta * F
    ok = bool(np.all(F > 0) and np.all(margin >= -1e-12 * (1.0 + np.abs(uf))))
    worst = int(np.argmin(margin / (1.0 + np.abs(uf))))
    return AssumptionCheck(
        "superquadratic", ok, True,
        f"0 < theta*F <= u*f checked at {u.size} values, worst margin {margin[worst]:.3g} at u={u[worst]:.3g}",
        {"theta": float(theta), "worst_margin": float(margin[worst]), "worst_u": float(u[worst])},
    )


def _unit_ball(grid: Grid, y: float) -> np.ndarray:
    """Mask of the grid points inside the unit ball B(y e_1, 1)."""
    coords = grid.coords()
    d2 = (coords[0] - y) ** 2
    for c in coords[1:]:
        d2 = d2 + c**2
    return d2 < 1.0


def _ball_integrals(V: Field, radii):
    """Integral of 1/V over the unit balls B(y e_1, 1); inf where V vanishes inside."""
    g = V.grid
    out = []
    for y in radii:
        vals = V.values[_unit_ball(g, y)]
        if vals.size == 0:
            out.append(0.0)
        elif np.min(vals) <= 0.0:
            out.append(math.inf)
        else:
            out.append(float(np.sum(1.0 / vals) * g.cell_volume))
    return np.asarray(out)


def _ladder_verdict(ladder):
    """(finite, monotone, decayed) for a ladder of ball integrals; all three mean decay."""
    finite = bool(np.all(np.isfinite(ladder)))
    # grid jitter moves individual rungs by a few percent, hence the slack
    monotone = finite and bool(np.all(ladder[1:] <= ladder[:-1] * 1.05 + 1e-12))
    decayed = finite and bool(ladder[-1] <= 0.1 * ladder[0] + 1e-12)
    return finite, monotone, decayed


def _check_ball_decay(spec):
    g = spec.grid
    top = 0.5 * g.box_length - 1.5
    radii = np.linspace(0.0, max(top, 1.0), 8)
    ladder = _ball_integrals(spec.V_field, radii)
    ok = all(_ladder_verdict(ladder))
    return AssumptionCheck(
        "ball_integrals_decay", ok, spec.potential.family == "coercive",
        f"int_(B(y,1)) dx/V along |y| in [0, {radii[-1]:.3g}]: "
        f"{ladder[0]:.4g} -> {ladder[-1]:.4g}",
        {"radii": [float(r) for r in radii], "ladder": [float(v) for v in ladder]},
    )


def _check_positive_infimum(spec):
    vmin = float(np.min(spec.V_field.values))
    idx = np.unravel_index(int(np.argmin(spec.V_field.values)), spec.grid.shape)
    where = [float(spec.grid.axis_coords[i]) for i in idx]
    ok = vmin > 0.0
    return AssumptionCheck(
        "positive_infimum", ok, spec.potential.family == "coercive",
        f"min V = {vmin:.4g} at x = {where}",
        {"min": vmin, "argmin": where},
    )


def _check_nonnegative(spec):
    vmin = float(np.min(spec.V_field.values))
    return AssumptionCheck(
        "nonnegative", vmin >= 0.0, spec.potential.family == "well",
        f"min V = {vmin:.4g}", {"min": vmin},
    )


def _check_finite_sublevel(spec, b):
    g = spec.grid
    if b is None:
        b = 0.5 * float(np.max(spec.V_field.values))
    mask = spec.V_field.values < b
    measure = float(np.count_nonzero(mask) * g.cell_volume)
    if not mask.any():
        return AssumptionCheck(
            "finite_sublevel", True, spec.potential.family == "well",
            f"sublevel set {{V < {b:.4g}}} is empty", {"b": b, "measure": 0.0},
        )
    margin = math.inf
    for ax in range(g.dim):
        hit = np.any(mask, axis=tuple(a for a in range(g.dim) if a != ax))
        lo = float(g.axis_coords[np.argmax(hit)])
        hi = float(g.axis_coords[g.n - 1 - np.argmax(hit[::-1])])
        margin = min(margin, lo + 0.5 * g.box_length, 0.5 * g.box_length - hi)
    ok = margin >= 1.0
    return AssumptionCheck(
        "finite_sublevel", bool(ok), spec.potential.family == "well",
        f"measure({{V < {b:.4g}}}) = {measure:.4g}, distance to box edge {margin:.3g}",
        {"b": b, "measure": measure, "edge_margin": float(margin)},
    )


def _check_flat_zero_region(spec):
    mask = spec.V_field.values <= 1e-12 * max(float(np.max(spec.V_field.values)), 1e-300)
    interior = ndimage.binary_erosion(mask) if mask.any() else mask
    n_comp = int(ndimage.label(mask)[1]) if mask.any() else 0
    ok = bool(interior.any())
    measure = float(np.count_nonzero(mask) * spec.grid.cell_volume)
    return AssumptionCheck(
        "flat_zero_region", ok, spec.potential.family == "well",
        f"zero set has measure {measure:.4g} in {n_comp} component(s); "
        "boundary smoothness is not machine-checkable",
        {"measure": measure, "components": n_comp},
    )


def _check_weight_integrable(spec):
    g = spec.grid
    power = 2.0 / (2.0 - spec.p)
    w = spec.xi_field.values**power
    integral = float(np.sum(w) * g.cell_volume)
    edge = g.radius_sq >= (0.45 * g.box_length) ** 2
    decayed = bool(np.max(w[edge]) <= 1e-10 * max(np.max(w), 1e-300))
    ok = np.isfinite(integral) and decayed
    return AssumptionCheck(
        "weight_integrable", bool(ok), True,
        f"int xi^(2/(2-p)) = {integral:.4g}, edge max {np.max(w[edge]):.3g}",
        {"integral": integral, "power": power},
    )


def validate_assumptions(spec: ProblemSpec, b: float | None = None) -> ValidationReport:
    """Run every machine-checkable hypothesis on the supplied problem data.

    Checks not applicable to the declared potential family are still run
    and reported, but only the applicable ones gate ``report.passed``.
    """
    checks = (
        _check_growth_bound(spec),
        _check_vanishing_at_zero(spec),
        _check_superquadratic(spec),
        _check_positive_infimum(spec),
        _check_ball_decay(spec),
        _check_nonnegative(spec),
        _check_finite_sublevel(spec, b),
        _check_flat_zero_region(spec),
        _check_weight_integrable(spec),
    )
    return ValidationReport(checks=checks)


# ---------------------------------------------------------------------------
# reference configurations used by the experiment suite


def canonical_coercive_spec(n: int = 256, box_length: float = 40.0) -> ProblemSpec:
    """Coercive-potential reference run: quartic nonlinearity, small concave term."""
    return ProblemSpec(
        grid=Grid(1, n, box_length),
        alpha=0.75,
        lam=1.0,
        mu=0.01,
        p=1.5,
        nonlinearity=PowerNonlinearity(4.0),
        potential=CoerciveQuadraticPotential(),
        weight=GaussianWeight(),
    )


def canonical_well_spec(n: int = 256, box_length: float = 40.0,
                        lam: float = 100.0, mu: float = 0.05) -> ProblemSpec:
    """Potential-well reference run: flat well of radius 1, barrier 50, ramp 1."""
    return ProblemSpec(
        grid=Grid(1, n, box_length),
        alpha=0.75,
        lam=lam,
        mu=mu,
        p=1.5,
        nonlinearity=PowerNonlinearity(4.0),
        potential=WellPotential(radius=1.0, height=50.0, ramp=1.0),
        weight=GaussianWeight(),
    )
