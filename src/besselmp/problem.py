"""Problem data and the variational functional.

A ProblemSpec is the problem's numbers: the grid, the nonlocal order
alpha, the potential weight lam, the concave-term size mu with exponent
p in (1, 2), the growth exponent q of the power law F(u) = |u|^q / q,
and the potential, one of two radial families.  The weight in front of
the concave term is the Gaussian xi(x) = exp(-|x|^2).  The functional is

    Phi(u) = 1/2 ||u||_lam^2 - int F(u) - (mu/p) int xi |u|^p,

with ||u||_lam^2 the bessel seminorm plus lam * int V u^2, and
f(u) = F'(u) = |u|^(q-2) u.  The strong-form residual returned by
``residual`` is the exact L^2 gradient of the discrete functional, which
the tests verify against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import (
    Field,
    Grid,
    _abs_power,
    _bessel_norm_sq,
    _direct,
    _filter,
    _integral,
    _multiplier_matrix,
    _multiply,
    _potential,
    _read_only,
    _require,
)

__all__ = [
    "CoerciveQuadraticPotential",
    "WellPotential",
    "ProblemSpec",
    "EnergyBreakdown",
    "eval_scrF",
    "energy",
    "residual",
    "validate_assumptions",
    "critical_exponent",
    "canonical_coercive_spec",
    "canonical_well_spec",
]


PRECONDITIONER_SHIFT = 4.0  # c of M_c, both solves' M off a 1-D EvenGrid


def critical_exponent(dim: int, alpha: float) -> float:
    """Upper limit for the growth exponent: 2*dim/(dim - 2*alpha), inf at or below dim <= 2*alpha."""
    if dim <= 2.0 * alpha:
        return math.inf
    return 2.0 * dim / (dim - 2.0 * alpha)


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
        sizes = {"radius": self.radius, "height": self.height, "ramp": self.ramp}
        _require(*((0.0 < v < math.inf, f"well {k}: must be positive and finite, got {v}")
                   for k, v in sizes.items()))

    def values(self, grid: Grid) -> np.ndarray:
        rho = np.sqrt(grid.radius_sq)
        t = np.clip((rho - self.radius) / self.ramp, 0.0, None)
        return self.height * np.minimum(1.0, t**2)


@dataclass(frozen=True)
class ProblemSpec:
    grid: Grid
    alpha: float
    lam: float
    mu: float
    p: float
    q: float = 4.0
    potential: CoerciveQuadraticPotential | WellPotential = field(
        default_factory=CoerciveQuadraticPotential)

    def __post_init__(self):
        alpha_ok = 0.0 < self.alpha < 1.0
        # without a valid alpha only the lower bound on q can be checked
        qmax = critical_exponent(self.grid.dim, self.alpha) if alpha_ok else math.inf
        _require(
            (alpha_ok, f"alpha: must lie in the open interval (0, 1), got {self.alpha}"),
            (0.0 < self.lam < math.inf, f"lam: must be positive and finite, got {self.lam}"),
            (0.0 <= self.mu < math.inf, f"mu: must be nonnegative and finite, got {self.mu}"),
            (1.0 < self.p < 2.0, f"p: must lie in the open interval (1, 2), got {self.p}"),
            (2.0 < self.q < qmax, f"q: growth exponent must lie in (2, {qmax}), got {self.q}"),
            # even_half rests on V being radial, as both families are
            (type(self.potential) in (CoerciveQuadraticPotential, WellPotential),
             "potential: must be a CoerciveQuadraticPotential or a WellPotential, got "
             f"{type(self.potential).__name__}"),
        )

    @cached_property
    def V_field(self) -> Field:
        return Field(self.grid, self.potential.values(self.grid))

    @cached_property
    def xi_field(self) -> Field:
        """xi(x) = exp(-|x|^2), strictly positive with every power integrable."""
        return Field(self.grid, np.exp(-self.grid.radius_sq))

    @cached_property
    def even_half(self) -> ProblemSpec:
        """This problem on ``grid.half``, stored from the origin, for any n.

        V and xi are radial, so even in each x_i, and on the half grid they
        are built once, with the half problem, from the full grid's own
        coordinates: the restricted full-grid fields, to the bit.
        """
        return replace(self, grid=self.grid.half)

    @cached_property
    def _riesz_inverse(self) -> np.ndarray | None:
        """K^{-1} as a dense matrix, K = (I - Laplacian)^alpha + lam V, on a 1-D EvenGrid only.

        K does not depend on u, so it is inverted once per problem, on first use
        by a solver.  None where LAPACK refuses K, cached too: it is tried once.
        """
        k = _multiplier_matrix(self.grid, self.alpha) + np.diag(self.lam * self.V_field.values)
        try:
            return _read_only(np.linalg.inv(k))
        except np.linalg.LinAlgError:
            return None

    @cached_property
    def _preconditioner(self) -> tuple:
        """(M, route): the SPD M ~ K^{-1} of the gradient and Newton solves, as r -> M r.

        Route "direct" on a 1-D EvenGrid (``grid._direct``): M = K^{-1}, one
        dense product (``_riesz_inverse``), None where LAPACK refused K.  Route
        "scaled" elsewhere: M_c = D ((I - Laplacian)^alpha + c)^(-1) D with
        D^2 = (1 + c) / (1 + c + lam V) and c = PRECONDITIONER_SHIFT, one
        transform pair, a diagonal stand-in for the absolute-value
        preconditioner (Vecharynski & Knyazev, SIAM J. Sci. Comput. 35, 2013).
        """
        if _direct(self.grid):
            inverse = self._riesz_inverse
            return (None if inverse is None else lambda r: inverse @ r), "direct"
        c = PRECONDITIONER_SHIFT
        scale = np.sqrt((1.0 + c) / (1.0 + c + self.lam * self.V_field.values))
        shifted = 1.0 / (self.grid.symbol(self.alpha) + c)
        return (lambda r: scale * _filter(self.grid, scale * r, shifted)), "scaled"


def eval_scrF(spec: ProblemSpec, u_value):
    """Superquadratic excess u*f/2 - F = (1/2 - 1/q) |u|^q, nonnegative."""
    u = np.asarray(u_value, dtype=np.float64)
    return 0.5 * u * (np.sign(u) * _abs_power(u, spec.q - 1.0)) - _abs_power(u, spec.q) / spec.q


class EnergyBreakdown(NamedTuple):
    """Phi and its pieces.

    ``xi_integral`` is int xi |u|^p and ``xi_term`` is mu/p times it.  A
    total that is not finite reads +inf from ``_energy_parts``; ``energy``
    refuses it.
    """

    quad: float
    f_term: float
    xi_integral: float
    xi_term: float
    total: float


def _energy_parts(spec: ProblemSpec, u: np.ndarray, bessel=None) -> EnergyBreakdown:
    """Phi and its pieces at the field values ``u``, of squared bessel norm ``bessel`` if given."""
    g = spec.grid
    if bessel is None:
        bessel = _bessel_norm_sq(g, u, spec.alpha)
    quad = 0.5 * (bessel + _potential(g, u, spec.V_field.values, spec.lam))
    f_term = _integral(g, _abs_power(u, spec.q) / spec.q)
    xi_integral = _integral(g, spec.xi_field.values * _abs_power(u, spec.p))
    xi_term = (spec.mu / spec.p) * xi_integral
    total = quad - f_term - xi_term
    return EnergyBreakdown(quad, f_term, xi_integral, xi_term,
                           total if math.isfinite(total) else math.inf)


def _residual_values(spec: ProblemSpec, u: np.ndarray, image=None) -> np.ndarray:
    """Strong-form residual at the field values ``u``; they are not checked for finiteness.

    ``image`` is (I - Laplacian)^alpha u where the caller has it already.
    """
    if image is None:
        image = _multiply(spec.grid, u, spec.alpha)
    vals = image + spec.lam * spec.V_field.values * u
    vals = vals - np.sign(u) * _abs_power(u, spec.q - 1.0)
    return vals - spec.mu * spec.xi_field.values * np.sign(u) * _abs_power(u, spec.p - 1.0)


def _hessian_diag(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Pointwise part of the second derivative of Phi at the field values ``u``."""
    vals = spec.lam * spec.V_field.values - (spec.q - 1.0) * _abs_power(u, spec.q - 2.0)
    if spec.mu > 0:
        # |u|^{p-2} blows up at zeros of u; the concave term's curvature is
        # meaningless there, so it is clamped off below a floor
        au = np.abs(u)
        floor = 1e-12 * max(1.0, float(np.max(au)))
        curv = np.power(au, spec.p - 2.0, out=np.zeros_like(au), where=au > floor)
        vals = vals - spec.mu * (spec.p - 1.0) * spec.xi_field.values * curv
    return vals


def energy(spec: ProblemSpec, u: Field) -> EnergyBreakdown:
    """Evaluate Phi(u), its three pieces and the bare integral int xi |u|^p."""
    if u.grid != spec.grid:
        raise ValueError("field grid does not match problem grid")
    parts = _energy_parts(spec, u.values)
    if parts.total == math.inf:
        raise ValueError("energy evaluated non-finite; field is out of range for the nonlinearity")
    return parts


def residual(spec: ProblemSpec, u: Field) -> Field:
    """Strong-form residual, the exact L^2 gradient of the discrete Phi.

    r(u) = (I - Laplacian)^alpha u + lam V u - f(u) - mu xi |u|^{p-2} u,
    with |u|^{p-2} u read as sign(u) |u|^{p-1} so the value at 0 is 0.
    """
    if u.grid != spec.grid:
        raise ValueError("field grid does not match problem grid")
    return Field(spec.grid, _residual_values(spec, u.values))


# ---------------------------------------------------------------------------
# the hypotheses on V and xi are checked in ``verify``; those on f hold for every valid spec


def validate_assumptions(spec: ProblemSpec, b: float | None = None):
    """``besselmp.verify.validate_assumptions``, kept under this module's name for old callers."""
    from .verify import validate_assumptions as validate  # verify imports this module

    return validate(spec, b)


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
        q=4.0,
        potential=CoerciveQuadraticPotential(),
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
        q=4.0,
        potential=WellPotential(radius=1.0, height=50.0, ramp=1.0),
    )
