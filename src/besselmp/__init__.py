"""Spectral two-solution solver for a nonlocal elliptic problem.

The package computes critical points of the energy
Phi(u) = 1/2 ||u||_lam^2 - int F(u) - (mu/p) int xi |u|^p
for the operator (I - Laplacian)^alpha on a periodic box: a saddle point
at positive energy found by descent on the Nehari manifold, and a local
minimizer at negative energy found by descent inside a ball, together
with numerical checks of the quantitative estimates the two-solution
argument rests on.
"""

__version__ = "0.1.0"

from .grid import (
    Field,
    Grid,
    Spectrum,
    apply_multiplier,
    bessel_norm_sq,
    constant_field,
    field_from_function,
    inverse_transform,
    lp_norm,
    random_field,
    spectral_derivative,
    transform,
    weighted_norm_sq,
)
from .kernels import KernelEval, bessel_K, bessel_kernel, calibrate_pointwise_constant, pointwise_apply
from .problem import (
    AssumptionCheck,
    CoerciveQuadraticPotential,
    CustomNonlinearity,
    CustomPotential,
    CustomWeight,
    EnergyBreakdown,
    GaussianWeight,
    PowerNonlinearity,
    ProblemSpec,
    ValidationReport,
    WellPotential,
    canonical_coercive_spec,
    canonical_well_spec,
    critical_exponent,
    energy,
    precond_gradient,
    residual,
    validate_assumptions,
)
from .solvers import (
    GeometryError,
    GeometryProbe,
    PSDiagnostics,
    SolveOptions,
    SolveReport,
    TwoSolutionResult,
    assess_levels,
    ball_min_solve,
    mountain_pass_solve,
    probe_geometry,
    ps_diagnostics,
    two_solution_experiment,
    two_solution_stages,
    two_solution_sweep,
)
from .verify import (
    CheckRecord,
    EmbeddingEstimate,
    check_norm_domination,
    check_splitting,
    check_sublevel_l2_bound,
    check_superquadratic_tail,
    coercivity_probe,
    estimate_embedding_constants,
    holder_estimate,
    sublevel_measure,
)
from .fieldio import load_field, save_field
from .config import ConfigError, RunConfig, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
