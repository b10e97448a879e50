"""Spectral two-solution solver for a nonlocal elliptic problem.

The package computes critical points of the energy
Phi(u) = 1/2 ||u||_lam^2 - int F(u) - (mu/p) int xi |u|^p
for the operator (I - Laplacian)^alpha on a periodic box: a saddle point
at positive energy and a local minimizer at negative energy, both found
by descent on the Nehari manifold (its top and bottom branches), together
with numerical checks of the quantitative estimates the two-solution
argument rests on.
"""

__version__ = "0.1.0"

import types

from .grid import (
    Field,
    Grid,
    apply_multiplier,
    lp_norm,
    random_field,
    spectral_derivative,
)
from .problem import (
    CoerciveQuadraticPotential,
    CustomPotential,
    CustomWeight,
    EnergyBreakdown,
    GaussianWeight,
    PowerNonlinearity,
    ProblemSpec,
    WellPotential,
    canonical_coercive_spec,
    canonical_well_spec,
    critical_exponent,
    energy,
    residual,
)
from .solvers import (
    GeometryError,
    GeometryProbe,
    SolveOptions,
    SolveReport,
    TwoSolutionResult,
    assess_levels,
    ball_min_solve,
    mountain_pass_solve,
    probe_geometry,
    two_solution_experiment,
    two_solution_stages,
)
from .verify import (
    CheckRecord,
    EmbeddingEstimate,
    check_bounded_descent,
    check_norm_domination,
    check_splitting,
    check_sublevel_l2_bound,
    check_superquadratic_tail,
    coercivity_probe,
    estimate_embedding_constants,
    holder_estimate,
    sublevel_measure,
    validate_assumptions,
)
from .fieldio import load_field, save_field
from .config import ConfigError, RunConfig, parse_config

# besselmp.kernels needs SciPy, which no solve or check loads: it is not re-exported.
# Nor are the submodules, so a star import leaves a caller's own ``grid`` alone.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
