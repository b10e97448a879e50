"""Shared fixtures: the canonical problems and their (slow) solved states.

The solve fixtures are session-scoped because several files assert against
the same converged run; everything downstream treats them as read-only.

The dense Newton solve's last bits follow the BLAS thread count, so the
suite pins BLAS to one thread before NumPy loads (pytest imports this file
first); the exact solver pins hold whatever the environment sets.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from besselmp import (
    ball_min_solve,
    canonical_coercive_spec,
    canonical_well_spec,
    mountain_pass_solve,
    probe_geometry,
    two_solution_experiment,
)


@pytest.fixture(scope="session")
def coercive_spec():
    return canonical_coercive_spec()


@pytest.fixture(scope="session")
def well_spec():
    return canonical_well_spec()


@pytest.fixture(scope="session")
def coercive_probe(coercive_spec):
    return probe_geometry(coercive_spec, seed=0)


@pytest.fixture(scope="session")
def coercive_mp(coercive_spec, coercive_probe):
    return mountain_pass_solve(coercive_spec, coercive_probe.e,
                               probe=coercive_probe, seed=0)


@pytest.fixture(scope="session")
def coercive_ball(coercive_spec, coercive_probe):
    return ball_min_solve(coercive_spec, coercive_probe.rho)


@pytest.fixture(scope="session")
def well_result(well_spec):
    return two_solution_experiment(well_spec, seed=0)
