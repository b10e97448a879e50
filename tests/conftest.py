"""Shared fixtures (the canonical problems, their slow solved states, an FFT call counter), the Hypothesis profile, a dense multiplier matrix and an assumptions-record lookup.

The solve fixtures are session-scoped because several files assert against
the same converged run; everything downstream treats them as read-only.

The solvers' last bits follow the BLAS thread count (the np.vdot
reductions of grid._dot in every MINRES solve) and, on the 1-D even half,
LAPACK: the inverse of K, computed once per problem, behind each gradient
and each Newton step's preconditioner.  The exact solver pins were
recorded on one thread.  BLAS reads its thread count once, when NumPy
loads, so this file pins it before that and stops the session if NumPy is
already loaded (a -p plugin that imports it first, say): the pins would
then fail on their last bits for a reason that is not in the code under
test.
"""

import os
import sys

import pytest

if "numpy" in sys.modules:
    pytest.exit("numpy was imported before tests/conftest.py could pin BLAS to one thread, "
                "so the exact solver pins would not hold; run without the plugin or option "
                "that imports it first", returncode=4)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from collections import Counter  # noqa: E402

from hypothesis import settings  # noqa: E402

# Every property test draws the same examples on every run and machine, so a
# failure reproduces and a pass does not hinge on a lucky draw; the per-test
# @settings decorators inherit this profile.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

import numpy as np  # noqa: E402

from besselmp import (
    ball_min_solve,
    canonical_coercive_spec,
    canonical_well_spec,
    mountain_pass_solve,
    probe_geometry,
    two_solution_experiment,
)
from besselmp.grid import _multiply  # noqa: E402


def full_freq_sq(g):
    """|xi|^2 on a Grid's full frequency lattice, FFT layout, built from ``np.fft.fftfreq``."""
    f = (2.0 * np.pi) * np.fft.fftfreq(g.n, d=g.spacing)
    return sum(np.meshgrid(*(f**2,) * g.dim, indexing="ij", sparse=True))


def multiplier_matrix(g, s):
    """The dense matrix of ``_multiply(g, ., s)`` on raveled fields: column j is unit field j's image.

    All unit fields go through the kernel as one stack, so the temporaries
    hold a few matrices; the tests call it on grids of at most 1,024 points.
    """
    units = np.eye(g.total_points).reshape((g.total_points,) + g.shape)
    return _multiply(g, units, s).reshape(g.total_points, g.total_points).T


def hypothesis_entry(record, name):
    """The entry ``name`` of an assumptions record's ``data["checks"]``."""
    (entry,) = [c for c in record.data["checks"] if c["name"] == name]
    return entry


@pytest.fixture(scope="session")
def coercive_spec():
    return canonical_coercive_spec()


@pytest.fixture(scope="session")
def well_spec():
    return canonical_well_spec()


@pytest.fixture(scope="session")
def coercive_probe(coercive_spec):
    return probe_geometry(coercive_spec)


@pytest.fixture(scope="session")
def coercive_mp(coercive_spec, coercive_probe):
    return mountain_pass_solve(coercive_spec, coercive_probe.e,
                               probe=coercive_probe)


@pytest.fixture(scope="session")
def coercive_ball(coercive_spec, coercive_probe):
    return ball_min_solve(coercive_spec, coercive_probe.rho)


@pytest.fixture(scope="session")
def well_result(well_spec):
    return two_solution_experiment(well_spec)


@pytest.fixture
def fft_calls(monkeypatch):
    """Calls of grid's transform entry points, forward ``_rfft`` and inverse ``_irfft``.

    Every array kernel transforms through them (``test_no_kernel_calls_the_nd_wrappers``);
    uncalled names are absent.
    """
    import besselmp.grid

    calls = Counter()
    for name in ("_rfft", "_irfft"):
        def counted(*args, _name=name, _fn=getattr(besselmp.grid, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(besselmp.grid, name, counted)
    return calls
