"""Ten headline guarantees, each with a wall-clock budget.

Every test prints one `[PASS] i/10 ...` line (run with -s to see them);
a missing line means the corresponding guarantee failed.
"""

import time

import numpy as np
import pytest

from besselmp import (
    Field,
    Grid,
    apply_multiplier,
    canonical_coercive_spec,
    check_splitting,
    check_sublevel_l2_bound,
    check_superquadratic_tail,
    energy,
    holder_estimate,
    lp_norm,
    mountain_pass_solve,
    probe_geometry,
    random_field,
    residual,
    two_solution_experiment,
)
from besselmp.kernels import bessel_kernel, pointwise_apply
from besselmp.problem import canonical_well_spec


def _stamp(index, budget, t0, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label}: {elapsed:.1f}s over the {budget}s budget"
    print(f"\n[PASS] {index}/10 {label} ({elapsed:.1f}s)")


def test_01_multiplier_exact_on_plane_waves():
    t0 = time.perf_counter()
    for dim, wave in ((1, (3,)), (2, (3, 2))):
        g = Grid(dim, 64, 10.0)
        phase = sum(2.0 * np.pi * k / g.box_length * x
                    for k, x in zip(wave, g.coords()))
        u = Field(g, np.cos(phase))
        eig = (1.0 + sum((2.0 * np.pi * k / g.box_length) ** 2
                         for k in wave)) ** 0.75
        got = apply_multiplier(u, 0.75)
        assert np.max(np.abs(got.values - eig * u.values)) <= 1e-12 * eig
    _stamp(1, 1.0, t0, "fractional multiplier is exact on plane waves")


def test_02_kernel_matches_exponential_closed_form():
    t0 = time.perf_counter()
    for r in np.linspace(0.25, 4.0, 16):
        exact = 0.5 * np.exp(-r)
        assert bessel_kernel(float(r), 2.0, 1).value == pytest.approx(exact, rel=1e-6)
    _stamp(2, 5.0, t0, "order-2 kernel matches exp(-r)/2 to 1e-6")


def test_03_pointwise_route_matches_spectral_route():
    # every grid point with |x| <= 5, 195 evaluations; the worst measured
    # errors are 1.44e-9, 8.72e-12 and 1.89e-7 of the peak
    t0 = time.perf_counter()
    g = Grid(1, 256, 40.0)
    u = Field(g, np.exp(-g.axis_coords**2))
    probe_idx = np.nonzero(np.abs(g.axis_coords) <= 5.0)[0]
    for alpha in (0.25, 0.5, 0.75):
        target = apply_multiplier(u, alpha)
        scale = np.max(np.abs(target.values))
        for i in probe_idx:
            got = pointwise_apply(u, float(g.axis_coords[i]), alpha)
            assert abs(got - target.values[i]) <= 1e-6 * scale
    _stamp(3, 30.0, t0, "real-space kernel route matches the spectral route to 1e-6")


def test_04_residual_is_the_energy_gradient(coercive_spec):
    t0 = time.perf_counter()
    g = coercive_spec.grid
    h = 1e-4
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = random_field(g, rng, envelope_sigma=3.0)
        v = random_field(g, rng, envelope_sigma=3.0)
        u = u * (1.0 / lp_norm(u, 2))
        v = v * (1.0 / lp_norm(v, 2))
        pair = float(np.sum(residual(coercive_spec, u).values * v.values)
                     * g.cell_volume)
        fd = (energy(coercive_spec, u + h * v).total
              - energy(coercive_spec, u - h * v).total) / (2.0 * h)
        assert fd == pytest.approx(pair, rel=1e-6)
    _stamp(4, 10.0, t0, "residual pairs as the finite-difference gradient")


def test_05_saddle_above_sphere_floor(coercive_spec):
    t0 = time.perf_counter()
    probe = probe_geometry(coercive_spec)
    assert probe.eta > 0.0
    assert energy(coercive_spec, probe.e).total < 0.0
    mp = mountain_pass_solve(coercive_spec, probe.e, probe=probe)
    assert mp.ok
    assert lp_norm(residual(coercive_spec, mp.solution), 2) <= 1e-8
    assert mp.energy > probe.eta
    _stamp(5, 60.0, t0, "saddle converges above the certified sphere floor")


def test_06_steep_well_yields_two_distinct_solutions():
    t0 = time.perf_counter()
    spec = canonical_well_spec()
    result = two_solution_experiment(spec)
    assert result.success
    assert result.mountain_pass.solution.grid is spec.grid
    assert result.local_min.energy < 0.0 < result.mountain_pass.energy
    assert result.distinctness > 1e-3
    _stamp(6, 300.0, t0, "steep well yields a negative/positive pair")


def test_07_superquadratic_tail_threshold(coercive_spec):
    t0 = time.perf_counter()
    rec = check_superquadratic_tail(coercive_spec, tau=1.5)
    assert rec.passed
    assert rec.data["threshold"] == pytest.approx(4.0, rel=0.01)
    _stamp(7, 1.0, t0, "quartic tail dominates beyond amplitude 4")


def test_08_sublevel_l2_bound_holds(well_spec):
    t0 = time.perf_counter()
    rec = check_sublevel_l2_bound(well_spec, b=10.0)
    assert rec.passed
    assert rec.data["sharp_lower"] <= rec.data["sharp_upper"] < rec.data["constant"]
    _stamp(8, 10.0, t0, "sublevel L2 mass bound brackets its sharp constant below 1/(lam b)")


def test_09_far_translates_decouple(coercive_spec):
    t0 = time.perf_counter()
    g = coercive_spec.grid
    u0 = Field(g, np.exp(-g.axis_coords**2))
    w = Field(g, 0.8 * np.exp(-1.3 * g.axis_coords**2))
    rec = check_splitting(coercive_spec, u0, w, separations=(2, 4, 6, 8, 10, 12, 15))
    assert rec.passed
    totals = [row["total"] for row in rec.data["rows"]]
    tail = totals[1:]  # the bumps overlap at separation 2
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert totals[-1] < 1e-3
    _stamp(9, 30.0, t0, "energy splits additively for far-apart bumps")


def test_10_holder_quotient_stable_under_refinement(coercive_mp):
    t0 = time.perf_counter()
    beta = 0.9 * 2.0 * 0.75
    coarse = holder_estimate(coercive_mp.solution, beta)
    assert np.isfinite(coarse) and coarse > 0.0

    spec = canonical_coercive_spec(n=512)
    probe = probe_geometry(spec)
    fine_mp = mountain_pass_solve(spec, probe.e, probe=probe)
    assert fine_mp.ok
    fine = holder_estimate(fine_mp.solution, beta)
    assert abs(fine - coarse) <= 0.05 * coarse
    _stamp(10, 120.0, t0, "Holder quotient of the saddle is grid-stable")
