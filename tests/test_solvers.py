"""Geometry probe, saddle search, ball descent, and the combined experiment."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.sparse.linalg import LinearOperator, minres

from besselmp import (
    Field,
    GeometryError,
    SolveOptions,
    apply_multiplier,
    assess_levels,
    ball_min_solve,
    canonical_coercive_spec,
    canonical_well_spec,
    energy,
    lp_norm,
    mountain_pass_solve,
    probe_geometry,
    random_field,
    residual,
    two_solution_experiment,
    two_solution_stages,
)
from besselmp import grid as grid_module
from besselmp import problem, solvers
from besselmp.config import RunConfig, build_spec
from besselmp.grid import (
    Grid,
    _bessel_norm_sq,
    _extend,
    _filter,
    _multiplier_matrix,
    _multiply,
    _potential,
    _restrict,
)
from besselmp.problem import _energy_parts, _residual_values
from besselmp.solvers import (
    MINRES_MAXITER,
    _armijo_step,
    _bump,
    _conjugate,
    _fibering,
    _hessian_diag,
    _minres,
    _newton_direction,
    _root,
)
from conftest import full_freq_sq, multiplier_matrix

# Most points on which a test builds the dense Hessian for its Morse index
# (8 MB at this size): the 2-D n=32 grid.
MORSE_MAX_POINTS = 1024


def _norm_lam(spec, u):
    g = spec.grid
    return math.sqrt(_bessel_norm_sq(g, u.values, spec.alpha)
                     + _potential(g, u.values, spec.V_field.values, spec.lam))


def _morse_index(spec, u):
    """The number of negative eigenvalues of the Hessian of Phi at u, built densely.

    This is the Hessian that Newton solves, with the concave term's
    |u|^(p-2) clamped off where |u| is tiny (``_hessian_diag``); the
    unclamped curvature is unbounded at the zeros of u.
    """
    g = spec.grid
    hessian = multiplier_matrix(g, spec.alpha) + np.diag(_hessian_diag(spec, u.values).ravel())
    return int(np.count_nonzero(np.linalg.eigvalsh(hessian) < 0.0))


def test_solve_options_validation():
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol: must be positive and finite"):
            SolveOptions(tol=tol)


# ---------------------------------------------------------------------------
# geometry probe


class TestProbe:
    def test_contracts(self, coercive_spec, coercive_probe):
        p = coercive_probe
        assert p.eta > 0.0
        assert energy(coercive_spec, p.e).total < 0.0
        assert p.rho < _norm_lam(coercive_spec, p.e)
        # eta is the bound's value at its own argmax
        a, b = _bound_coefficients(coercive_spec, p)
        assert p.eta == pytest.approx(_ridge(coercive_spec, a, b, p.rho), rel=1e-14)
        for r in (0.9 * p.rho, 1.1 * p.rho):
            assert _ridge(coercive_spec, a, b, r) < p.eta

    def test_regression_pins(self, coercive_probe):
        assert coercive_probe.rho == pytest.approx(1.9912, rel=1e-3)
        assert coercive_probe.eta == pytest.approx(0.984470, rel=1e-4)
        assert coercive_probe.mu_budget == pytest.approx(1.1683, rel=1e-3)

    def test_deterministic(self, coercive_spec, coercive_probe):
        again = probe_geometry(coercive_spec)
        assert _probe_key(again) == _probe_key(coercive_probe)
        np.testing.assert_array_equal(again.e.values, coercive_probe.e.values)

    def test_mu_budget_exceeds_configured_mu(self, coercive_spec, coercive_probe):
        assert coercive_probe.mu_budget > coercive_spec.mu

    def test_inflated_mu_fails_with_table(self, coercive_spec):
        # the refusal names mu, the budget and both embedding constants
        greedy = replace(coercive_spec, mu=1000.0 * coercive_spec.mu)
        with pytest.raises(GeometryError) as err:
            probe_geometry(greedy)
        assert str(err.value) == ("mu = 10 is not below the certified budget 1.1683 "
                                  "(C_inf = 0.708777, C_2 = 0.707107)")

    # Exact values of the closed-form bound on the canonical coercive problem.

    def test_exact_regression(self, coercive_probe):
        assert _probe_key(coercive_probe) == (
            1.991204589419703, 0.9844696917956949, 1.1683023676942246,
            0.7087768165603514, 0.7071067811865475)

    def test_mu_zero_budget_uses_raw_xi_integrals(self, coercive_probe):
        # the budget is a property of the weight, not of mu; at mu = 0 the
        # bound peaks at rho^(q-2) = 1/(q a) with height (1/2 - 1/q) rho^2
        p = probe_geometry(replace(canonical_coercive_spec(), mu=0.0))
        assert p.mu_budget == coercive_probe.mu_budget
        assert p.rho == 1.9952875564358654
        assert p.eta == 0.9952931082169516
        assert p.eta == pytest.approx(0.25 * p.rho**2, rel=1e-15)

    def test_budget_zeroes_the_bound(self, coercive_spec, coercive_probe):
        # just below the budget the bound's peak is barely positive; at the
        # budget it is refused
        budget = coercive_probe.mu_budget
        near = probe_geometry(replace(coercive_spec, mu=budget * (1.0 - 1e-9)))
        assert 0.0 < near.eta < 1e-8
        with pytest.raises(GeometryError, match="not below the certified budget"):
            probe_geometry(replace(coercive_spec, mu=budget))


def _probe_key(p):
    return (p.rho, p.eta, p.mu_budget, p.c_inf, p.c_2)


def _bound_coefficients(spec, probe):
    """(a, b) of l(rho) = rho^2/2 - a rho^q - mu b rho^p, from the probe's constants."""
    q, p = spec.q, spec.p
    a = probe.c_inf ** (q - 2.0) * probe.c_2**2 / q
    b = lp_norm(spec.xi_field, 2.0 / (2.0 - p)) * probe.c_2**p / p
    return a, b


def _ridge(spec, a, b, r):
    return 0.5 * r**2 - a * r**spec.q - spec.mu * b * r**spec.p


def _green(spec):
    """The grid Green's function of (I - Laplacian)^alpha + lam min V, peaked at the origin."""
    g = spec.grid
    shift = spec.lam * float(np.min(spec.V_field.values))
    values = np.fft.ifftn(1.0 / ((1.0 + full_freq_sq(g)) ** spec.alpha + shift)).real
    return np.roll(values, (g.n // 2,) * g.dim, axis=tuple(range(g.dim))), shift


@pytest.mark.parametrize("cfg", [
    RunConfig(), RunConfig(potential="well", lam=100.0, mu=0.05),
    RunConfig(dim=2, n=16, box_length=15.0),
    RunConfig(dim=3, n=8, box_length=10.0, q=3.0),
], ids=["coercive", "well", "2d", "3d"])
def test_green_function_attains_c_inf(cfg):
    # in the norm of (I - Laplacian)^alpha + m, m = lam min V, the Green's
    # function G reads |G(0)|^2 / ||G||^2 = C_inf^2, and no point reads more
    spec = build_spec(cfg)
    g = spec.grid
    values, shift = _green(spec)
    norm_sq = _bessel_norm_sq(g, values, spec.alpha) + _potential(g, values, np.ones(g.shape),
                                                                   shift)
    peak = float(np.max(np.abs(values)))
    assert peak == abs(values[(g.n // 2,) * g.dim])
    assert peak**2 / norm_sq == pytest.approx(probe_geometry(spec).c_inf ** 2, rel=1e-12, abs=0.0)


_BOUND_SPECS = {
    1: (canonical_coercive_spec(n=64, box_length=20.0),
        build_spec(RunConfig(n=64, box_length=20.0, potential="well", lam=100.0, mu=0.05))),
    2: (build_spec(RunConfig(dim=2, n=16, box_length=15.0)),),
    3: (build_spec(RunConfig(dim=3, n=8, box_length=10.0, q=3.0)),),
}


def _bound_field(spec, seed, band, mix):
    """A random band-limited field mixed with the Green's function, which
    comes within a few percent of sup |u| = C_inf ||u||_lam on the coercive grids."""
    g = spec.grid
    noise = random_field(g, np.random.default_rng(seed), band_fraction=band,
                         envelope_sigma=0.1 * g.box_length)
    green = Field(g, _green(spec)[0])
    return noise * ((1.0 - mix) / _norm_lam(spec, noise)) + green * (mix / _norm_lam(spec, green))


_BOUND_FIELDS = dict(dim=st.sampled_from([1, 2, 3]), which=st.integers(0, 1),
                     seed=st.integers(0, 2**31 - 1), band=st.floats(0.05, 1.0),
                     mix=st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=40)
@given(scale=st.floats(0.02, 3.0), **_BOUND_FIELDS)
def test_energy_dominates_the_ridge_bound(dim, which, seed, band, mix, scale):
    # Phi(u) >= l(||u||_lam) at random radii around the certified ridge
    # radius, on the fields of _bound_field
    specs = _BOUND_SPECS[dim]
    spec = specs[which % len(specs)]
    probe = probe_geometry(spec)
    a, b = _bound_coefficients(spec, probe)
    u = _bound_field(spec, seed, band, mix)
    r = scale * probe.rho
    u = u * (r / _norm_lam(spec, u))
    assert float(np.max(np.abs(u.values))) <= probe.c_inf * r * (1.0 + 1e-12)
    assert energy(spec, u).total >= _ridge(spec, a, b, r) - 1e-12 * (1.0 + r**2)


@settings(deadline=None, max_examples=40)
@given(**_BOUND_FIELDS)
def test_mu0_lower_is_below_every_extremal_mu(dim, which, seed, band, mix):
    # the probe's constants bound mu(w)'s t^q and t^p coefficients, so its
    # lower end of mu_0 = inf_w mu(w) lies below mu(w) on every field
    specs = _BOUND_SPECS[dim]
    spec = specs[which % len(specs)]
    w = _bound_field(spec, seed, band, mix).values
    assert probe_geometry(spec).mu0_lower <= solvers._extremal_mu(spec, w)


def test_mu0_lower_is_below_the_solutions_extremal_mu(coercive_spec, coercive_probe, coercive_mp,
                                                      coercive_ball, well_spec, well_result):
    # (2/p) (2/q)^((2-p)/(q-2)) times the budget: 1.121 times at p = 1.5, q = 4
    assert coercive_probe.mu0_lower == pytest.approx(1.121195 * coercive_probe.mu_budget,
                                                     rel=1e-6)
    for spec, probe, reports in ((coercive_spec, coercive_probe, (coercive_mp, coercive_ball)),
                                 (well_spec, well_result.probe,
                                  (well_result.mountain_pass, well_result.local_min))):
        for report in reports:
            assert probe.mu0_lower <= solvers._extremal_mu(spec, report.solution.values)


def test_far_endpoint_inside_the_ridge_is_refused(coercive_spec, coercive_probe, monkeypatch):
    # a bump this small already has negative energy, inside the sphere
    monkeypatch.setattr(solvers, "_bump", lambda spec: 1e-6 * np.exp(-spec.grid.radius_sq))
    with pytest.raises(GeometryError) as err:
        probe_geometry(coercive_spec)
    assert str(err.value) == ("the far endpoint has ||e||_lam = 1.89868e-06, not beyond "
                              f"the certified ridge radius rho = {coercive_probe.rho:.6g}")


def test_armijo_step_accepts_and_refuses(coercive_spec):
    g = coercive_spec.grid
    u = 3.0 * np.exp(-g.radius_sq / 4.0)
    e_u = _energy_parts(coercive_spec, u).total
    d, slope = np.ones(g.shape), 1.0

    def scored(levels):
        """A place that scores the k-th trial at levels[k]."""
        calls = iter(levels)
        return lambda trial: (trial, next(calls))

    # the first trial meeting e_u - ARMIJO_SLOPE s slope wins: this level
    # misses the target at s = 1/2 and meets it at s = 1/4
    short = e_u - solvers.ARMIJO_SLOPE * 0.25
    point, level, used, trials = _armijo_step(u, e_u, d, slope, 1.0, scored([e_u, short, short]))
    assert (level, used, trials) == (short, 0.25, 3)
    assert np.array_equal(point, u - 0.25 * d)
    # refusing every step keeps the point after BACKTRACK_TRIES trials; a
    # slope that is not positive and finite tries nothing
    out = _armijo_step(u, e_u, d, slope, 1.0, scored([math.inf] * 40))
    assert out[0] is u and out[1:] == (e_u, 0.0, 40)
    for bad in (0.0, -1.0, math.inf, math.nan):
        out = _armijo_step(u, e_u, d, bad, 1.0, scored([]))
        assert out[0] is u and out[1:] == (e_u, 0.0, 0)


@pytest.mark.parametrize("cfg,eta", [
    (RunConfig(dim=2, n=16, box_length=15.0), 2.163928235311212),
    (RunConfig(dim=3, n=8, box_length=10.0, q=3.0), 6.35323845956531),
], ids=["2d", "3d"])
def test_probe_in_higher_dims(cfg, eta):
    spec = build_spec(cfg)
    first = probe_geometry(spec)
    again = probe_geometry(spec)
    assert first.eta == eta
    assert _probe_key(again) == _probe_key(first)
    np.testing.assert_array_equal(again.e.values, first.e.values)


# ---------------------------------------------------------------------------
# mountain pass


PLANE_2D = RunConfig(dim=2, n=48, box_length=15.0)
# the 2-D steep well: its saddle search takes a conjugate step (beta > 0),
# where the plane's descent takes gradient steps only
STEEP_WELL_2D = RunConfig(dim=2, n=64, box_length=20.0, potential="well", lam=100.0, mu=0.05)


def _saddle(cfg):
    spec = build_spec(cfg)
    probe = probe_geometry(spec)
    return mountain_pass_solve(spec, probe.e, probe=probe)


@pytest.fixture(scope="module")
def plane_mp():
    return _saddle(PLANE_2D)


@pytest.fixture(scope="module")
def steep_well_mp():
    return _saddle(STEEP_WELL_2D)


class TestMountainPass:
    def test_converged_with_certificate(self, coercive_spec, coercive_mp):
        mp = coercive_mp
        assert mp.converged and mp.ok
        assert mp.classification == "mountain_pass"
        # recompute the residual independently of the report
        assert lp_norm(residual(coercive_spec, mp.solution), 2) <= 1e-8
        assert _morse_index(coercive_spec, mp.solution) == 1

    def test_energy_regression(self, coercive_mp):
        assert coercive_mp.energy == pytest.approx(3.22418890, rel=1e-6)

    # Exact values recorded with the half-spectrum kernels, the closed-form
    # fibering, and on the 1-D half grid the dense (I - Laplacian)^alpha for
    # every image and norm and Newton MINRES preconditioned by K^{-1} (by
    # the shifted symbol elsewhere).  MINRES's reductions
    # can follow the BLAS thread count: these were recorded on one thread,
    # which conftest pins.

    def test_exact_regression(self, coercive_mp):
        assert coercive_mp.energy == 3.224188904309267

    def test_energy_at_least_ridge_height(self, coercive_probe, coercive_mp):
        assert coercive_mp.energy >= coercive_probe.eta

    def test_descent_trace_monotone(self, coercive_mp, plane_mp, steep_well_mp):
        # every accepted step lowers J, so the descent entries never rise;
        # the 2-D steep well's descent steps along a conjugate direction too
        for report in (coercive_mp, plane_mp, steep_well_mp):
            levels = [t.energy for t in report.trace if t.phase == "nehari"]
            assert levels, "no descent entries recorded"
            assert all(b <= a for a, b in zip(levels, levels[1:]))
            phases = [t.phase for t in report.trace]
            assert phases == sorted(phases)  # the descent, then the polish
        assert any(t.beta > 0.0 for t in steep_well_mp.trace)

    def test_deterministic(self, coercive_spec, coercive_probe, coercive_mp):
        again = mountain_pass_solve(coercive_spec, coercive_probe.e,
                                    probe=coercive_probe)
        assert again.energy == coercive_mp.energy
        np.testing.assert_array_equal(again.solution.values,
                                      coercive_mp.solution.values)

    def test_saddle_below_ridge_height_rejected(self, coercive_spec, coercive_probe,
                                                coercive_mp):
        high = replace(coercive_probe, eta=1.1 * coercive_mp.energy)
        report = mountain_pass_solve(coercive_spec, coercive_probe.e, probe=high)
        assert report.converged and not report.ok
        assert report.message.startswith("converged at energy")
        assert "not above the ridge height" in report.message
        assert report.energy == coercive_mp.energy

    def test_rejects_positive_energy_endpoint(self, coercive_spec):
        g = coercive_spec.grid
        small = Field(g, 0.1 * np.exp(-g.radius_sq))
        assert energy(coercive_spec, small).total > 0.0
        with pytest.raises(ValueError, match="negative energy"):
            mountain_pass_solve(coercive_spec, small)

    @pytest.mark.parametrize("n,box", [(128, 40.0), (512, 40.0), (256, 20.0)],
                             ids=["coarser-n", "finer-n", "other-box"])
    def test_rejects_endpoint_on_another_grid(self, coercive_spec, n, box):
        # the grid is checked before anything reads e's values: another n
        # once failed inside the even-subspace test with an IndexError or a
        # NumPy broadcast error
        g = Grid(1, n, box)
        e = Field(g, 10.0 * np.exp(-g.radius_sq))
        with pytest.raises(ValueError, match="^field grid does not match problem grid$"):
            mountain_pass_solve(coercive_spec, e)

    def test_ray_without_top_raises(self, coercive_spec, coercive_probe):
        # a concave term this strong keeps Phi falling along the whole ray
        with pytest.raises(ValueError, match="no local maximum"):
            mountain_pass_solve(replace(coercive_spec, mu=50.0), coercive_probe.e)

    def test_refused_newton_step_ends_the_polish(self, monkeypatch):
        # the polish has one step rule: with every Newton solve refused, its
        # first row takes no step (step_size 0.0) and the run ends there
        spec = build_spec(RunConfig(dim=3, n=8, box_length=10.0, q=3.0))
        probe = probe_geometry(spec)
        monkeypatch.setattr(solvers, "_newton_direction",
                            lambda spec, u, r, forcing: (None, 0, ""))
        report = mountain_pass_solve(spec, probe.e, probe=probe)
        polish = [t for t in report.trace if t.phase == "polish"]
        assert len(polish) == 1
        assert polish[0].step_size == 0.0 and polish[0].trials == 0
        # a run that did not converge is also scored on the full grid
        assert report.residual_norm == lp_norm(residual(spec, report.solution), 2)
        assert report.residual_norm == pytest.approx(polish[0].residual_norm, rel=1e-12)
        assert report.residual_norm > SolveOptions().tol
        assert report.energy == energy(spec, report.solution).total
        assert not report.converged and not report.ok
        assert report.message == "residual tolerance not reached"


def _closed_form_gap(spec, w):
    """The roots of 2 quad = q F t^(q-2) + p X t^(p-2) are the critical points of t -> Phi(t w).

    For the power law, with F and X the f_term and xi_term of w.
    Returns (gap, lo, hi): the right side is convex in t with its minimum
    at lo, where q (q-2) F t^(q-p) = p (2-p) X; at hi = (2 quad / (q
    F))^(1/(q-2)) it exceeds 2 quad by p X hi^(p-2), so the larger root,
    the top, lies between lo and hi, and the smaller, the bottom, below lo.
    """
    quad, f_term, _, xi_term, _ = _energy_parts(spec, w)
    q, p = spec.q, spec.p

    def gap(t):
        return 2.0 * quad - q * f_term * t ** (q - 2.0) - p * xi_term * t ** (p - 2.0)

    hi = (2.0 * quad / (q * f_term)) ** (1.0 / (q - 2.0))
    lo = (p * (2.0 - p) * xi_term / (q * (q - 2.0) * f_term)) ** (1.0 / (q - p))
    return gap, lo, hi


def _closed_form_top(spec, w):
    gap, lo, hi = _closed_form_gap(spec, w)
    if lo == 0.0:  # no concave term
        return hi
    return optimize.brentq(gap, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def _closed_form_bottom(spec, w):
    """The smaller root: below (p X / (2 quad))^(1/(2-p)) the concave term alone outweighs 2 quad."""
    gap, lo, _ = _closed_form_gap(spec, w)
    quad, _, _, xi_term, _ = _energy_parts(spec, w)
    floor = (spec.p * xi_term / (2.0 * quad)) ** (1.0 / (2.0 - spec.p))
    return optimize.brentq(gap, floor, lo, xtol=1e-300, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("cfg", [
    RunConfig(), RunConfig(mu=0.0), RunConfig(q=6.0),
    RunConfig(dim=2, n=16, box_length=15.0),
    RunConfig(dim=2, n=32, box_length=20.0, potential="well", lam=100.0, mu=0.05),
], ids=["coercive", "mu0", "q6", "2d", "well-2d"])
def test_fibering_top_matches_closed_form(cfg):
    spec = build_spec(cfg)
    g = spec.grid
    # far rays (tops below t = 1) and near ones (above it)
    for w in (probe_geometry(spec).e.values, 0.01 * np.exp(-g.radius_sq),
              0.3 * np.exp(-g.radius_sq / 3.0) * (1.0 + 0.2 * g.coords()[0])):
        t, level = _fibering(spec, w)
        assert t == pytest.approx(_closed_form_top(spec, w), rel=1e-12, abs=0.0)
        assert level == pytest.approx(energy(spec, Field(g, t * w)).total, rel=1e-12)


@pytest.mark.parametrize("cfg", [
    RunConfig(), RunConfig(q=6.0), RunConfig(dim=2, n=16, box_length=15.0),
    RunConfig(dim=2, n=32, box_length=20.0, potential="well", lam=100.0, mu=0.05),
], ids=["coercive", "q6", "2d", "well-2d"])
def test_fibering_bottom_matches_closed_form(cfg):
    spec = build_spec(cfg)
    g = spec.grid
    # rays between the critical points (a bottom below t = 1) and below the
    # bottom (above it)
    for w in (np.exp(-g.radius_sq), 1e-8 * np.exp(-g.radius_sq / 3.0) * (1.0 + 0.2 * g.coords()[0])):
        t, level = _fibering(spec, w, bottom=True)
        assert t == pytest.approx(_closed_form_bottom(spec, w), rel=1e-12, abs=0.0)
        assert level == pytest.approx(energy(spec, Field(g, t * w)).total, rel=1e-12)
        assert level < 0.0


def test_fibering_without_a_bottom(coercive_spec):
    # with mu = 0 the ray rises from the origin: a top and no bottom
    flat = replace(coercive_spec, mu=0.0)
    w = np.exp(-coercive_spec.grid.radius_sq)
    assert math.isfinite(_fibering(flat, w)[1])
    t, level = _fibering(flat, w, bottom=True)
    assert math.isnan(t) and level == math.inf


def _mu_of_ray(spec, w):
    """mu(w) = 2 (q-2) A t*^(2-p) / ((q-p) p C), t*^(q-2) = 2 (2-p) A / (q (q-p) B).

    Phi(t w) = t^2 A - t^q B - mu t^p C, with A = ||w||_lam^2 / 2,
    B = int |w|^q / q and C = int xi |w|^p / p.
    """
    parts = _energy_parts(spec, w)
    q, p = spec.q, spec.p
    big_a, big_b, big_c = parts.quad, parts.f_term, parts.xi_integral / p
    peak = (2.0 * (2.0 - p) * big_a / (q * (q - p) * big_b)) ** (1.0 / (q - 2.0))
    return 2.0 * (q - 2.0) * big_a * peak ** (2.0 - p) / ((q - p) * p * big_c)


@pytest.mark.parametrize("make_spec,tilt,mu_w", [
    (canonical_coercive_spec, 0.0, 2.443366),
    (canonical_well_spec, 0.0, 20.89521),
    (lambda: build_spec(RunConfig(dim=2, n=16, box_length=15.0)), 0.2, None),
], ids=["coercive-bump", "well-bump", "2d-tilted"])
def test_fibering_has_both_points_exactly_below_the_extremal_mu(make_spec, tilt, mu_w):
    # a ray has a top and a bottom exactly when mu < mu(w) (Brown & Zhang,
    # 2003; Il'yasov, 2017): a relative 1e-9 either side of mu(w) decides it
    spec = make_spec()
    g = spec.grid
    w = np.exp(-g.radius_sq) * (1.0 + tilt * g.coords()[0])
    extremal = _mu_of_ray(spec, w)
    if mu_w is not None:
        assert extremal == pytest.approx(mu_w, rel=1e-6)
    assert solvers._extremal_mu(spec, w) == pytest.approx(extremal, rel=1e-14)
    below = replace(spec, mu=extremal * (1.0 - 1e-9))
    (top, j_top), (low, j_low) = (_fibering(below, w, bottom) for bottom in (False, True))
    assert 0.0 < low < top and j_low < j_top
    above = replace(spec, mu=extremal * (1.0 + 1e-9))
    for bottom in (False, True):
        t, level = _fibering(above, w, bottom)
        assert math.isnan(t) and level == math.inf


@pytest.mark.parametrize("cfg", [
    RunConfig(), RunConfig(dim=2, n=16, box_length=15.0),
    RunConfig(dim=3, n=8, box_length=10.0, alpha=0.9),  # q = 4 is subcritical at alpha 0.9
], ids=["1d", "2d", "3d"])
def test_fibering_closed_form_matches_pointwise_sums(cfg):
    # the closed form in t against sums over the grid at t w: the level is
    # the energy there, and dPhi(t w)/dt = <r(t w), w> vanishes
    spec = build_spec(cfg)
    g = spec.grid
    bump = np.exp(-g.radius_sq)
    tilted = bump * (1.0 + 0.2 * g.coords()[0])
    for w, bottom in ((probe_geometry(spec).e.values, False), (0.01 * bump, False),
                      (bump, True), (1e-8 * tilted, True)):
        t, level = _fibering(spec, w, bottom)
        u = t * w
        assert level == pytest.approx(_energy_parts(spec, u).total, rel=1e-13, abs=0.0)
        pull = float(np.sum(_residual_values(spec, u) * u)) * g.cell_volume
        assert abs(pull) <= 1e-12 * _norm_lam(spec, Field(g, u)) ** 2


def test_power_law_fibering_makes_no_pass_of_its_own(coercive_spec, coercive_probe, fft_calls,
                                                     monkeypatch):
    # |w|^q and |w|^p are taken only by the one energy evaluation of w,
    # with its forward transform, whatever Newton tries: no f = |w|^(q-2) w
    calls = Counter()
    abs_power = problem._abs_power

    def counted(u, k):
        calls[k] += 1
        return abs_power(u, k)

    monkeypatch.setattr(problem, "_abs_power", counted)
    for w, bottom in ((coercive_probe.e.values, False),
                      (np.exp(-coercive_spec.grid.radius_sq), True)):
        calls.clear()
        fft_calls.clear()
        assert math.isfinite(_fibering(coercive_spec, w, bottom)[1])
        assert calls == {coercive_spec.q: 1, coercive_spec.p: 1} and fft_calls == {"_rfft": 1}


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_fibering_is_scale_invariant(coercive_spec, coercive_probe, scale):
    # the ray through scale w is the ray through w: the same point at t / scale
    for w in (coercive_probe.e.values, np.exp(-coercive_spec.grid.radius_sq)):
        for bottom in (False, True):
            t, level = _fibering(coercive_spec, w, bottom)
            t_scaled, level_scaled = _fibering(coercive_spec, scale * w, bottom)
            assert math.isfinite(level)
            assert t_scaled == pytest.approx(t / scale, rel=1e-13, abs=0.0)
            assert level_scaled == pytest.approx(level, rel=1e-13, abs=0.0)


def test_steep_lam_bottom_far_below_one_certifies():
    # at lam = 1e6 the bump's bottom sits at t = 3.9e-15, far below 1 and
    # still a float; mu(bump) = 1.83e6
    spec = build_spec(RunConfig(potential="well", lam=1e6))
    bump = np.exp(-spec.grid.radius_sq)
    assert _fibering(spec, bump, bottom=True)[0] == pytest.approx(3.8647e-15, rel=1e-4)
    r = two_solution_experiment(spec)
    assert r.success, r.failed_stage
    assert r.mountain_pass.energy == pytest.approx(1.61175, rel=1e-5)
    assert r.local_min.energy == pytest.approx(-1.41e-10, rel=1e-2)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(2.01, 6.0), p=st.floats(1.01, 1.99), log_peak=st.floats(-3.0, 3.0),
       log_b=st.floats(-6.0, 6.0), margin=st.floats(1e-4, 1.0), has_roots=st.booleans(),
       bottom=st.booleans())
def test_root_matches_scipy_brentq(q, p, log_peak, log_b, margin, has_roots, bottom):
    # g = a - b t^(q-2) - c t^(p-2) peaks in log t at t*, where
    # b (q-2) t*^(q-2) = c (2-p) t*^(p-2), so the subtracted terms there sum
    # to b t*^(q-2) (q-p) / (2-p); a is that sum times 1 +- margin, so g is
    # positive at its peak, and has two roots, exactly when the sign is +.
    # Each root is SciPy's in s = log t to 1e-12 relative, bracketed by the
    # peak and half or twice Newton's start, where g < 0 beyond roundoff
    peak, b = 10.0**log_peak, 10.0**log_b
    c = b * (q - 2.0) * peak ** (q - p) / (2.0 - p)
    height = b * peak ** (q - 2.0) * (q - p) / (2.0 - p)
    a = height * (1.0 + margin if has_roots else 1.0 - margin)
    root = _root(a, b, c, q, p, bottom)
    if not has_roots:
        assert math.isnan(root)
        return

    def g(s):
        t = math.exp(s)
        return a - b * t ** (q - 2.0) - c * t ** (p - 2.0)

    ends = (math.log(c / a) / (2.0 - p) - math.log(2.0), math.log(peak)) if bottom else \
        (math.log(peak), math.log(a / b) / (q - 2.0) + math.log(2.0))
    expected = math.exp(optimize.brentq(g, *ends, xtol=1e-300, rtol=4 * np.finfo(float).eps))
    assert root == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_root_edge_cases():
    # c = 0: g falls from a, its one root (a/b)^(1/(q-2)) a top; a <= 0: no
    # root; a bottom below the float range reads 0.0, a top above it inf
    assert _root(2.0, 0.5, 0.0, 4.0, 1.5) == 2.0
    assert math.isnan(_root(2.0, 0.5, 0.0, 4.0, 1.5, bottom=True))
    for bottom in (False, True):
        assert math.isnan(_root(0.0, 1.0, 1.0, 4.0, 1.5, bottom))
    assert _root(1.0, 1.0, 1e-3, 4.0, 1.999, bottom=True) == 0.0
    assert _root(4.0, 1.0, 1e-3, 2.001, 1.5) == math.inf


def test_descent_iterates_sit_on_the_nehari_manifold(monkeypatch):
    # every accepted iterate is the top of its ray, where <r(u), u> = 0;
    # the descent runs on the even half, and its iterates extend to the
    # full grid's
    spec = build_spec(RunConfig(dim=2, n=32, box_length=20.0, potential="well",
                                lam=100.0, mu=0.05))
    probe = probe_geometry(spec)
    step, accepted = solvers._armijo_step, []

    def recorded(*args):
        out = step(*args)
        if out[2] > 0.0:
            accepted.append(_extend(spec.grid, out[0]))
        return out

    monkeypatch.setattr(solvers, "_armijo_step", recorded)
    report = mountain_pass_solve(spec, probe.e, probe=probe)
    assert report.ok and report.grid == "even" and len(accepted) >= 2
    for u in accepted:
        pull = float(np.sum(_residual_values(spec, u) * u)) * spec.grid.cell_volume
        assert abs(pull) <= 1e-12 * _norm_lam(spec, Field(spec.grid, u)) ** 2


def test_plane_2d_descent_counts(fft_calls):
    # the Polak-Ribiere+ directions take the 2-D plane's saddle descent in
    # 5 rows (8 along the plain gradient), and a run that evaluates each
    # point once takes 151 forward transforms (206 along the gradient, 153
    # when each polish re-scored its handover point); counts, not time, so
    # they hold on any machine
    spec = build_spec(PLANE_2D)
    r = two_solution_experiment(spec)
    assert r.success, r.failed_stage
    assert sum(t.phase == "nehari" for t in r.mountain_pass.trace) <= 5
    assert fft_calls["_rfft"] <= 151


def test_each_descent_row_computes_one_residual(coercive_spec, coercive_probe, monkeypatch):
    # the polish starts from the residual and the level J of the descent's
    # last row; each descent row records ||u||_lam of the iterate whose
    # residual it computed, each polish row 0.0; the descent runs on the
    # even half, and its iterates extend to the full grid's.  The descent
    # rows' residuals come first, then the polish trials' and the full-grid
    # re-check's (``test_trials_count_the_trial_points``)
    calls = []
    residual = solvers._residual

    def counted(spec, u):
        calls.append(_extend(coercive_spec.grid, u) if spec.grid.even else u)
        return residual(spec, u)

    monkeypatch.setattr(solvers, "_residual", counted)
    half_spec = coercive_spec.even_half
    for solve, phase in (
            (lambda: mountain_pass_solve(coercive_spec, coercive_probe.e, probe=coercive_probe),
             "nehari"),
            (lambda: ball_min_solve(coercive_spec, coercive_probe.rho), "ball")):
        calls.clear()
        report = solve()
        descent = [t for t in report.trace if t.phase == phase]
        polish = [t for t in report.trace if t.phase == "polish"]
        assert report.ok and report.grid == "even"
        assert len(calls) == len(descent) + sum(t.trials for t in polish) + 1
        assert polish[0].energy == descent[-1].energy
        assert [t.norm_lam for t in descent] == pytest.approx(
            [_norm_lam(coercive_spec, Field(coercive_spec.grid, u))
             for u in calls[: len(descent)]], rel=1e-13)
        assert all(t.norm_lam == 0.0 for t in polish)
        # the polish scores its level on the half grid, the report on the full
        # grid, and the two differ by roundoff
        half = Field(half_spec.grid, _restrict(coercive_spec.grid, report.solution.values))
        assert report.trace[-1].energy == energy(half_spec, half).total
        assert report.energy == energy(coercive_spec, report.solution).total
        assert report.energy == pytest.approx(report.trace[-1].energy, rel=1e-14)


def test_conjugate_direction_and_its_restart(coercive_spec):
    g = coercive_spec.grid
    vol = g.cell_volume
    r = np.exp(-g.radius_sq)
    grad = 2.0 * r
    slope = float(np.sum(r * grad)) * vol
    # no previous row: the gradient, as it stands
    d, d_slope, beta = _conjugate(coercive_spec, r, grad, slope, None)
    assert d is grad and (d_slope, beta) == (slope, 0.0)
    # beta = <r, grad - g_prev> / slope_prev with g_prev = grad / 2: 1/2 here
    g_prev, d_prev = 0.5 * grad, 0.25 * grad
    d, d_slope, beta = _conjugate(coercive_spec, r, grad, slope, (g_prev, slope, d_prev))
    assert beta == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(d, grad + beta * d_prev, rtol=1e-15)
    assert d_slope == pytest.approx(float(np.sum(r * d)) * vol, rel=1e-12)
    # a previous direction that turns d uphill, <r, d> <= 0: restart along the gradient
    d, d_slope, beta = _conjugate(coercive_spec, r, grad, slope, (g_prev, slope, -4.0 * grad))
    assert d is grad and (d_slope, beta) == (slope, 0.0)
    # a negative Polak-Ribiere weight is clamped to 0 (PR+)
    d, d_slope, beta = _conjugate(coercive_spec, r, grad, slope, (2.0 * grad, slope, d_prev))
    assert d is grad and (d_slope, beta) == (slope, 0.0)


def test_refused_conjugate_search_hands_over(monkeypatch):
    # a row makes one line search: with every search along a conjugate
    # direction refused, the first row that tries one records its beta > 0
    # and its one refused trial, and the next row is the polish's; the 2-D
    # steep well's saddle search is one that tries a conjugate step
    spec = build_spec(STEEP_WELL_2D)
    probe = probe_geometry(spec)
    gradients, calls = [], []
    riesz, step = solvers._riesz_gradient, solvers._armijo_step

    def recorded_riesz(spec, r):
        out = riesz(spec, r)
        gradients.append(out[0])
        return out

    def refuse_conjugate(u, e_u, d, slope, s, place):
        conjugate = d is not gradients[-1]
        calls.append(conjugate)
        return (u, e_u, 0.0, 1) if conjugate else step(u, e_u, d, slope, s, place)

    monkeypatch.setattr(solvers, "_riesz_gradient", recorded_riesz)
    monkeypatch.setattr(solvers, "_armijo_step", refuse_conjugate)
    report = mountain_pass_solve(spec, probe.e, probe=probe)
    assert calls[-1] and not any(calls[:-1]), "no conjugate direction was tried"
    descent = [t for t in report.trace if t.phase == "nehari"]
    assert len(descent) == len(calls)
    assert all(t.beta == 0.0 for t in descent[:-1])
    assert descent[-1].beta > 0.0 and descent[-1].trials == 1
    assert report.trace[len(descent)].phase == "polish"


# The Tier-1 2-D n=16 saddle search: (energy, residual_norm, step_size,
# trials) of its descent entries, recorded with the scaled-and-shifted
# gradient M_c r.
DESCENT_2D_TRACE = (
    (8.791369490887902, 6.46550006061426, 1.0, 1),
    (6.552001598017935, 3.225673221209564, 2.0, 1),
    (5.7367234337165725, 0.18372366136522947, 4.0, 0),
)


def test_descent_trace_2d_pinned():
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    report = mountain_pass_solve(spec, probe_geometry(spec).e)
    descent = [(t.energy, t.residual_norm, t.step_size, t.trials)
               for t in report.trace if t.phase == "nehari"]
    assert descent == list(DESCENT_2D_TRACE)
    assert report.energy == 5.733592449945197


def test_trials_count_the_trial_points(coercive_spec, coercive_probe, coercive_ball,
                                       monkeypatch):
    scored, residuals = [0], [0]
    parts, residual = solvers._energy_parts, solvers._residual

    def counted_parts(spec, u, bessel=None):
        scored[0] += 1
        return parts(spec, u, bessel)

    def counted_residual(spec, u):
        residuals[0] += 1
        return residual(spec, u)

    monkeypatch.setattr(solvers, "_energy_parts", counted_parts)
    monkeypatch.setattr(solvers, "_residual", counted_residual)
    # each solver scores the critical point of its first ray, one energy
    # per descent trial, and the point of each accepted Newton step; the
    # first polish entry reports the descent's level, scored by no one; a
    # solve on the even half scores its extended solution's energy once on
    # the full grid, with the residual from the same transform pair.  One
    # residual per descent row, per polish trial and for that re-check
    for solve, phase, again in (
            (lambda: mountain_pass_solve(coercive_spec, coercive_probe.e, probe=coercive_probe),
             "nehari", None),
            (lambda: ball_min_solve(coercive_spec, coercive_probe.rho), "ball", coercive_ball)):
        scored[0] = residuals[0] = 0
        report = solve()
        descent = [t.trials for t in report.trace if t.phase == phase]
        polish = [t.trials for t in report.trace if t.phase == "polish"]
        accepted = sum(t.step_size > 0.0 for t in report.trace if t.phase == "polish")
        assert 2 + sum(descent) + accepted == scored[0] and accepted == len(polish) - 1
        assert report.grid == "even" and polish[-1] == 0
        assert len(descent) + sum(polish) + 1 == residuals[0]
        assert again is None or report.energy == again.energy


def test_iterations_count_the_trace_rows(coercive_mp, coercive_ball, well_result):
    # a report's iterations are its trace rows, each row's iteration its
    # index, on the even half and on the full grid of a 1-D n above
    # EVEN_1D_MAX_N alike
    full = two_solution_experiment(canonical_coercive_spec(n=512))
    assert full.success and full.mountain_pass.grid_reason == "dim 1, n above 416"
    for report in (coercive_mp, coercive_ball, well_result.mountain_pass, well_result.local_min,
                   full.mountain_pass, full.local_min):
        assert report.iterations == len(report.trace) > 0
        assert [t.iteration for t in report.trace] == list(range(len(report.trace)))


# ---------------------------------------------------------------------------
# ball minimization


class TestBallMin:
    def test_converged_negative_interior(self, coercive_spec, coercive_probe,
                                         coercive_ball):
        ball = coercive_ball
        assert ball.converged and ball.ok
        assert ball.classification == "local_min"
        assert ball.energy < 0.0
        assert lp_norm(residual(coercive_spec, ball.solution), 2) <= 1e-8
        # strictly inside the ball, not pinned to its boundary
        assert _norm_lam(coercive_spec, ball.solution) <= 0.98 * coercive_probe.rho
        assert _morse_index(coercive_spec, ball.solution) == 0

    def test_energy_scale(self, coercive_ball):
        # the concave term is tiny at mu = 0.01, so the dip is shallow
        assert -1e-9 < coercive_ball.energy < 0.0

    def test_exact_regression(self, coercive_ball):
        assert coercive_ball.energy == -5.634676503500934e-11

    def test_descent_monotone(self, coercive_ball, well_result):
        # every accepted step lowers J-, so the descent entries never rise
        for ball in (coercive_ball, well_result.local_min):
            levels = [t.energy for t in ball.trace if t.phase == "ball"]
            assert levels, "no descent entries recorded"
            assert all(b <= a for a, b in zip(levels, levels[1:]))
            phases = [t.phase for t in ball.trace]
            assert phases == sorted(phases)  # the descent, then the polish

    def test_no_step_raises_energy_beyond_tie_tolerance(self, well_result):
        # the Newton polish accepts steps on the residual, not on Phi; at the
        # steep well's minimizer (Phi near -1e-7) it may climb by roundoff-sized
        # amounts, and no step of the descent or the polish may climb by more
        es = [t.energy for t in well_result.local_min.trace]
        assert max(b - a for a, b in zip(es, es[1:])) <= 1e-12

    def test_result_does_not_depend_on_rho(self, well_spec, well_result):
        # rho only checks the minimizer: a ball of 0.01 rho still holds it
        small = ball_min_solve(well_spec, 0.01 * well_result.probe.rho)
        assert small.ok
        np.testing.assert_array_equal(small.solution.values, well_result.local_min.solution.values)
        assert small.energy == well_result.local_min.energy

    def test_small_ball_rejects_the_minimizer(self, coercive_spec, coercive_ball):
        # a ball smaller than the minimizer's norm reports the same
        # minimizer as outside, naming the radius
        rho = 0.9 * _norm_lam(coercive_spec, coercive_ball.solution)
        report = ball_min_solve(coercive_spec, rho)
        assert report.converged and not report.ok
        assert report.energy == coercive_ball.energy
        assert report.message == (f"converged at ||u||_lam = {rho / 0.9:.6g}, beyond "
                                  f"{0.98 * rho:.6g} inside the ball radius rho = {rho:.6g}")

    def test_mu_zero_reports_failure(self, coercive_spec, coercive_probe, fft_calls):
        # the zero field's residual is exactly 0, reported without a
        # transform, and the bump's ray is scored on the 1-D half grid by a
        # product with the dense (I - Laplacian)^alpha, without one either
        fft_calls.clear()
        report = ball_min_solve(replace(coercive_spec, mu=0.0), coercive_probe.rho)
        assert not report.ok and not report.converged
        assert report.message == ("no negative energy found inside the ball: "
                                  "mu = 0, so no ray has a negative bottom")
        assert report.energy == 0.0 and report.residual_norm == 0.0
        assert fft_calls == {}

    def test_mu_past_the_bump_rays_extremal_value_reports_failure(self, coercive_spec,
                                                                  coercive_probe):
        # mu > 0, but past the bump ray's extremal value mu(bump) = 2.443366
        # its fibering map has no critical point
        spec = replace(coercive_spec, mu=2.45)
        assert math.isnan(_fibering(spec, np.exp(-spec.grid.radius_sq), bottom=True)[0])
        report = ball_min_solve(spec, coercive_probe.rho)
        assert not report.ok and not report.converged
        assert report.message == ("no negative energy found inside the ball: the bump's ray "
                                  "has no bottom, mu = 2.45 is not below its extremal value "
                                  "mu(bump) = 2.44337")
        assert report.energy == 0.0

    def test_bottom_below_the_float_range_reports_failure(self, coercive_probe):
        # at p = 1.999 the bump's bottom, near (c/a)^1000, underflows, though
        # mu is far below mu(bump); the saddle still certifies
        spec = build_spec(RunConfig(p=1.999))
        assert _fibering(spec, np.exp(-spec.grid.radius_sq), bottom=True) == (0.0, 0.0)
        report = ball_min_solve(spec, coercive_probe.rho)
        assert not report.ok and not report.converged and report.energy == 0.0
        assert report.message == ("no negative energy found inside the ball: mu = 0.01 is below "
                                  "the bump's extremal value mu(bump) = 3.50959, but its ray's "
                                  "bottom lies below the float range")
        r = two_solution_experiment(spec)
        assert r.mountain_pass.ok and r.failed_stage == "local_min: " + report.message

    def test_rejects_bad_radius(self, coercive_spec):
        with pytest.raises(ValueError, match="radius"):
            ball_min_solve(coercive_spec, 0.0)


# ---------------------------------------------------------------------------
# the two-solution experiment


class TestTwoSolutions:
    def test_well_succeeds(self, well_spec, well_result):
        r = well_result
        assert r.success
        assert r.failed_stage is None
        assert r.local_min.energy < 0.0 < r.mountain_pass.energy
        assert r.mountain_pass.residual_norm <= 1e-8
        assert r.local_min.residual_norm <= 1e-8
        assert _morse_index(well_spec, r.mountain_pass.solution) == 1
        assert _morse_index(well_spec, r.local_min.solution) == 0

    def test_well_regression_pins(self, well_result):
        assert well_result.mountain_pass.energy == pytest.approx(1.49315052, rel=1e-6)
        assert well_result.local_min.energy == pytest.approx(-9.819310e-08, rel=1e-3)
        assert well_result.distinctness == pytest.approx(1.674074, rel=1e-3)

    def test_well_exact_regression(self, well_result):
        # recorded as the coercive pins above, on one BLAS thread
        assert well_result.mountain_pass.energy == 1.493150517621171
        assert well_result.local_min.energy == -9.819309641120836e-08
        assert well_result.distinctness == 1.6740738081170974

    def test_levels_echo_reports(self, well_result):
        lv = well_result.levels
        assert lv["local_min_energy"] == well_result.local_min.energy
        assert lv["mountain_pass_energy"] == well_result.mountain_pass.energy
        assert lv["ridge_height"] == well_result.probe.eta
        assert lv["zero"] == 0.0

    def test_distinctness_is_l2_distance(self, well_result):
        d = lp_norm(well_result.mountain_pass.solution
                    - well_result.local_min.solution, 2)
        assert well_result.distinctness == d

    def test_mu_zero_fails_at_ball_stage(self):
        spec = replace(canonical_coercive_spec(), mu=0.0)
        r = two_solution_experiment(spec)
        assert not r.success
        assert r.failed_stage.startswith("local_min")
        assert r.mountain_pass is not None and r.mountain_pass.ok
        assert r.levels["local_min_energy"] is not None


    def test_probe_failure_stops_the_pipeline(self):
        # a concave term this strong is far beyond the certified budget
        spec = replace(canonical_coercive_spec(), mu=50.0)
        ((name, ok, error),) = two_solution_stages(spec)
        assert name == "probe_geometry" and not ok
        assert error.startswith("GeometryError: mu = 50 is not below the certified budget")

        r = two_solution_experiment(spec)
        assert not r.success
        assert r.failed_stage == f"probe: {error}"
        assert r.probe is None and r.mountain_pass is None and r.local_min is None
        assert r.levels == {}
        assert r.distinctness == 0.0

    def test_rejected_saddle_stops_the_pipeline(self, well_spec, monkeypatch):
        # a ridge height above the saddle level rejects the saddle
        probe = probe_geometry(well_spec)
        high = replace(probe, eta=1.6)
        monkeypatch.setattr(solvers, "probe_geometry", lambda spec: high)
        stages = list(two_solution_stages(well_spec))
        assert [(name, ok) for name, ok, _ in stages] == [
            ("probe_geometry", True), ("mountain_pass", False)]

        r = two_solution_experiment(well_spec)
        assert not r.success
        assert r.failed_stage == ("mountain_pass: converged at energy 1.49315, "
                                  "not above the ridge height 1.6")
        assert r.mountain_pass.converged and not r.mountain_pass.ok
        assert r.local_min is None
        assert r.levels["local_min_energy"] is None


@pytest.mark.parametrize("cfg,saddle,minimizer", [
    (RunConfig(dim=2, n=16, box_length=15.0), 5.733592449945197, -2.4845810712961867e-11),
    (RunConfig(dim=3, n=8, box_length=10.0, q=3.0), 42.044612061240294, -3.083582144413579e-11),
    (RunConfig(dim=2, n=32, box_length=20.0, potential="well", lam=100.0, mu=0.05),
     3.3570136804097412, -2.8471659290101438e-08),
    (RunConfig(dim=3, n=32, box_length=10.0, q=3.0), 55.07007919114881, -9.833296806524985e-12),
], ids=["2d", "3d", "2d-steep-well", "3d-n32"])
def test_two_solutions_in_higher_dims(cfg, saddle, minimizer):
    # the pins were recorded on one BLAS thread, like the 1-D ones, with
    # both solves in the even subspace.  The dense Hessian of the
    # 32,768-point grid is too large for the Morse index check.
    spec = build_spec(cfg)
    r = two_solution_experiment(spec)
    assert r.success, r.failed_stage
    assert r.mountain_pass.energy == saddle
    assert r.local_min.energy == minimizer
    if spec.grid.total_points <= MORSE_MAX_POINTS:
        assert _morse_index(spec, r.mountain_pass.solution) == 1
        assert _morse_index(spec, r.local_min.solution) == 0


def _steep_well_on_the_krylov_route(n, saddle, minimizer):
    """The 2-D steep well (box 20, lam = 100, mu = 0.05) at n x n points, pinned.

    Every Newton solve is stopped by its forcing term and none at the
    cap, and every descent entry's gradient is one product with M_c, no
    MINRES iteration and stop "scaled".  The Morse index is
    not checked: the dense Hessian at these sizes is a 4096 x 4096
    eigenproblem or larger.
    """
    spec = build_spec(RunConfig(dim=2, n=n, box_length=20.0, potential="well",
                                lam=100.0, mu=0.05))
    r = two_solution_experiment(spec)
    assert r.success, r.failed_stage
    assert r.mountain_pass.energy == saddle
    assert r.local_min.energy == minimizer
    for report in (r.mountain_pass, r.local_min):
        polish = [t for t in report.trace if t.phase == "polish"]
        assert all(0 < t.krylov_iters < MINRES_MAXITER for t in polish[:-1])
        assert all(t.krylov_stop == "forcing" for t in polish[:-1])
        assert polish[-1].krylov_iters == 0 and polish[-1].krylov_stop == ""
        # each polish row but the last accepted a Newton step, full or damped
        assert all(0.0 < t.step_size <= 1.0 for t in polish[:-1]) and polish[-1].step_size == 0.0
        assert all((t.krylov_iters, t.krylov_stop) == (0, "scaled")
                   for t in report.trace if t.phase != "polish")


def test_steep_well_on_the_krylov_route():
    # the pins were recorded on one BLAS thread, in the even subspace
    _steep_well_on_the_krylov_route(64, 3.95464085529191, -2.3381507077841337e-08)


def test_steep_well_certifies_at_n128():
    # lam V = 5,000 on the wall: the gradient's M_c sees it pointwise, the
    # Newton solves' shift only as the mean of |h|, and every Newton solve
    # still stops short of the cap here; the n=256 saddle is 4.13223520
    _steep_well_on_the_krylov_route(128, 4.1315161908374325, -2.125687791926464e-08)


def test_polish_that_leaves_its_basin_is_refused(well_spec):
    # past the fold, at mu = 1.8 on the canonical well (the probe refuses
    # it), the ball descent hands over at J- = -0.141723 and the Newton
    # polish climbs to a sign-changing critical point at -0.00113 in 10
    # rows; the saddle search from the mu = 0.05 endpoint hands over at
    # J+ = -0.137976 and lands on the same point in 11.
    # The point either seeks is at most its handover level: both refuse
    spec = replace(well_spec, mu=1.8)
    e = probe_geometry(well_spec).e
    for report, rows in ((ball_min_solve(spec, 1e9), 10), (mountain_pass_solve(spec, e), 11)):
        handover = next(t.energy for t in report.trace if t.phase == "polish")
        assert sum(t.phase == "polish" for t in report.trace) == rows
        assert report.converged and not report.ok
        assert report.energy == pytest.approx(-0.00113255, rel=1e-5) and report.energy > handover
        assert report.message == (f"converged at energy {report.energy:.6g}, above the level "
                                  f"{handover:.6g} at which the descent handed over: the polish "
                                  "left its basin")
        assert report.solution.values.min() < 0.0 < report.solution.values.max()


def test_polish_at_the_fold_stalls(well_spec):
    # at mu = 1.55 on the canonical well, near the fold, neither polish
    # reaches tol: the ball's ends after 12 rows and the saddle's after 11,
    # each on a step that no trial passes.  No solve fails: every gradient
    # on the 1-D half grid is direct, and every Newton solve meets its
    # forcing term
    spec = replace(well_spec, mu=1.55)
    e = probe_geometry(well_spec).e
    for report, rows in ((ball_min_solve(spec, 1e9), 12), (mountain_pass_solve(spec, e), 11)):
        assert report.grid == "even"
        assert report.message == "residual tolerance not reached"
        polish = [t for t in report.trace if t.phase == "polish"]
        assert len(polish) == rows and polish[-1].step_size == 0.0
        assert {(t.krylov_iters, t.krylov_stop) for t in report.trace
                if t.phase != "polish"} == {(0, "direct")}
        assert all(t.krylov_iters >= 1 and t.krylov_stop == "forcing" for t in polish)


# every (lam, mu) pair certifies with c > eta; two saddles pinned on one
# BLAS thread
SWEEP_SADDLES = {
    (200.0, 0.05): 1.5182109252113711,
    (50.0, 0.05): 1.4602836700350952,
}


@pytest.mark.parametrize("pair", [(100.0, 0.05), (100.0, 0.02), (200.0, 0.05), (50.0, 0.05),
                                  (100.0, 0.1), (150.0, 0.02)], ids=str)
def test_well_sweep_outcomes(well_spec, pair):
    lam, mu = pair
    spec = replace(well_spec, lam=lam, mu=mu)
    r = two_solution_experiment(spec)
    assert r.success, r.failed_stage
    assert r.failed_stage is None
    assert r.local_min.energy < 0.0 < r.probe.eta < r.mountain_pass.energy
    if pair in SWEEP_SADDLES:
        assert r.mountain_pass.energy == SWEEP_SADDLES[pair]
    assert _morse_index(spec, r.local_min.solution) == 0


def test_canonical_well_certifies_for_every_seed(well_result):
    # nothing in the experiment is random: every seed certifies the same pair
    for seed in range(12):
        r = two_solution_experiment(canonical_well_spec(), seed=seed)
        assert r.success, (seed, r.failed_stage)
        assert r.mountain_pass.energy == well_result.mountain_pass.energy
        assert r.local_min.energy == well_result.local_min.energy


def test_assess_levels_verdicts(well_result):
    probe = well_result.probe
    mp = well_result.mountain_pass
    ball = well_result.local_min

    ok, dist, failure = assess_levels(probe, mp, ball, distinct_tol=1e-3)
    assert ok and failure is None
    assert dist == well_result.distinctness

    ok, _, failure = assess_levels(probe, mp, ball, distinct_tol=10.0)
    assert not ok and failure == "levels: solutions are not distinct"

    # feeding the minimizer in as the saddle breaks the ordering
    ok, _, failure = assess_levels(probe, ball, ball, distinct_tol=1e-3)
    assert not ok and "ordering" in failure


# ---------------------------------------------------------------------------
# the even subspace

# m_rtol: the bound on m's relative gap.  Measured on one BLAS thread, c
# agrees to at most 8.9e-16 relative on every row, and m to at most 1.5e-11
# (the 2-D steep well at n=64), except the 1-D coercive problem at n=255:
# there m = -5.63e-11 agrees to 6.4e-9, because the half grid runs the
# dense-K^{-1} Newton route, which stops at another point within tol.
# forward_cap: the forward transforms the half-grid run makes, measured on
# one BLAS thread; a rise in them fails the row
@pytest.mark.parametrize("cfg,m_rtol,forward_cap", [
    (RunConfig(dim=2, n=16, box_length=15.0), 1e-10, 90), (PLANE_2D, 1e-10, 105),
    (STEEP_WELL_2D, 1e-10, 229),
    (RunConfig(dim=3, n=8, box_length=10.0, q=3.0), 1e-10, 80),
    (RunConfig(dim=3, n=32, box_length=10.0, q=3.0), 1e-10, 120),
    (RunConfig(dim=2, n=15, box_length=15.0), 1e-10, 69),
    (RunConfig(dim=2, n=47, box_length=15.0), 1e-10, 82),
    (RunConfig(dim=3, n=31, box_length=10.0, q=3.0), 1e-10, 101),
    (replace(STEEP_WELL_2D, n=63), 1e-10, 184),
    (RunConfig(dim=1, n=255), 1e-8, 3),
    (RunConfig(dim=1, n=255, potential="well", lam=100.0, mu=0.05), 1e-10, 3),
], ids=["2d", "plane-2d", "2d-steep-well", "3d", "3d-n32", "2d-n15", "2d-n47", "3d-n31",
        "2d-steep-well-n63", "1d-coercive-n255", "1d-well-n255"])
def test_even_subspace_agrees_with_the_full_grid(cfg, m_rtol, forward_cap, fft_calls,
                                                 monkeypatch):
    # c to 1e-14 and m to m_rtol relative against the same solves kept on
    # the full grid, for an even and an odd n; each solution's residual
    # re-checked on the full grid is the reported one, at most tol; the
    # half-grid run makes at most forward_cap forward transforms, and they
    # read fewer points than the full-grid run's
    points = [0]
    rfft = grid_module._rfft

    def counted(g, values):
        points[0] += values.size
        return rfft(g, values)

    monkeypatch.setattr(grid_module, "_rfft", counted)
    spec = build_spec(cfg)
    even = two_solution_experiment(spec)
    assert fft_calls["_rfft"] <= forward_cap
    even_points, points[0] = points[0], 0
    monkeypatch.setattr(solvers, "_subspace", lambda spec, start: (spec, start, "full", "kept"))
    full = two_solution_experiment(spec)
    assert even.success and full.success
    assert even_points < points[0]
    assert even.mountain_pass.energy == pytest.approx(full.mountain_pass.energy, rel=1e-14, abs=0)
    assert even.local_min.energy == pytest.approx(full.local_min.energy, rel=m_rtol, abs=0)
    for report in (even.mountain_pass, even.local_min):
        assert (report.grid, report.grid_reason) == ("even", "")
        rn = lp_norm(residual(spec, report.solution), 2)
        assert report.residual_norm == rn <= SolveOptions().tol
        assert report.energy == energy(spec, report.solution).total


@pytest.mark.parametrize("case,saddle", [("start is not even", 8.067966995871563)],
                         ids=["start-not-even"])
def test_full_grid_fallbacks_keep_their_results(case, saddle):
    # each solve the rule keeps on the full grid says why, and gives its
    # pinned results, to the bit; an odd n no longer falls back
    # (test_odd_n_runs_on_the_even_half)
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    e = probe_geometry(spec).e
    report = mountain_pass_solve(spec, Field(spec.grid, np.roll(e.values, 1, axis=0)))
    assert report.ok and (report.grid, report.grid_reason) == ("full", case)
    assert report.energy == saddle


def test_odd_n_runs_on_the_even_half():
    # an odd n stores x_i <= -h/2 and runs both solves there; its saddle is
    # the one the full grid gives, to the bit.  At h = 1 it is no Morse
    # index 1 point of the full grid (index 4), on either grid
    r = two_solution_experiment(build_spec(RunConfig(dim=2, n=15, box_length=15.0)))
    assert r.success, r.failed_stage
    for report in (r.mountain_pass, r.local_min):
        assert (report.grid, report.grid_reason) == ("even", "")
    assert r.mountain_pass.energy == 14.631529944143429
    assert r.local_min.energy == -1.690255736302045e-11


def test_one_dimension_runs_on_the_even_half_up_to_its_bound(coercive_mp, coercive_ball,
                                                             well_result):
    # both canonical 1-D problems (n = 256) solve on the even half; above
    # EVEN_1D_MAX_N a 1-D solve stays on the full grid, where its FFT is
    # cheaper than the DCT-I matrix, which EvenGrid refuses from n = 2048:
    # the canonical well there certifies with its pinned results, to the bit
    for report in (coercive_mp, coercive_ball, well_result.mountain_pass, well_result.local_min):
        assert (report.grid, report.grid_reason) == ("even", "")
        assert report.counts["grid"] == "even"
    bound = solvers.EVEN_1D_MAX_N
    above = f"dim 1, n above {bound}"
    for n, grid, why in ((bound, "even", ""), (bound + 2, "full", above)):
        spec = canonical_well_spec(n=n)
        assert solvers._subspace(spec, _bump(spec))[2:] == (grid, why)
    r = two_solution_experiment(canonical_well_spec(n=2048))
    assert r.success, r.failed_stage
    for report in (r.mountain_pass, r.local_min):
        assert (report.grid, report.grid_reason) == ("full", above)
    assert r.mountain_pass.energy == 1.477751566162564
    assert r.local_min.energy == -1.0098925733936096e-07


def test_full_grid_recheck_refuses_a_residual_above_tol(monkeypatch):
    # the residual a converged solve reports is recomputed on the full grid;
    # one that reads above tol there (here a solution scaled by 1 + 1e-6 on
    # its way back) is not converged
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    probe = probe_geometry(spec)
    extend = solvers._extend
    monkeypatch.setattr(solvers, "_extend", lambda g, u: (1.0 + 1e-6) * extend(g, u))
    report = mountain_pass_solve(spec, probe.e, probe=probe)
    assert report.grid == "even" and not report.converged and not report.ok
    assert report.residual_norm == lp_norm(residual(spec, report.solution), 2)
    assert report.trace[-1].residual_norm <= SolveOptions().tol < report.residual_norm
    assert report.message == "residual tolerance not reached"


# ---------------------------------------------------------------------------
# gradient solve


GRADIENT_SPECS = [canonical_well_spec, lambda: build_spec(RunConfig(dim=2, n=16, box_length=15.0)),
                  lambda: build_spec(RunConfig(dim=3, n=8, box_length=10.0, q=3.0)),
                  lambda: build_spec(STEEP_WELL_2D)]


@pytest.mark.parametrize("make_spec,half", [(m, h) for h in (False, True) for m in GRADIENT_SPECS],
                         ids=["1d-well", "2d", "3d", "2d-steep-well", "1d-well-half", "2d-half",
                              "3d-half", "2d-steep-well-half"])
def test_riesz_gradient_meets_its_tolerance(make_spec, half):
    # off the 1-D half grid the gradient is d = M_c r, M_c = D (A + c)^(-1) D
    # with A = (I - Laplacian)^alpha and D^2 = (1 + c) / (1 + c + lam V),
    # here applied through full-lattice FFTs (on a half grid to the even
    # extension of r); on the 1-D half grid d = K^{-1} r, K = A + lam V.
    # Either M is SPD, so <r, d> > 0 for every r != 0
    base = make_spec()
    spec = base.even_half if half else base
    g, full = spec.grid, base.grid
    weight = spec.lam * spec.V_field.values
    M = _scaled_shifted_preconditioner(full, base.alpha, base.lam * base.V_field.values,
                                       solvers.GRADIENT_SHIFT)
    rng = np.random.default_rng(g.dim)
    bump = _residual_values(spec, 2.0 * np.exp(-g.radius_sq))
    for r in (bump, *rng.standard_normal((3,) + g.shape)):
        d, slope, stop = solvers._riesz_gradient(spec, r)
        if half and g.dim == 1:
            assert stop == "direct"
            image = _multiply(g, d, spec.alpha) + weight * d
            assert np.linalg.norm(image - r) <= 1e-10 * np.linalg.norm(r)
        else:
            assert stop == "scaled"
            ref = _restrict(full, M(_extend(full, r))) if half else M(r)
            assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
        assert slope == solvers._integral(g, r * d) > 0.0


def test_descent_entries_count_their_gradient_solve(well_result, coercive_mp, coercive_ball):
    # every row of a canonical 1-D solve records its solve: on the even half
    # the gradient is direct, 0 MINRES iterations, and each Newton direction
    # is MINRES preconditioned by K^{-1}, stopped by its forcing term (the
    # 2-D steep-well tests read the gradient's M_c route); the polish row
    # that stops at tol solves nothing
    for report in (well_result.mountain_pass, well_result.local_min, coercive_mp, coercive_ball):
        assert report.grid == "even"
        rows = [(t.krylov_iters, t.krylov_stop) for t in report.trace if t.phase != "polish"]
        assert rows and set(rows) == {(0, "direct")}, rows
        polish = [(t.krylov_iters, t.krylov_stop) for t in report.trace if t.phase == "polish"]
        assert all(n >= 1 and stop == "forcing" for n, stop in polish[:-1]), polish
        assert polish[-1] == (0, ""), polish
        assert report.counts["newton_krylov_iters"] == sum(n for n, _ in polish) > 0


@pytest.mark.parametrize("make_spec", [canonical_coercive_spec, canonical_well_spec],
                         ids=["coercive", "well"])
def test_canonical_1d_run_transforms_nothing_on_the_half_grid(make_spec, monkeypatch):
    # every image and norm on the 1-D half grid is one product with the dense
    # (I - Laplacian)^alpha: the transforms left are the full grid's, the
    # probe's bump and the re-check of each solution
    calls = Counter()
    for name in ("_rfft", "_irfft"):
        def counted(g, values, _name=name, _fn=getattr(grid_module, name)):
            calls[_name, type(g).__name__] += 1
            return _fn(g, values)
        monkeypatch.setattr(grid_module, name, counted)
    r = two_solution_experiment(make_spec())
    assert r.success and r.mountain_pass.grid == r.local_min.grid == "even"
    assert calls == {("_rfft", "Grid"): 3, ("_irfft", "Grid"): 2}


def _canonical_at(make_spec, n):
    spec = make_spec()
    return replace(spec, grid=replace(spec.grid, n=n))


@pytest.mark.parametrize("make_spec,solves,transforms,reason", [
    (canonical_coercive_spec, ((2, 5, 16, 0), (1, 2, 3, 0)), (3, 2), ""),
    (canonical_well_spec, ((2, 4, 13, 0), (2, 3, 6, 0)), (3, 2), ""),
    (lambda: _canonical_at(canonical_coercive_spec, 255),
     ((2, 5, 16, 0), (1, 2, 3, 0)), (3, 2), ""),
    (lambda: _canonical_at(canonical_well_spec, 512),
     ((3, 6, 152, 0), (5, 3, 95, 1)), (289, 277), "dim 1, n above 416"),
    (lambda: build_spec(RunConfig(dim=2, n=48, box_length=15.0)),
     ((4, 6, 67, 0), (1, 2, 8, 0)), (105, 99), ""),
    (lambda: build_spec(STEEP_WELL_2D), ((4, 6, 129, 1), (8, 3, 40, 1)), (229, 209), ""),
    (lambda: build_spec(replace(STEEP_WELL_2D, n=128)),
     ((6, 5, 236, 1), (6, 3, 139, 3)), (435, 413), ""),
    (lambda: build_spec(RunConfig(dim=3, n=16, box_length=10.0, q=3.0)),
     ((4, 5, 52, 0), (1, 3, 17, 0)), (99, 93), ""),
    (lambda: build_spec(RunConfig(dim=3, n=32, box_length=10.0, q=3.0)),
     ((3, 7, 71, 0), (1, 3, 17, 0)), (120, 115), ""),
], ids=["coercive", "well", "coercive-255", "well-full-512", "plane_2d", "2d-steep-well",
        "2d-steep-well-128", "3d", "3d-32"])
def test_solver_work_is_pinned(make_spec, solves, transforms, reason, fft_calls):
    # (descent rows, polish rows, Newton MINRES iterations, conjugate rows)
    # of each solve, saddle then minimizer, and the run's (forward, inverse)
    # transforms on a fresh problem; in 1-D the build of the dense
    # A = (I - Laplacian)^alpha behind K^{-1} transforms nothing, so a fresh
    # half-grid run counts as a warm one, and each image and norm there is a
    # product with A: a canonical run transforms only the probe's bump and
    # the full-grid re-check of each solution.  No gradient runs a Krylov loop:
    # each is one product with K^{-1} on the 1-D half grid and with M_c
    # elsewhere.  A rise in any count is a regression of the solvers' cost
    # in that dimension
    fft_calls.clear()
    r = two_solution_experiment(make_spec())
    assert r.success, r.failed_stage
    for report, pinned in zip((r.mountain_pass, r.local_min), solves):
        c = report.counts
        rows = sum(t.phase == "polish" for t in report.trace)
        assert (c["descent_rows"], rows, c["newton_krylov_iters"],
                c["conjugate_rows"]) == pinned
        assert {t.krylov_iters for t in report.trace if t.phase != "polish"} == {0}
        assert (report.grid, report.grid_reason) == ("full" if reason else "even", reason)
    assert (fft_calls["_rfft"], fft_calls["_irfft"]) == transforms


@pytest.mark.parametrize("potential", ["quadratic", "well"])
def test_newton_minres_count_does_not_grow_with_n(potential):
    # preconditioned by K^{-1}, the Hessian is the identity minus a compact
    # part, so no polish row takes more than 6 iterations (the most measured)
    # at any n of the 1-D half grid
    base = canonical_coercive_spec() if potential == "quadratic" else canonical_well_spec()
    for n in (128, 256, 416):
        spec = replace(base, grid=replace(base.grid, n=n))
        r = two_solution_experiment(spec)
        assert r.success, (n, r.failed_stage)
        for report in (r.mountain_pass, r.local_min):
            assert report.grid == "even"
            iters = [t.krylov_iters for t in report.trace if t.phase == "polish"]
            assert iters and max(iters) <= 6, (n, iters)


def test_coarse_3d_run_on_the_default_box_raises_no_runtime_warning():
    # on the 40-wide box the iterates underflow to exactly 0 far from the
    # origin, where the concave term's curvature |u|^(p-2) is clamped off
    # without being evaluated; the suite turns every RuntimeWarning into an
    # error
    r = two_solution_experiment(build_spec(RunConfig(dim=3, n=8, q=3.0)))
    assert r.success, r.failed_stage


# ---------------------------------------------------------------------------
# Newton direction


@pytest.mark.parametrize("n,box_length,dense", [(16, 10.0, True), (64, 15.0, False)],
                         ids=["dense", "krylov"])
def test_newton_direction_2d(n, box_length, dense):
    # J is applied as the multiplier plus the pointwise Hessian part, so the
    # check does not go through the solver; on 16 x 16 points the direction
    # also matches a dense solve of J, built from unit fields
    spec = build_spec(RunConfig(dim=2, n=n, box_length=box_length))
    g = spec.grid

    def apply_j(u, v):
        return apply_multiplier(Field(g, v), spec.alpha).values + _hessian_diag(spec, u) * v

    u = 2.0 * np.exp(-g.radius_sq)
    # J is indefinite at u, so MINRES meets an indefinite system
    assert np.sum(apply_j(u, u) * u) < 0.0
    r = residual(spec, Field(g, u)).values
    delta, iters, stop = _newton_direction(spec, u, r, 1e-10)
    assert 0 < iters < MINRES_MAXITER and stop == "forcing"
    assert np.linalg.norm(apply_j(u, delta) + r) <= 1e-8 * np.linalg.norm(r)
    if dense:
        J = multiplier_matrix(g, spec.alpha) + np.diag(_hessian_diag(spec, u).ravel())
        ref = np.linalg.solve(J, -r.ravel())
        assert np.linalg.norm(delta.ravel() - ref) <= 1e-8 * np.linalg.norm(ref)


def _half_states(make_spec):
    """The even half of a canonical 1-D problem and two states there: a bump and a random field."""
    spec = make_spec()
    half = spec.even_half
    full = random_field(spec.grid, np.random.default_rng(0), envelope_sigma=2.0).values
    even = 0.5 * (full + np.roll(full[::-1], 1))  # x -> -x maps index i to n - i
    return half, {"bump": 2.0 * np.exp(-half.grid.radius_sq), "random": _restrict(spec.grid, even)}


@pytest.mark.parametrize("make_spec", [canonical_coercive_spec, canonical_well_spec],
                         ids=["coercive", "well"])
def test_half_grid_newton_direction_matches_dense_solve(make_spec):
    # on the 1-D half grid MINRES preconditioned by K^{-1}, at a forcing
    # term of 1e-13, reaches the delta of a dense solve of
    # (I - Laplacian)^alpha + diag(h) on both problems and both states
    half, states = _half_states(make_spec)
    a = _multiplier_matrix(half.grid, half.alpha)
    for name, u in states.items():
        r = _residual_values(half, u)
        h = _hessian_diag(half, u)
        delta, iters, stop = _newton_direction(half, u, r, 1e-13)
        assert stop == "forcing" and 0 < iters < MINRES_MAXITER, name
        ref = np.linalg.solve(a + np.diag(h), -r)
        assert np.linalg.norm(delta - ref) <= 1e-10 * np.linalg.norm(ref), name


@pytest.mark.parametrize("make_spec", [canonical_coercive_spec, canonical_well_spec],
                         ids=["coercive", "well"])
def test_riesz_lanczos_product_is_the_hessian(make_spec):
    # with M = K^{-1}, K = (I - Laplacian)^alpha + lam V, and v = M r2 / beta,
    # H v = r2 / beta + (h - lam V) v: the product that a Newton solve on the
    # 1-D half grid forms without a transform.  M is symmetric and positive
    # in the full grid's inner product, as MINRES needs
    half, states = _half_states(make_spec)
    g, inverse = half.grid, half._riesz_inverse
    weight = half.lam * half.V_field.values
    rng = np.random.default_rng(1)
    for name, u in states.items():
        h = _hessian_diag(half, u)
        for r2 in (_residual_values(half, u), rng.standard_normal(g.shape)):
            y = inverse @ r2
            beta = math.sqrt(solvers._dot(g, r2, y))
            v = y / beta
            free = r2 / beta + (h - weight) * v
            full = _multiply(g, v, half.alpha) + h * v
            assert np.linalg.norm(free - full) <= 1e-12 * np.linalg.norm(full), name
            x = rng.standard_normal(g.shape)
            assert solvers._dot(g, inverse @ x, r2) == pytest.approx(
                solvers._dot(g, x, y), rel=1e-12), name
            assert solvers._dot(g, inverse @ x, x) > 0.0, name


@pytest.mark.parametrize("make_spec", [canonical_coercive_spec, canonical_well_spec],
                         ids=["coercive", "well"])
def test_direct_riesz_gradient_matches_minres(make_spec):
    # K = (I - Laplacian)^alpha + lam V is inverted once per half problem,
    # and each gradient is one product with it: the d of MINRES at a forcing
    # term of 1e-13, and the slope is <r, d> of that d
    half, states = _half_states(make_spec)
    g = half.grid
    for name, u in states.items():
        r = _residual_values(half, u)
        d, slope, stop = solvers._riesz_gradient(half, r)
        assert stop == "direct", name
        ref, _, ref_stop = _minres(half, half.lam * half.V_field.values, r, 1e-13)
        assert ref_stop == "forcing", name
        assert np.linalg.norm(d - ref) <= 1e-11 * np.linalg.norm(ref), name
        assert slope == pytest.approx(solvers._integral(g, r * ref), rel=1e-12), name
    assert half._riesz_inverse is half._riesz_inverse


def test_singular_direct_solves_fail(monkeypatch):
    # on the 1-D half grid a K that LAPACK refuses is inverted once, and read
    # as a failed solve with stop "singular" by both solves: the gradient is
    # zero with slope 0, which hands the descent over to the polish, and the
    # Newton direction is None.  A Newton MINRES that hits the cap or breaks
    # down returns None too, a step the polish refuses as on every grid
    half, states = _half_states(canonical_well_spec)
    u = states["bump"]
    r = _residual_values(half, u)
    weight = half.lam * half.V_field.values
    inversions, inv = Counter(), np.linalg.inv
    with monkeypatch.context() as m:
        m.setattr(problem, "_multiplier_matrix", lambda g, s: -np.diag(weight))
        m.setattr(np.linalg, "inv", lambda a: inversions.update(["inv"]) or inv(a))
        refused = replace(half)
        for _ in range(3):
            d, slope, stop = solvers._riesz_gradient(refused, r)
            assert (slope, stop) == (0.0, "singular") and not np.any(d)
            assert _newton_direction(refused, u, r, 0.1) == (None, 0, "singular")
        assert refused._riesz_inverse is None
    assert inversions["inv"] == 1
    broken = replace(half)
    broken.__dict__["_riesz_inverse"] = -half._riesz_inverse  # not positive definite
    assert _newton_direction(broken, u, r, 0.1) == (None, 0, "breakdown")
    with monkeypatch.context() as m:
        m.setattr(solvers, "MINRES_MAXITER", 1)
        assert _newton_direction(half, u, r, 1e-13) == (None, 1, "cap")


def test_minres_refuses_an_x_that_is_not_finite():
    # a system whose solution lies past the float range: M, the identity
    # but 1e300 at the stored index i = n/2 - 1 (x = -h, inside the well,
    # where lam V = 0), stands in for K^{-1}, and h sets the Lanczos
    # product's H to M^{-1} + diag(h - lam V), whose entry i is
    # 1e-300 2^-52.  One iteration meets the forcing term with x_i about
    # 4e318, which overflows; the solve returns None and keeps the stop
    # "forcing"
    half, _ = _half_states(canonical_well_spec)
    weight = half.lam * half.V_field.values
    i = half.grid.n // 2 - 1
    dense = replace(half)
    dense.__dict__["_riesz_inverse"] = np.diag(np.where(np.arange(len(weight)) == i, 1e300, 1.0))
    h = weight.copy()
    h[i] -= (1.0 - 2.0**-52) / 1e300
    b = np.zeros_like(weight)
    b[i] = 1e3
    with np.errstate(over="ignore"):
        assert _minres(dense, h, b, 0.1) == (None, 1, "forcing")


def test_minres_gradient_that_is_not_finite_is_refused(monkeypatch):
    # a gradient d that is not finite, from either route, M_c or the 1-D
    # half grid's K^{-1}, is refused as a singular one: d = 0 with slope 0,
    # not a slope of nan
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    r = residual(spec, Field(spec.grid, 2.0 * np.exp(-spec.grid.radius_sq))).values
    with monkeypatch.context() as m:
        m.setattr(solvers, "_filter", lambda grid, v, symbol: np.full_like(v, np.inf))
        d, slope, stop = solvers._riesz_gradient(spec, r)
    assert (slope, stop) == (0.0, "singular") and not np.any(d)
    half, states = _half_states(canonical_well_spec)
    broken = replace(half)
    broken.__dict__["_riesz_inverse"] = np.full_like(half._riesz_inverse, np.inf)
    with np.errstate(invalid="ignore"):
        d, slope, stop = solvers._riesz_gradient(broken, _residual_values(half, states["bump"]))
    assert (slope, stop) == (0.0, "singular") and not np.any(d)


@pytest.mark.parametrize("cfg", [RunConfig(dim=2, n=16, box_length=15.0),
                                 RunConfig(dim=3, n=8, box_length=10.0, q=3.0)],
                         ids=["2d", "3d"])
def test_minres_breaks_down_where_beta_leaves_the_float_range(cfg):
    # at these scales beta1^2 = <b, M b> overflows to inf or reads nan; a
    # beta^2 that is not finite stops the solve with "breakdown" before
    # anything divides by it
    spec = build_spec(cfg)
    u = 2.0 * np.exp(-spec.grid.radius_sq)
    r, h = _residual_values(spec, u), _hessian_diag(spec, u)
    for scale in (1e155, 1e160):
        assert _minres(spec, h, scale * r, 0.1) == (None, 0, "breakdown"), scale


def test_capped_minres_solve_shows_in_the_trace(monkeypatch):
    # a MINRES solve stopped at the cap still reads the iterations it spent
    # (uncapped: 8-20 per Newton solve, each stopped by its forcing term, so
    # a cap of 1 caps them all); the cap is read at call time.  The descent
    # runs no MINRES, so it is untouched: its 4 rows step along M_c r.  The
    # first capped Newton solve refuses the step, which ends the polish
    spec = build_spec(PLANE_2D)
    monkeypatch.setattr(solvers, "MINRES_MAXITER", 1)
    probe = probe_geometry(spec)
    report = mountain_pass_solve(spec, probe.e, probe=probe)
    descent = [t for t in report.trace if t.phase == "nehari"]
    assert len(descent) == 4 and {(t.krylov_iters, t.krylov_stop) for t in descent} == {
        (0, "scaled")}
    polish = [t for t in report.trace if t.phase == "polish"]
    assert [t.phase for t in report.trace] == ["nehari"] * 4 + ["polish"]
    assert polish and all(t.krylov_iters == 1 and t.krylov_stop == "cap" for t in polish)
    assert polish[-1].step_size == 0.0
    assert not report.converged
    assert report.message == "residual tolerance not reached"


SMALL_GRIDS = [RunConfig(dim=1, n=64, box_length=20.0, potential="well"),
               RunConfig(dim=2, n=16, box_length=15.0),
               RunConfig(dim=3, n=8, box_length=10.0, q=3.0)]


@pytest.mark.parametrize("cfg", SMALL_GRIDS, ids=["1d", "2d", "3d"])
def test_minres_pieces_are_symmetric_with_positive_preconditioner(cfg):
    # MINRES needs H symmetric and its preconditioner, the Newton solves'
    # ((I - Laplacian)^alpha + mean |h|)^(-1), symmetric positive definite,
    # as the descent's M_c = D ((I - Laplacian)^alpha + c)^(-1) D must be,
    # and the multiplier pair must invert
    spec = build_spec(cfg)
    g, alpha = spec.grid, spec.alpha
    h = _hessian_diag(spec, 2.0 * np.exp(-g.radius_sq))
    shifted = 1.0 / (g.symbol(alpha) + np.mean(np.abs(h)))

    def H(v):
        return _multiply(g, v, alpha) + h * v

    preconditioners = (lambda v: solvers._riesz_gradient(spec, v)[0],
                       lambda v: _filter(g, v, shifted))
    rng = np.random.default_rng(cfg.dim)
    for _ in range(5):
        x, y = rng.standard_normal((2,) + g.shape)
        back = _multiply(g, _multiply(g, x, -alpha), alpha)
        assert np.linalg.norm(back - x) <= 1e-13 * np.linalg.norm(x)
        assert np.vdot(H(x), y) == pytest.approx(np.vdot(x, H(y)), rel=1e-12)
        for M in preconditioners:
            assert np.vdot(M(x), y) == pytest.approx(np.vdot(x, M(y)), rel=1e-12)
            assert np.vdot(M(x), x) > 0.0


@pytest.mark.parametrize("cfg", SMALL_GRIDS, ids=["1d", "2d", "3d"])
def test_minres_transform_pairs_per_iteration(cfg, fft_calls):
    # a Newton solve pays one transform pair for M b and one per iteration,
    # for M r2, and forms H v without a transform; a gradient off the 1-D
    # half grid is one pair, for M_c r
    spec = build_spec(cfg)
    u = 2.0 * np.exp(-spec.grid.radius_sq)
    r = residual(spec, Field(spec.grid, u)).values
    fft_calls.clear()
    _, iters, _ = _newton_direction(spec, u, r, 1e-6)
    assert iters > 0 and fft_calls == {"_rfft": iters + 1, "_irfft": iters + 1}
    fft_calls.clear()
    _, _, stop = solvers._riesz_gradient(spec, r)
    assert stop == "scaled" and fft_calls == {"_rfft": 1, "_irfft": 1}


@pytest.mark.parametrize("cfg", SMALL_GRIDS, ids=["1d", "2d", "3d"])
def test_shifted_lanczos_product_is_the_hessian(cfg):
    # with M = ((I - Laplacian)^alpha + sigma)^(-1) and v = M r2 / beta,
    # H v = r2 / beta + (h - sigma) v: the product that a Newton solve forms
    # without a transform
    spec = build_spec(cfg)
    g, alpha = spec.grid, spec.alpha
    h = _hessian_diag(spec, 2.0 * np.exp(-g.radius_sq))
    sigma = float(np.mean(np.abs(h)))
    M = _shifted_preconditioner(g, alpha, h)
    rng = np.random.default_rng(cfg.dim)
    for _ in range(5):
        r2 = rng.standard_normal(g.shape)
        y = M(r2)
        beta = math.sqrt(np.vdot(r2, y))
        v = y / beta
        free = r2 / beta + (h - sigma) * v
        full = _filter(g, v, g.symbol(alpha)) + h * v
        assert np.linalg.norm(free - full) <= 1e-12 * np.linalg.norm(full)


def _scaled_shifted_preconditioner(g, alpha, weight, c):
    """v -> D ((I - Laplacian)^alpha + c)^(-1) D v, D^2 = (1 + c) / (1 + c + weight), full FFTs."""
    scale = np.sqrt((1.0 + c) / (1.0 + c + weight))
    symbol = (1.0 + full_freq_sq(g)) ** alpha + c
    return lambda v: scale * np.fft.ifftn(np.fft.fftn(scale * v) / symbol).real


def _shifted_preconditioner(g, alpha, pointwise):
    """v -> ((I - Laplacian)^alpha + mean |pointwise|)^(-1) v, on arrays, through full-lattice FFTs."""
    symbol = (1.0 + full_freq_sq(g)) ** alpha + np.mean(np.abs(pointwise))
    return lambda v: np.fft.ifftn(np.fft.fftn(v) / symbol).real


def _krylov_system(cfg, riesz=False):
    """(spec, h, b, H, M): a Newton system at 2 exp(-|x|^2) and its operators on arrays.

    With ``riesz`` H is the symmetric positive definite
    K = (I - Laplacian)^alpha + lam V in place of the Hessian.  M is
    ``_minres``'s preconditioner.
    """
    spec = build_spec(cfg)
    g, alpha = spec.grid, spec.alpha
    u = 2.0 * np.exp(-g.radius_sq)
    h = spec.lam * spec.V_field.values if riesz else _hessian_diag(spec, u)
    b = -residual(spec, Field(g, u)).values
    return (spec, h, b, (lambda v: _multiply(g, v, alpha) + h * v),
            _shifted_preconditioner(g, alpha, h))


def _scipy_minres(g, b, H, M, iters):
    """scipy.sparse.linalg.minres on H x = b, preconditioned with M, after exactly ``iters`` steps.

    Its tolerance is out of reach, so only the iteration cap stops it.
    """
    npts = g.total_points
    ops = [LinearOperator((npts, npts), matvec=lambda v, f=f: f(v.reshape(g.shape)).ravel(),
                          dtype=float) for f in (H, M)]
    count = []
    ref, _ = minres(ops[0], b.ravel(), M=ops[1], rtol=1e-300, maxiter=iters,
                    callback=count.append)
    assert len(count) == iters
    return ref


KRYLOV_GRIDS = [RunConfig(dim=2, n=64, box_length=15.0),
                RunConfig(dim=3, n=16, box_length=10.0, q=3.0)]


@pytest.mark.parametrize("cfg", KRYLOV_GRIDS, ids=["2d", "3d"])
def test_minres_matches_scipy(cfg):
    # _minres is SciPy's recurrence with the same preconditioner: the same
    # iterate after the same number of steps, here on the positive definite K
    spec, h, b, H, M = _krylov_system(cfg, riesz=True)
    delta, iters, stop = _minres(spec, h, b, 1e-10)
    assert stop == "forcing"
    ref = _scipy_minres(spec.grid, b, H, M, iters)
    assert np.linalg.norm(delta.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("cfg", [RunConfig(potential="well", lam=100.0, mu=0.05), *KRYLOV_GRIDS],
                         ids=["1d", "2d", "3d"])
def test_shifted_minres_matches_scipy(cfg):
    # SciPy applies H with a transform pair and M independently of the
    # solver's symbols, so agreement also checks the transform-free product;
    # on the 1-D steep well the two iterates part by 3e-11 relative after
    # the 31 steps of forcing 1e-10 (2e-8 after the 25 of forcing 1e-6)
    spec, h, b, H, M = _krylov_system(cfg)
    delta, iters, stop = _minres(spec, h, b, 1e-10)
    assert stop == "forcing"
    ref = _scipy_minres(spec.grid, b, H, M, iters)
    assert np.linalg.norm(delta.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("cfg", KRYLOV_GRIDS, ids=["2d", "3d"])
@pytest.mark.parametrize("forcing", [0.1, 1e-4])
def test_minres_forcing_bounds_the_preconditioned_residual(cfg, forcing):
    # the forcing term bounds the M-norm residual, and a tighter one takes
    # more iterations
    spec, h, b, H, M = _krylov_system(cfg)
    delta, iters, stop = _minres(spec, h, b, forcing)
    assert stop == "forcing" and 0 < iters < _minres(spec, h, b, 1e-3 * forcing)[1]
    res = H(delta) - b
    assert math.sqrt(np.vdot(res, M(res))) <= forcing * math.sqrt(np.vdot(b, M(b)))


def test_minres_zero_rhs_and_breakdown(monkeypatch):
    spec, h, b, _, _ = _krylov_system(KRYLOV_GRIDS[0])
    # x = 0 solves a zero right-hand side, within any forcing term
    x, iters, stop = _minres(spec, h, np.zeros_like(b), 0.1)
    assert iters == 0 and stop == "forcing" and not np.any(x)
    # a preconditioner that is not positive definite breaks the recurrence
    monkeypatch.setattr(solvers, "_filter", lambda grid, v, symbol: -v)
    assert _minres(spec, h, b, 0.1) == (None, 0, "breakdown")
