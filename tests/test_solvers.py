"""Geometry probe, saddle search, ball descent, and the combined experiment."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from besselmp import (
    CustomNonlinearity,
    CustomWeight,
    Field,
    GeometryError,
    SolveOptions,
    apply_multiplier,
    assess_levels,
    ball_min_solve,
    canonical_coercive_spec,
    energy,
    lp_norm,
    mountain_pass_solve,
    probe_geometry,
    ps_diagnostics,
    residual,
    two_solution_experiment,
    two_solution_stages,
    weighted_norm_sq,
)
from besselmp import solvers
from besselmp.config import RunConfig, build_spec
from besselmp.grid import DENSE_MAX_POINTS
from besselmp.problem import _energy_rows, _residual_rows
from besselmp.solvers import (
    _armijo_step,
    _fibering_top,
    _hessian_diag,
    _mu_budget,
    _newton_direction,
    _sphere_polish,
    _sphere_samples,
)


def _norm_lam(spec, u):
    return math.sqrt(weighted_norm_sq(u, spec.V_field, spec.lam, spec.alpha))


def test_solve_options_validation():
    with pytest.raises(ValueError, match="tol: must be positive"):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError, match="max_iter: must be at least 1"):
        SolveOptions(max_iter=0)


# ---------------------------------------------------------------------------
# geometry probe


class TestProbe:
    def test_contracts(self, coercive_spec, coercive_probe):
        p = coercive_probe
        assert p.eta > 0.0
        assert energy(coercive_spec, p.e).total < 0.0
        assert p.rho < _norm_lam(coercive_spec, p.e)
        assert p.sample_count > 0
        radii = [r for r, _ in p.rho_table]
        assert radii == sorted(radii)
        # the chosen radius carries the best sampled minimum
        assert p.eta == max(m for _, m in p.rho_table)

    def test_regression_pins(self, coercive_probe):
        assert coercive_probe.rho == pytest.approx(3.8448, rel=1e-3)
        assert coercive_probe.eta == pytest.approx(3.174790, rel=1e-4)
        assert coercive_probe.mu0_estimate == pytest.approx(1.5612, rel=1e-3)

    def test_deterministic(self, coercive_spec, coercive_probe):
        again = probe_geometry(coercive_spec, seed=0)
        assert again.rho == coercive_probe.rho
        assert again.eta == coercive_probe.eta
        np.testing.assert_array_equal(again.e.values, coercive_probe.e.values)

    def test_seed_changes_samples(self, coercive_spec, coercive_probe):
        other = probe_geometry(coercive_spec, seed=1)
        # different draws, same landscape: eta moves a little, never a lot
        assert other.eta != coercive_probe.eta
        assert other.eta == pytest.approx(coercive_probe.eta, rel=0.05)

    def test_mu_budget_exceeds_configured_mu(self, coercive_spec, coercive_probe):
        assert coercive_probe.mu0_estimate > coercive_spec.mu

    def test_inflated_mu_fails_with_table(self, coercive_spec):
        greedy = replace(coercive_spec, mu=1000.0 * coercive_spec.mu)
        with pytest.raises(GeometryError, match="no sampled sphere minimum"):
            probe_geometry(greedy, seed=0)

    # Exact values recorded with the half-spectrum row kernels; scoring and
    # polishing the samples as stacks gives them to the bit as well.

    def test_exact_regression(self, coercive_probe):
        p = coercive_probe
        assert p.rho == 3.8448366189930585
        assert p.eta == 3.1747900565544374
        assert p.mu0_estimate == 1.561162634447679
        assert p.rho_table == (
            (0.12816122063310195, 0.008077617992462557),
            (0.2083406223638835, 0.02139940457945801),
            (0.3386813477005797, 0.056563305026672867),
            (0.5505650025367566, 0.14874159909970192),
            (0.8950059519849372, 0.3863553409471094),
            (1.4549338414131858, 0.9696763748904732),
            (2.3651602295991823, 2.210330518889604),
            (3.8448366189930585, 3.1747900565544374),
        )

    def test_mu_zero_budget_uses_raw_xi_integrals(self):
        p = probe_geometry(replace(canonical_coercive_spec(), mu=0.0), seed=0)
        assert p.eta == 3.194711737509186
        assert p.mu0_estimate == 1.5613792851377855

    def test_budget_zeroes_the_lowest_row(self, coercive_spec, coercive_probe):
        # Phi is linear in mu on each row, so at the budget the lowest row
        # sits at energy 0: in the budget's own algebra and when Phi is
        # evaluated afresh with mu set to the budget
        rng = np.random.Generator(np.random.Philox(0))
        u, rows = _sphere_samples(coercive_spec, coercive_probe.rho, 64, rng)
        mu0 = _mu_budget(coercive_spec, rows)
        base = rows.total + rows.xi_term
        assert 0.0 < mu0 < math.inf
        assert abs(np.min(base - (mu0 / coercive_spec.p) * rows.xi_integral)) <= 1e-14
        at_budget = _energy_rows(replace(coercive_spec, mu=mu0), u).total
        assert abs(np.min(at_budget)) <= 1e-12 * np.max(base)

    def test_budget_without_weight_is_infinite(self, coercive_spec):
        # xi = 0 on every row: no mu can pull a sphere minimum down
        flat = replace(coercive_spec, weight=CustomWeight(lambda x: np.zeros_like(x)))
        p = probe_geometry(flat, seed=0)
        assert p.eta > 0.0
        assert p.mu0_estimate == math.inf


def _probe_key(p):
    return (p.rho, p.eta, p.mu0_estimate, p.rho_table)


def test_sphere_polish_rows_move_independently(coercive_spec):
    g = coercive_spec.grid
    good = np.exp(-g.radius_sq / 4.0) * (1.0 + 0.1 * np.sin(g.axis_coords))
    rho = _norm_lam(coercive_spec, Field(g, good))
    e_good = energy(coercive_spec, Field(g, good)).total
    alone = _sphere_polish(coercive_spec, good[None], np.array([rho]), np.array([e_good]))
    assert energy(coercive_spec, Field(g, alone[0])).total < e_good
    # a row whose trials are never finite keeps halving its own step and
    # stops where it started, without changing a bit of its neighbour
    huge = np.full(g.shape, 1e100)
    with np.errstate(over="ignore", invalid="ignore"):
        both = _sphere_polish(coercive_spec, np.stack([good, huge]), np.array([rho, rho]),
                              np.array([e_good, math.inf]))
    assert np.array_equal(both[0], alone[0])
    assert np.array_equal(both[1], huge)


def test_armijo_step_accepts_projects_and_refuses(coercive_spec):
    g = coercive_spec.grid
    u = 3.0 * np.exp(-g.radius_sq / 4.0)
    e_u = float(_energy_rows(coercive_spec, u).total)
    d, slope = np.ones(g.shape), 1.0

    def scored(levels, projected=False):
        """A place that scores the k-th trial at levels[k], flagged projected or not."""
        calls = iter(levels)
        return lambda trial: (trial, next(calls), projected)

    # the first trial meeting e_u - ARMIJO_SLOPE s slope wins: this level
    # misses the target at s = 1/2 and meets it at s = 1/4
    short = e_u - solvers.ARMIJO_SLOPE * 0.25
    point, level, used, projected, trials = _armijo_step(
        coercive_spec, u, e_u, d, slope, 1.0, scored([e_u, short, short]))
    assert (level, used, projected, trials) == (short, 0.25, False, 3)
    assert np.array_equal(point, u - 0.25 * d)
    # a projected trial needs only a decrease beyond 1e-14
    out = _armijo_step(coercive_spec, u, e_u, d, slope, 1.0, scored([e_u - 2e-14], True))
    assert out[1:] == (e_u - 2e-14, 1.0, True, 1)
    # refusing every step keeps the point after BACKTRACK_TRIES trials; a
    # slope that is not positive and finite tries nothing
    out = _armijo_step(coercive_spec, u, e_u, d, slope, 1.0, scored([math.inf] * 40))
    assert out[0] is u and out[1:] == (e_u, 0.0, False, 40)
    for bad in (0.0, -1.0, math.inf, math.nan):
        out = _armijo_step(coercive_spec, u, e_u, d, bad, 1.0, scored([]))
        assert out[0] is u and out[1:] == (e_u, 0.0, False, 0)


@pytest.mark.parametrize("cfg,eta", [
    (RunConfig(dim=2, n=16, box_length=15.0), 5.674763245966703),
    (RunConfig(dim=3, n=8, box_length=10.0, q=3.0), 40.31724417660251),
], ids=["2d", "3d"])
def test_probe_in_higher_dims(cfg, eta):
    spec = build_spec(cfg)
    first = probe_geometry(spec, seed=0)
    again = probe_geometry(spec, seed=0)
    assert first.eta > 0.0
    assert first.eta == eta
    assert _probe_key(again) == _probe_key(first)
    np.testing.assert_array_equal(again.e.values, first.e.values)
    assert probe_geometry(spec, seed=1).eta != first.eta


def _heavier_weight(x):
    return 1.0 + 0.5 * np.exp(-x[0] ** 2)


# an x-dependent quartic, heavier than |u|^4/4 near x_1 = 0
HEAVIER = CustomNonlinearity(
    f_fn=lambda x, u: _heavier_weight(x) * np.sign(u) * np.abs(u) ** 3.0,
    F_fn=lambda x, u: _heavier_weight(x) * np.abs(u) ** 4.0 / 4.0, q=4.0, theta=4.0)
# reads x without depending on it, and spells the power law as
# PowerNonlinearity multiplies out its whole powers
FLAT = CustomNonlinearity(
    f_fn=lambda x, u: np.sign(u) * (np.abs(u) * (u * u)) + 0.0 * x[0],
    F_fn=lambda x, u: (u * u) * (u * u) / 4.0 + 0.0 * x[0], q=4.0, theta=4.0)


def test_probe_with_x_dependent_custom_nonlinearity():
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    plain = probe_geometry(spec, seed=0)
    p = probe_geometry(replace(spec, nonlinearity=HEAVIER), seed=0)
    assert p.eta > 0.0
    # a larger primitive lowers every sampled energy, so the ridge drops
    assert p.eta < plain.eta
    assert _probe_key(probe_geometry(replace(spec, nonlinearity=HEAVIER), seed=0)) == _probe_key(p)
    # the flat spelling reproduces the power law exactly
    assert _probe_key(probe_geometry(replace(spec, nonlinearity=FLAT), seed=0)) == _probe_key(plain)


# ---------------------------------------------------------------------------
# mountain pass


class TestMountainPass:
    def test_converged_with_certificate(self, coercive_spec, coercive_mp):
        mp = coercive_mp
        assert mp.converged and mp.ok
        assert mp.classification == "mountain_pass"
        # recompute the residual independently of the report
        assert lp_norm(residual(coercive_spec, mp.solution), 2) <= 1e-8

    def test_energy_regression(self, coercive_mp):
        assert coercive_mp.energy == pytest.approx(3.22418890, rel=1e-6)

    # Exact values recorded with the half-spectrum row kernels.  The dense
    # Newton solve's last bits can follow the BLAS thread count: these were
    # recorded on one thread, which conftest pins (on two OpenBLAS threads
    # this saddle reads the same, the canonical well's 1.4931505176211706).

    def test_exact_regression(self, coercive_mp):
        assert coercive_mp.energy == 3.2241889043092677

    def test_energy_at_least_ridge_height(self, coercive_probe, coercive_mp):
        assert coercive_mp.energy >= coercive_probe.eta

    def test_descent_trace_monotone(self, coercive_mp):
        # every accepted step lowers J, so the descent entries never rise
        levels = [t.energy for t in coercive_mp.trace if t.phase == "nehari"]
        assert levels, "no descent entries recorded"
        assert all(b <= a for a, b in zip(levels, levels[1:]))
        phases = [t.phase for t in coercive_mp.trace]
        assert phases == sorted(phases)  # the descent, then the polish

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
        assert "below the probed ridge height" in report.message
        assert report.energy == coercive_mp.energy

    def test_rejects_positive_energy_endpoint(self, coercive_spec):
        g = coercive_spec.grid
        small = Field(g, 0.1 * np.exp(-g.radius_sq))
        assert energy(coercive_spec, small).total > 0.0
        with pytest.raises(ValueError, match="negative energy"):
            mountain_pass_solve(coercive_spec, small)

    def test_ray_without_top_raises(self, coercive_spec, coercive_probe):
        # a concave term this strong keeps Phi falling along the whole ray
        with pytest.raises(ValueError, match="no local maximum"):
            mountain_pass_solve(replace(coercive_spec, mu=50.0), coercive_probe.e)

    def test_polish_falls_back_to_residual_descent(self, monkeypatch):
        # with every Newton solve refused, each polish step is a descent
        # step on the residual norm; the run stops when one finds no decrease
        spec = build_spec(RunConfig(dim=3, n=8, box_length=10.0, q=3.0))
        probe = probe_geometry(spec, seed=0)
        monkeypatch.setattr(solvers, "_newton_direction", lambda spec, u, r: None)
        report = mountain_pass_solve(spec, probe.e, probe=probe)
        norms = [t.residual_norm for t in report.trace if t.phase == "polish"]
        assert len(norms) == 17
        assert norms[0] == 2.485761781871886
        assert norms[-1] == 0.38203309348840603
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert not report.converged
        assert report.message == "residual tolerance not reached"


def _closed_form_top(spec, w):
    """The larger root of 2 quad = q F t^(q-2) + p X t^(p-2) for PowerNonlinearity.

    F and X are the f_term and xi_term of w.  The right side is convex in
    t with its minimum where q (q-2) F t^(q-p) = p (2-p) X, and at
    t = (2 quad / (q F))^(1/(q-2)) it exceeds 2 quad by p X t^(p-2), so the
    larger root lies between those two points.
    """
    quad, f_term, _, xi_term, _ = map(float, _energy_rows(spec, w))
    q, p = spec.nonlinearity.q, spec.p

    def gap(t):
        return 2.0 * quad - q * f_term * t ** (q - 2.0) - p * xi_term * t ** (p - 2.0)

    hi = (2.0 * quad / (q * f_term)) ** (1.0 / (q - 2.0))
    if xi_term == 0.0:
        return hi
    lo = (p * (2.0 - p) * xi_term / (q * (q - 2.0) * f_term)) ** (1.0 / (q - p))
    return optimize.brentq(gap, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("cfg", [
    RunConfig(), RunConfig(mu=0.0), RunConfig(q=6.0),
    RunConfig(dim=2, n=16, box_length=15.0),
    RunConfig(dim=2, n=32, box_length=20.0, potential="well", lam=100.0, mu=0.05),
], ids=["coercive", "mu0", "q6", "2d", "well-2d"])
def test_fibering_top_matches_closed_form(cfg):
    spec = build_spec(cfg)
    g = spec.grid
    # far rays (tops below t = 1, reached by halving) and near ones (doubling)
    for w in (probe_geometry(spec, seed=0).e.values, 0.01 * np.exp(-g.radius_sq),
              0.3 * np.exp(-g.radius_sq / 3.0) * (1.0 + 0.2 * g.coords()[0])):
        t, level = _fibering_top(spec, w)
        assert t == pytest.approx(_closed_form_top(spec, w), rel=1e-12, abs=0.0)
        assert level == pytest.approx(energy(spec, Field(g, t * w)).total, rel=1e-12)


def test_descent_iterates_sit_on_the_nehari_manifold(monkeypatch):
    # every accepted iterate is the top of its ray, where <r(u), u> = 0
    spec = build_spec(RunConfig(dim=2, n=32, box_length=20.0, potential="well",
                                lam=100.0, mu=0.05))
    probe = probe_geometry(spec, seed=0)
    step, accepted = solvers._armijo_step, []

    def recorded(*args):
        out = step(*args)
        if out[2] > 0.0:
            accepted.append(out[0])
        return out

    monkeypatch.setattr(solvers, "_armijo_step", recorded)
    report = mountain_pass_solve(spec, probe.e, probe=probe)
    assert report.ok and len(accepted) >= 2
    for u in accepted:
        pull = float(np.sum(_residual_rows(spec, u) * u)) * spec.grid.cell_volume
        assert abs(pull) <= 1e-12 * _norm_lam(spec, Field(spec.grid, u)) ** 2


def test_custom_nonlinearity_saddle():
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    reports = {}
    for name, nonlinearity in (("power", spec.nonlinearity), ("flat", FLAT), ("heavier", HEAVIER)):
        s = replace(spec, nonlinearity=nonlinearity)
        probe = probe_geometry(s, seed=0)
        reports[name] = mountain_pass_solve(s, probe.e, probe=probe)
        assert reports[name].ok, name
    assert reports["flat"].energy == pytest.approx(reports["power"].energy, rel=1e-12)
    # a larger primitive lowers the mountain-pass level
    assert reports["heavier"].energy < reports["power"].energy


# The Tier-1 2-D n=16 saddle search: (energy, residual_norm, step_size,
# trials) of its descent entries, recorded with the lam-norm gradient.
DESCENT_2D_TRACE = (
    (8.791369490887908, 6.465500060614259, 1.0, 1),
    (5.880558126584607, 1.366319918997802, 2.0, 1),
    (5.824959752793254, 1.044399541804895, 4.0, 0),
)


def test_descent_trace_2d_pinned():
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    report = mountain_pass_solve(spec, probe_geometry(spec, seed=0).e)
    descent = [(t.energy, t.residual_norm, t.step_size, t.trials)
               for t in report.trace if t.phase == "nehari"]
    assert descent == list(DESCENT_2D_TRACE)
    assert report.energy == 5.7335924499451965


def test_trials_count_the_trial_points(coercive_spec, coercive_probe, coercive_ball,
                                       monkeypatch):
    scored, norms = [0], [0]
    rows, norm = solvers._energy_rows, solvers._residual_norm

    def counted_rows(spec, u):
        scored[0] += u.size // spec.grid.total_points
        return rows(spec, u)

    def counted_norm(spec, u):
        norms[0] += 1
        return norm(spec, u)

    monkeypatch.setattr(solvers, "_energy_rows", counted_rows)
    monkeypatch.setattr(solvers, "_residual_norm", counted_norm)
    report = mountain_pass_solve(coercive_spec, coercive_probe.e, probe=coercive_probe)
    descent = [t.trials for t in report.trace if t.phase == "nehari"]
    polish = [t.trials for t in report.trace if t.phase == "polish"]
    # the top of the ray through e, one energy per descent trial, and the
    # energy each polish entry reports
    assert 1 + sum(descent) + len(polish) == scored[0]
    assert sum(polish) == norms[0] and polish[-1] == 0
    # the ball scores 80 scan amplitudes, then its Newton and Armijo trials
    scored[0] = 0
    ball = ball_min_solve(coercive_spec, coercive_probe.rho)
    assert ball.energy == coercive_ball.energy
    assert 80 + sum(t.trials for t in ball.trace) == scored[0]


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

    def test_energy_scale(self, coercive_ball):
        # the concave term is tiny at mu = 0.01, so the dip is shallow
        assert -1e-9 < coercive_ball.energy < 0.0

    def test_exact_regression(self, coercive_ball):
        assert coercive_ball.energy == -5.6346766946698154e-11

    def test_descent_monotone(self, coercive_ball):
        es = [t.energy for t in coercive_ball.trace]
        for a, b in zip(es, es[1:]):
            assert b <= a + 1e-12 * (1.0 + abs(a))

    def test_no_step_raises_energy_beyond_tie_tolerance(self, well_result):
        # Newton steps are accepted at Phi(trial) <= Phi(u) + 1e-12; on the
        # steep well's flat floor (Phi near -4e-9) a run of them climbs by
        # roundoff-sized amounts, and no step may climb by more
        es = [t.energy for t in well_result.local_min.trace]
        assert max(b - a for a, b in zip(es, es[1:])) <= 1e-12

    def test_small_ball_takes_projected_steps(self, coercive_spec, coercive_ball):
        # a ball smaller than the minimizer's norm pins every step to the
        # sphere; the run ends when no backtracked projected step lowers Phi
        rho = 0.9 * _norm_lam(coercive_spec, coercive_ball.solution)
        assert rho == 0.9 * 1.838701330837615e-05
        report = ball_min_solve(coercive_spec, rho)
        assert report.iterations == 4
        assert [t.energy for t in report.trace] == [
            -5.5370329305259154e-11, -5.5452297784779465e-11,
            -5.546555010759675e-11, -5.548409884025896e-11]
        assert not report.converged and not report.ok
        assert report.message == "residual tolerance not reached"
        assert _norm_lam(coercive_spec, report.solution) / rho == 1.0
        # each of the three accepted steps ends on the sphere
        for k in (1, 2, 3):
            early = ball_min_solve(coercive_spec, rho, SolveOptions(max_iter=k))
            assert early.energy == report.trace[k].energy
            assert _norm_lam(coercive_spec, early.solution) / rho == pytest.approx(1.0, abs=1e-15)

    def test_mu_zero_reports_failure(self, coercive_probe):
        flat = canonical_coercive_spec()
        flat = replace(flat, mu=0.0)
        report = ball_min_solve(flat, coercive_probe.rho)
        assert not report.ok and not report.converged
        assert "no negative energy" in report.message
        assert report.energy == 0.0

    def test_rejects_bad_radius(self, coercive_spec):
        with pytest.raises(ValueError, match="radius"):
            ball_min_solve(coercive_spec, 0.0)


# ---------------------------------------------------------------------------
# the two-solution experiment


class TestTwoSolutions:
    def test_well_succeeds(self, well_result):
        r = well_result
        assert r.success
        assert r.failed_stage is None
        assert r.local_min.energy < 0.0 < r.mountain_pass.energy
        assert r.mountain_pass.residual_norm <= 1e-8
        assert r.local_min.residual_norm <= 1e-8

    def test_well_regression_pins(self, well_result):
        assert well_result.mountain_pass.energy == pytest.approx(1.49315052, rel=1e-6)
        assert well_result.local_min.energy == pytest.approx(-9.819310e-08, rel=1e-3)
        assert well_result.distinctness == pytest.approx(1.674074, rel=1e-3)

    def test_well_exact_regression(self, well_result):
        # recorded as the coercive pins above, on one BLAS thread
        assert well_result.mountain_pass.energy == 1.4931505176211703
        assert well_result.local_min.energy == -9.819309641087939e-08
        assert well_result.distinctness == 1.6740738073597174

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
        r = two_solution_experiment(spec, seed=0)
        assert not r.success
        assert r.failed_stage.startswith("local_min")
        assert r.mountain_pass is not None and r.mountain_pass.ok
        assert r.levels["local_min_energy"] is not None


    def test_probe_failure_stops_the_pipeline(self):
        # a concave term this strong leaves every sampled sphere minimum negative
        spec = replace(canonical_coercive_spec(), mu=50.0)
        ((name, ok, error),) = two_solution_stages(spec, seed=0)
        assert name == "probe_geometry" and not ok
        assert error.startswith("GeometryError: no sampled sphere minimum is positive")

        r = two_solution_experiment(spec, seed=0)
        assert not r.success
        assert r.failed_stage == f"probe: {error}"
        assert r.probe is None and r.mountain_pass is None and r.local_min is None
        assert r.levels == {}
        assert r.distinctness == 0.0

    def test_rejected_saddle_stops_the_pipeline(self, well_spec):
        # this seed's sampled ridge height lands above the true saddle level
        stages = list(two_solution_stages(well_spec, seed=344180982))
        assert [(name, ok) for name, ok, _ in stages] == [
            ("probe_geometry", True), ("mountain_pass", False)]

        r = two_solution_experiment(well_spec, seed=344180982)
        assert not r.success
        assert r.failed_stage == ("mountain_pass: converged at energy 1.49315 "
                                  "below the probed ridge height 1.65984")
        assert r.mountain_pass.converged and not r.mountain_pass.ok
        assert r.local_min is None
        assert r.levels["local_min_energy"] is None


@pytest.mark.parametrize("cfg,saddle,minimizer", [
    (RunConfig(dim=2, n=16, box_length=15.0), 5.7335924499451965, -2.4845810771999066e-11),
    (RunConfig(dim=3, n=8, box_length=10.0, q=3.0), 42.04461206124028, -3.083582225587138e-11),
    (RunConfig(dim=2, n=32, box_length=20.0, potential="well", lam=100.0, mu=0.05),
     3.3570136804097417, -6.895796808778539e-10),
], ids=["2d", "3d", "2d-steep-well"])
def test_two_solutions_in_higher_dims(cfg, saddle, minimizer):
    # every grid takes the dense Newton route; the pins were recorded on one
    # BLAS thread, like the 1-D ones
    r = two_solution_experiment(build_spec(cfg), seed=0)
    assert r.success, r.failed_stage
    assert r.mountain_pass.energy == saddle
    assert r.local_min.energy == minimizer


def test_assess_levels_verdicts(well_result):
    probe = well_result.probe
    mp = well_result.mountain_pass
    ball = well_result.local_min

    ok, dist, failure = assess_levels(probe, mp, ball, distinct_tol=1e-3)
    assert ok and failure is None
    assert dist == well_result.distinctness

    ok, _, failure = assess_levels(probe, mp, ball, distinct_tol=10.0)
    assert not ok and "not distinct" in failure

    # feeding the minimizer in as the saddle breaks the ordering
    ok, _, failure = assess_levels(probe, ball, ball, distinct_tol=1e-3)
    assert not ok and "ordering" in failure


# ---------------------------------------------------------------------------
# Newton direction


@pytest.mark.parametrize("n,box_length,dense", [(16, 10.0, True), (64, 15.0, False)],
                         ids=["dense", "krylov"])
def test_newton_direction_2d(n, box_length, dense):
    # 16 x 16 points take the dense branch, 64 x 64 the Krylov one.  J is
    # applied as the multiplier plus the pointwise Hessian part, so the
    # check goes through neither the grid's cached matrix nor the solver.
    spec = build_spec(RunConfig(dim=2, n=n, box_length=box_length))
    g = spec.grid
    assert (g.total_points <= DENSE_MAX_POINTS) == dense
    u = 2.0 * np.exp(-g.radius_sq)
    r = residual(spec, Field(g, u)).values
    delta = _newton_direction(spec, u, r)
    assert delta is not None
    j_delta = apply_multiplier(Field(g, delta), spec.alpha).values \
        + _hessian_diag(spec, u) * delta
    assert np.linalg.norm(j_delta + r) <= 1e-8 * np.linalg.norm(r)


# ---------------------------------------------------------------------------
# bounded-sequence diagnostics


class TestPSDiagnostics:
    def test_zero_sequence(self, coercive_spec):
        zero = Field(coercive_spec.grid, np.zeros(coercive_spec.grid.shape))
        diag = ps_diagnostics(coercive_spec, [zero, zero])
        assert diag.all_ok
        assert diag.max_norm == 0.0

    def test_converged_pair_is_bounded(self, coercive_spec, coercive_mp,
                                       coercive_ball):
        diag = ps_diagnostics(coercive_spec,
                              [coercive_ball.solution, coercive_mp.solution])
        assert diag.all_ok
        assert diag.max_norm < diag.norm_bound < math.inf

    def test_blown_up_iterate_flagged(self, coercive_spec, coercive_mp):
        diag = ps_diagnostics(coercive_spec, [1e6 * coercive_mp.solution])
        assert not diag.all_ok
        assert not diag.entries[0]["ok"]
