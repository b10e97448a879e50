"""Geometry probe, saddle search, ball descent, and the combined experiment."""

import math
from dataclasses import replace

import numpy as np
import pytest

from besselmp import (
    CustomNonlinearity,
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
from besselmp.config import RunConfig, build_spec
from besselmp.grid import DENSE_MAX_POINTS
from besselmp.solvers import _hessian_diag, _newton_direction, _sphere_polish


def _norm_lam(spec, u):
    return math.sqrt(weighted_norm_sq(u, spec.V_field, spec.lam, spec.alpha))


def test_solve_options_validation():
    with pytest.raises(ValueError, match="3 nodes"):
        SolveOptions(path_nodes=2)
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
        assert p.mu0_estimate == 1.5611626344476792
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
        assert p.mu0_estimate == 1.561379285137785


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


def test_probe_with_x_dependent_custom_nonlinearity():
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    plain = probe_geometry(spec, seed=0)

    def weight(x):
        return 1.0 + 0.5 * np.exp(-x[0] ** 2)

    heavier = CustomNonlinearity(
        f_fn=lambda x, u: weight(x) * np.sign(u) * np.abs(u) ** 3.0,
        F_fn=lambda x, u: weight(x) * np.abs(u) ** 4.0 / 4.0, q=4.0, theta=4.0)
    p = probe_geometry(replace(spec, nonlinearity=heavier), seed=0)
    assert p.eta > 0.0
    # a larger primitive lowers every sampled energy, so the ridge drops
    assert p.eta < plain.eta
    assert _probe_key(probe_geometry(replace(spec, nonlinearity=heavier), seed=0)) == _probe_key(p)
    # reading x without depending on it reproduces the power law exactly,
    # spelled as PowerNonlinearity multiplies out its whole powers
    flat = CustomNonlinearity(
        f_fn=lambda x, u: np.sign(u) * (np.abs(u) * (u * u)) + 0.0 * x[0],
        F_fn=lambda x, u: (u * u) * (u * u) / 4.0 + 0.0 * x[0], q=4.0, theta=4.0)
    assert _probe_key(probe_geometry(replace(spec, nonlinearity=flat), seed=0)) == _probe_key(plain)


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
    # Newton solve's last bits follow the BLAS thread count: these were
    # recorded on one thread, which conftest pins (on two OpenBLAS threads
    # the saddle reads 3.2241889043092664).

    def test_exact_regression(self, coercive_mp):
        assert coercive_mp.energy == 3.224188904309266

    def test_energy_at_least_ridge_height(self, coercive_probe, coercive_mp):
        assert coercive_mp.energy >= coercive_probe.eta

    def test_endpoints_pinned(self, coercive_probe, coercive_mp):
        nodes = coercive_mp.path.nodes
        assert np.all(nodes[0].values == 0.0)
        np.testing.assert_array_equal(nodes[-1].values, coercive_probe.e.values)

    def test_path_trace_monotone(self, coercive_mp):
        # max-node energy can only go down while the path deforms, up to
        # line-search roundoff
        path = [t for t in coercive_mp.trace if t.phase == "path"]
        assert path, "no path-phase entries recorded"
        for a, b in zip(path, path[1:]):
            assert b.energy <= a.energy + 1e-12 * (1.0 + abs(a.energy))

    def test_trace_has_max_node_indices(self, coercive_mp):
        m = 41  # default path_nodes
        for t in coercive_mp.trace:
            if t.phase == "path":
                assert 0 < t.max_node_index < m - 1

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
        assert well_result.mountain_pass.energy == 1.4931505176211706
        assert well_result.local_min.energy == -9.819309641087939e-08
        assert well_result.distinctness == 1.674073806896936

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
    (RunConfig(dim=2, n=16, box_length=15.0), 5.733592449945194, -2.4845810771999066e-11),
    (RunConfig(dim=3, n=8, box_length=10.0, q=3.0), 42.04461206124029, -3.083582225587138e-11),
], ids=["2d", "3d"])
def test_two_solutions_in_higher_dims(cfg, saddle, minimizer):
    # both grids take the dense Newton route; the pins were recorded on one
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
        assert 0.0 < diag.embedding_constant

    def test_blown_up_iterate_flagged(self, coercive_spec, coercive_mp):
        diag = ps_diagnostics(coercive_spec, [1e6 * coercive_mp.solution])
        assert not diag.all_ok
        assert not diag.entries[0]["ok"]
