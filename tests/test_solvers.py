"""Geometry probe, saddle search, ball descent, and the combined experiment."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    _descent,
    _hessian_diag,
    _mu_budget,
    _newton_direction,
    _sphere_polish,
    _sphere_samples,
)


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


def test_armijo_step_rows_move_independently(coercive_spec):
    g = coercive_spec.grid
    rows = np.stack([a * np.exp(-g.radius_sq / w) for a, w in ((3.0, 4.0), (1.0, 1.0), (0.5, 9.0))])
    e = _energy_rows(coercive_spec, rows).total
    d, slope = _descent(coercive_spec, _residual_rows(coercive_spec, rows))
    steps, skip = np.array([1.0, 10.0, 0.25]), np.array([0, 3, 39])
    # unconstrained the three rows move; inside rho = 2 the first refuses
    # all 40 steps and the last is projected onto the sphere
    for rho, trials in ((math.inf, [1, 2, 1]), (2.0, [40, 2, 1])):
        both = _armijo_step(coercive_spec, rows, e, d, slope, steps, skip, rho=rho)
        assert both[4].tolist() == trials
        for i in range(len(rows)):
            one = slice(i, i + 1)
            alone = _armijo_step(coercive_spec, rows[one], e[one], d[one], slope[one], steps[one],
                                 skip[one], rho=rho)
            for a, b in zip(both, alone):
                assert np.array_equal(a[i], b[0])
    # a row whose every trial overflows keeps its point after 40 trials, a
    # row with an overflowed slope tries nothing, and neither changes a bit
    # of its neighbour
    alone = _armijo_step(coercive_spec, rows[:1], e[:1], d[:1], slope[:1], 1.0)
    huge = np.full(g.shape, 1e100)
    with np.errstate(over="ignore", invalid="ignore"):
        three = _armijo_step(coercive_spec, np.stack([rows[0], huge, huge]), [e[0], 0.0, 0.0],
                             d[[0, 0, 0]], np.array([slope[0], slope[0], math.inf]), 1.0)
    assert np.array_equal(three[0][0], alone[0][0])
    assert [a[0] for a in three[1:]] == [a[0] for a in alone[1:]]
    assert np.array_equal(three[0][1:], np.stack([huge, huge]))
    assert three[1][1:].tolist() == [0.0, 0.0]
    assert three[2][1:].tolist() == [0.0, 0.0]
    assert three[4][1:].tolist() == [40, 0]


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
        nodes = coercive_mp.path
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

    def test_polish_falls_back_to_residual_descent(self, monkeypatch):
        # with every Newton solve refused, each polish step is a descent
        # step on the residual norm; the run stops when one finds no decrease
        spec = build_spec(RunConfig(dim=3, n=8, box_length=10.0, q=3.0))
        probe = probe_geometry(spec, seed=0)
        monkeypatch.setattr(solvers, "_newton_direction", lambda spec, u, r: None)
        report = mountain_pass_solve(spec, probe.e, probe=probe)
        norms = [t.residual_norm for t in report.trace if t.phase == "polish"]
        assert len(norms) == 17
        assert norms[0] == 1.344407586921846
        assert norms[-1] == 0.5508110348512013
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert not report.converged
        assert report.message == "residual tolerance not reached"


# The Tier-1 2-D n=16 saddle search, run with each search of a path sweep
# split into one-row calls so that every trial row is charged to its node.
# (energy, residual_norm, step_size, max_node_index) of the path entries were
# recorded before the sweep was stacked; trials with the refused-step rule.
PATH_2D_TRACE = (
    (7.51200040753721, 5.0806099938364175, 2.0, 18, 44),
    (6.849551009079564, 7.0145778372439835, 0.5, 18, 90),
    (6.610552470970718, 9.38245143715551, 0.125, 18, 91),
    (6.210217609676446, 8.231238278730304, 0.0625, 18, 75),
    (5.7926946719674355, 2.714207253950324, 0.03125, 18, 488),
    (5.753620902883513, 2.6430290925719735, 0.0625, 18, 148),
    (5.728636287533826, 2.85965104847449, 0.0625, 18, 44),
    (5.712739363512706, 3.2681316870213495, 0.0625, 18, 60),
    (5.707434308017579, 3.8851728752043826, 0.0625, 18, 47),
    (5.635668610600906, 2.1925027209146037, 0.03125, 18, 36),
    (5.606400203134616, 2.2826395898242975, 0.0625, 18, 50),
    (5.56857509520805, 3.263624025495759, 0.125, 18, 58),
    (5.5521936185236616, 3.8318832708755384, 0.0625, 18, 39),
    (5.546495788569895, 4.611628418081987, 0.0625, 18, 40),
    (5.444374298590566, 2.6223817896902153, 0.03125, 18, 66),
    (5.400655765391051, 2.7640287592529096, 0.0625, 18, 39),
    (5.338097481447626, 3.9554359627704265, 0.125, 18, 35),
    (5.308255425965792, 4.629655216464409, 0.0625, 18, 61),
    (5.292897905956481, 5.550622159145881, 0.0625, 18, 48),
    (5.144337804626027, 3.226335523922942, 0.03125, 18, 38),
    (5.074722510396455, 3.3876296398256294, 0.0625, 18, 45),
    (4.971333477008491, 4.762317312742415, 0.125, 18, 59),
    (4.922903868289517, 5.543769439122866, 0.0625, 18, 46),
    (4.896347223449706, 6.619156277713638, 0.0625, 18, 34),
    (4.684126202451516, 3.8431929165566983, 0.03125, 18, 57),
    (4.583506973592243, 3.9987658185475916, 0.0625, 18, 48),
    (4.439317343158281, 5.581095318050502, 0.125, 18, 38),
    (4.377185429904699, 6.488690010676639, 0.0625, 18, 50),
)


@pytest.fixture(scope="module")
def path_2d_searches():
    """(report, per sweep its searches, polish residual norms).

    A search is (node bytes, start step, energy rows, step used, trials).
    """
    spec = build_spec(RunConfig(dim=2, n=16, box_length=15.0))
    probe = probe_geometry(spec, seed=0)
    step, rows, norm = solvers._armijo_step, solvers._energy_rows, solvers._residual_norm
    scored, norms, sweeps = [0], [0], []

    def counted_rows(spec, u):
        scored[0] += u.size // spec.grid.total_points
        return rows(spec, u)

    def counted_norm(spec, u):
        norms[0] += 1
        return norm(spec, u)

    def one_row_at_a_time(spec, u, e_u, d, slope, steps, skip=0, rho=math.inf):
        skip = np.broadcast_to(skip, len(u))
        outs, searches = [], []
        for i in range(len(u)):
            one, before = slice(i, i + 1), scored[0]
            out = step(spec, u[one], e_u[one], d[one], slope[one], steps[one], skip[one], rho)
            searches.append((u[i].tobytes(), float(steps[i]), scored[0] - before,
                             float(out[2][0]), int(out[4][0])))
            outs.append(out)
        sweeps.append(searches)
        return tuple(np.concatenate(parts) for parts in zip(*outs))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_energy_rows", counted_rows)
        mp.setattr(solvers, "_residual_norm", counted_norm)
        mp.setattr(solvers, "_armijo_step", one_row_at_a_time)
        report = mountain_pass_solve(spec, probe.e, probe=probe)
    return report, sweeps, norms[0]


def test_path_trace_2d_pinned(path_2d_searches):
    report, _, _ = path_2d_searches
    path = [(t.energy, t.residual_norm, t.step_size, t.max_node_index, t.trials)
            for t in report.trace if t.phase == "path"]
    assert path == list(PATH_2D_TRACE)
    assert report.energy == 5.733592449945194


def test_path_never_retries_a_refused_step(path_2d_searches):
    # a node that refused every step from s and has not moved since would
    # repeat all of them from s (the 1e-6 floor) and all but the last from s/2
    _, sweeps, _ = path_2d_searches
    refused_at = {}  # node bytes -> start step of the search that refused there
    full, halved, retried, floor = 0, 0, 0, 0
    for searches in sweeps:
        for node, start, rows, used, trials in searches:
            assert rows == trials
            before = refused_at.get(node)
            if start == before:
                floor += 1
                assert rows == 0
            elif before is not None and start == before / 2:
                halved += 1
                assert rows <= 1
                retried += rows == 1 and used == 0.0
            else:
                full += rows == 40 and used == 0.0
            if used == 0.0:
                refused_at[node] = start
    # the 12 full refusals and 253 one-step retries that refuse again ran
    # 40 trials each before this rule; the floor searches sit at nodes
    # whose slope overflowed, and those never tried a step
    assert (full, halved, retried, floor) == (12, 409, 253, 57)


def test_trials_count_the_trial_points(path_2d_searches, coercive_spec, coercive_probe,
                                       coercive_ball, monkeypatch):
    report, sweeps, norms = path_2d_searches
    path = [t.trials for t in report.trace if t.phase == "path"]
    assert path == [sum(rows for _, _, rows, _, _ in searches) for searches in sweeps]
    polish = [t.trials for t in report.trace if t.phase == "polish"]
    assert sum(polish) == norms and polish[-1] == 0
    # the ball scores 80 scan amplitudes, then its Newton and Armijo trials
    scored = [0]
    rows = solvers._energy_rows

    def counted_rows(spec, u):
        scored[0] += u.size // spec.grid.total_points
        return rows(spec, u)

    monkeypatch.setattr(solvers, "_energy_rows", counted_rows)
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

    def test_blown_up_iterate_flagged(self, coercive_spec, coercive_mp):
        diag = ps_diagnostics(coercive_spec, [1e6 * coercive_mp.solution])
        assert not diag.all_ok
        assert not diag.entries[0]["ok"]
