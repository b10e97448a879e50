"""Quantitative checkers: tail inequality, sublevel bound, splitting,
coercivity ladder, Holder quotients, embedding constants, norm domination,
the Palais-Smale bound on a descent's trace, and the hypotheses on V, f and
xi with their one family rule."""

import ast
import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

import besselmp
from besselmp import (
    CoerciveQuadraticPotential,
    CustomPotential,
    Field,
    Grid,
    PowerNonlinearity,
    WellPotential,
    canonical_coercive_spec,
    canonical_well_spec,
    check_bounded_descent,
    check_norm_domination,
    check_splitting,
    check_sublevel_l2_bound,
    check_superquadratic_tail,
    coercivity_probe,
    energy,
    estimate_embedding_constants,
    holder_estimate,
    lp_norm,
    random_field,
    sublevel_measure,
    validate_assumptions,
)
from besselmp.config import RunConfig, build_spec, resolve_checks
from besselmp.grid import _bessel_norm_sq, _weighted_norm_sq
from besselmp.problem import ProblemSpec
from besselmp.solvers import TraceEntry
from besselmp.verify import CHECKS, _ball_radii, applies_to
from conftest import hypothesis_entry, multiplier_matrix


def _gaussian(grid, center=0.0, sigma=1.0, amp=1.0):
    return Field(grid, amp * np.exp(-((grid.axis_coords - center) ** 2)
                                    / (2.0 * sigma**2)))


# ---------------------------------------------------------------------------
# superquadratic tail


def test_tail_threshold_near_four(coercive_spec):
    # |u|^3 <= |u|^4/4 flips exactly at |u| = 4 for the quartic model
    rec = check_superquadratic_tail(coercive_spec, tau=1.5)
    assert rec.passed
    assert rec.data["threshold"] == 4.0


def test_tail_rejects_window_edges(coercive_spec):
    # admissible window for q=4, d=1, alpha=0.75 is (1, 2), both ends open
    with pytest.raises(ValueError, match="admissible window"):
        check_superquadratic_tail(coercive_spec, tau=2.0)
    with pytest.raises(ValueError, match="admissible window"):
        check_superquadratic_tail(coercive_spec, tau=1.0)
    with pytest.raises(ValueError, match="admissible window"):
        check_superquadratic_tail(coercive_spec, tau=2.5)


@pytest.mark.parametrize("dim,q,tau,threshold", [
    # f = u|u| in 3-D: u^tau <= u^3/6 from 6^(1/(3 - tau)) on
    (3, 3.0, 2.5, 36.0),
    (3, 3.0, 2.9, 6.0**10),
    # (q-2) tau = 2.45 against q = 2.5: the exponent 0.05 puts u* at 10^20
    (1, 2.5, 4.9, 1e20),
], ids=["q3-tau2.5", "q3-tau2.9", "q2.5-tau4.9"])
def test_tail_threshold_is_closed_form(dim, q, tau, threshold):
    spec = build_spec(RunConfig(mode="verify", dim=dim, n=8, box_length=10.0, q=q, tau=tau))
    rec = check_superquadratic_tail(spec, tau=tau)
    assert rec.passed
    assert rec.params == {"tau": tau}
    # tau = 2.9 and 4.9 are not binary fractions; 1/(q - (q-2) tau) scales their roundoff
    assert rec.data["threshold"] == pytest.approx(threshold, rel=1e-12)
    (witness,) = rec.witnesses
    assert witness["lhs"] == pytest.approx(witness["rhs"], rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim,alpha,q,tau", [
    (2, 0.9, 18.7169, 1.1189),  # u* = 2.1e28, u*^q past the float range
    (3, 0.3, 2.499, 5.0007),  # u* = 1.3e274
], ids=["2d-q18.7", "3d-q2.499"])
def test_tail_threshold_whose_power_overflows_passes(dim, alpha, q, tau):
    # u* is a float but u*^q is not: both sides are scored at 2^(512/q)
    # instead and their log ratio matches the closed form e log(u / u*)
    spec = build_spec(RunConfig(mode="verify", dim=dim, n=8, box_length=10.0, alpha=alpha,
                                q=q, tau=tau))
    rec = check_superquadratic_tail(spec, tau=tau)
    assert rec.passed
    (witness,) = rec.witnesses
    exponent = q - (q - 2.0) * tau
    assert rec.data["threshold"] == pytest.approx((2.0 * q / (q - 2.0)) ** (1.0 / exponent),
                                                  rel=1e-12)
    assert witness["u"] == 2.0 ** (512.0 / q) < witness["threshold"]
    assert math.isfinite(witness["lhs"]) and math.isfinite(witness["rhs"])
    assert abs(witness["log_gap"]) <= 1e-12 * q / (q - 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q,tau", [
    (2.05, 40.9),  # 82^(1/0.005) = 82^200 is about 10^383
    (4.5, math.nextafter(1.8, 0.0)),  # an ulp below the top: q - (q-2) tau rounds to 0
], ids=["q2.05-tau40.9", "q4.5-an-ulp-below-the-top"])
def test_tail_threshold_past_the_float_range_fails(q, tau):
    spec = build_spec(RunConfig(mode="verify", n=8, box_length=10.0, q=q, tau=tau))
    rec = check_superquadratic_tail(spec, tau=tau)
    assert not rec.passed
    assert rec.data["threshold"] is None
    (witness,) = rec.witnesses
    assert "past the float range" in witness["reason"]


def test_tail_scores_the_problem_own_f(coercive_spec, monkeypatch):
    # the threshold is closed-form for the power law, so an f that is not
    # one fails where both sides are scored
    rec = check_superquadratic_tail(coercive_spec, tau=1.5)
    monkeypatch.setattr(PowerNonlinearity, "f", lambda self, u: 1.01 * u**3)
    bent = check_superquadratic_tail(coercive_spec, tau=1.5)
    assert bent.data == rec.data and bent.passed is not rec.passed


def test_tail_record_shape(coercive_spec):
    rec = check_superquadratic_tail(coercive_spec, tau=1.5)
    d = rec.as_json_dict()
    assert d["checker"] == "superquadratic_tail"
    # nothing is random, so a record carries no seed
    assert set(d) == {"checker", "params", "pass", "witnesses", "data"}
    assert d["pass"] is True


# ---------------------------------------------------------------------------
# sublevel L2 bound


def test_sublevel_bound_holds_on_well(well_spec):
    rec = check_sublevel_l2_bound(well_spec, b=10.0)
    assert rec.passed
    data = rec.data
    assert 0.0 < data["sharp_lower"] <= data["sharp_upper"] < data["constant"] == 1e-3
    (witness,) = rec.witnesses
    assert witness["spike_quotient"] == pytest.approx(data["sharp_lower"], rel=1e-9)
    # the spike sits on the ramp, where V first reaches b on the grid
    assert witness["V_at_spike"] >= 10.0


def test_sublevel_bound_holds_on_coercive(coercive_spec):
    rec = check_sublevel_l2_bound(coercive_spec, b=0.5)
    # V >= 1 makes the sublevel set empty; the weighted-norm term alone
    # must carry the bound
    assert rec.data["sublevel_measure"] == 0.0
    assert rec.passed


def test_sublevel_bound_deterministic(well_spec):
    a = check_sublevel_l2_bound(well_spec, b=10.0)
    b = check_sublevel_l2_bound(well_spec, b=10.0)
    assert a.as_json_dict() == b.as_json_dict()


def test_sublevel_bound_with_empty_set_has_zero_lower_end(well_spec):
    # the well tops out at 50, so {V >= 100} is empty and no field has mass there
    rec = check_sublevel_l2_bound(well_spec, b=100.0)
    assert rec.passed
    assert rec.data["sharp_lower"] == 0.0
    assert rec.witnesses == ()
    assert rec.data["sharp_upper"] == 1.0 / 10001.0


def test_sublevel_bound_rejects_nonpositive_b(well_spec):
    with pytest.raises(ValueError, match="b must be positive"):
        check_sublevel_l2_bound(well_spec, b=0.0)


def test_sublevel_bound_for_field_outside_sublevel_set(well_spec):
    # a bump living where V sits at the barrier obeys the bound through
    # the weighted term alone: lam * V >= lam * b on its support
    g = well_spec.grid
    delta = _gaussian(g, center=10.0, sigma=0.5)
    lhs = lp_norm(delta, 2) ** 2
    rhs = 2.0 * energy(well_spec, delta).quad / (well_spec.lam * 10.0)
    assert lhs <= rhs


# ---------------------------------------------------------------------------
# splitting


def test_splitting_zero_partner_is_exact(coercive_spec):
    g = coercive_spec.grid
    u0 = _gaussian(g)
    zero = Field(g, np.zeros(g.shape))
    rec = check_splitting(coercive_spec, u0, zero, separations=(2, 5, 10))
    assert rec.passed
    assert all(row["total"] == 0.0 for row in rec.data["rows"])


def test_splitting_at_zero_separation_measures_interaction(coercive_spec):
    g = coercive_spec.grid
    u0 = _gaussian(g)
    rec = check_splitting(coercive_spec, u0, u0, separations=(0,))
    interaction = abs(energy(coercive_spec, 2.0 * u0).total
                      - 2.0 * energy(coercive_spec, u0).total)
    assert rec.data["rows"][0]["total"] == pytest.approx(interaction, rel=1e-12)
    assert interaction > 0.1
    assert not rec.passed


def test_splitting_ladder_decays(coercive_spec):
    g = coercive_spec.grid
    u0 = _gaussian(g)
    # narrow enough that the shift to x = 15 stays clear of the edge band
    w = Field(g, 0.8 * np.exp(-1.3 * g.axis_coords**2))
    rec = check_splitting(coercive_spec, u0, w, separations=(2, 4, 6, 8, 10, 12, 15))
    assert rec.passed
    rows = rec.data["rows"]
    assert set(rows[0]) == {"separation", "total", "quad", "f_term", "xi_term"}
    assert rows[-1]["total"] < 1e-3
    # all three component deviations collapse with the total
    assert rows[-1]["quad"] < 1e-3
    assert rows[-1]["f_term"] < 1e-3
    assert rows[-1]["xi_term"] < 1e-3


def test_splitting_snaps_separations_to_cells(coercive_spec):
    h = coercive_spec.grid.spacing
    u0 = _gaussian(coercive_spec.grid)
    rec = check_splitting(coercive_spec, u0, u0, separations=(3.01,))
    snapped = rec.data["rows"][0]["separation"]
    assert snapped == pytest.approx(round(3.01 / h) * h, abs=1e-12)


def test_splitting_refuses_empty_separations(coercive_spec):
    u0 = _gaussian(coercive_spec.grid)
    with pytest.raises(ValueError, match="at least one separation"):
        check_splitting(coercive_spec, u0, u0, separations=())


def test_splitting_rejects_edge_mass(coercive_spec):
    g = coercive_spec.grid
    u0 = _gaussian(g)
    wide = Field(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="box edge"):
        check_splitting(coercive_spec, u0, wide, separations=(2,))


def test_splitting_rejects_edge_mass_in_u0(coercive_spec):
    g = coercive_spec.grid
    wide = Field(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="box edge"):
        check_splitting(coercive_spec, wide, _gaussian(g), separations=(2,))


def _verify_splitting(dim, n, family, q=4.0, threshold=1e-3):
    """check_splitting on the pair and separations that ``bessel-mp verify`` uses."""
    cfg = RunConfig(mode="verify", dim=dim, n=n, box_length=40.0, potential=family, q=q)
    spec = build_spec(cfg)
    g = spec.grid
    bump = Field(g, np.exp(-g.radius_sq))
    partner = Field(g, 0.8 * np.exp(-1.3 * g.radius_sq))
    return check_splitting(spec, bump, partner, cfg.separations, threshold=threshold)


@pytest.mark.parametrize("family", ["coercive_quadratic", "well"])
@pytest.mark.parametrize("dim,n,q,passed", [
    (1, 256, 4.0, True),
    (2, 64, 4.0, True),
    # a mesh width of 1.25 leaves a deviation of 4.5e-3 at separation 15
    (3, 32, 3.0, False),
])
def test_splitting_in_every_dim(dim, n, q, passed, family):
    rec = _verify_splitting(dim, n, family, q)
    assert rec.passed is passed
    (witness,) = rec.witnesses
    assert witness["monotone_beyond_overlap"]
    assert (witness["final_deviation"] < 1e-3) is passed
    # the bump reaches 1e-8 of its peak near |x| = 4.3, the partner near 3.8
    assert 7.5 < witness["overlap_radius"] < 8.5


def test_splitting_settled_deviations_keep_monotonicity():
    # in 2-D at n=64 the deviations beyond the overlap level off near 1e-6
    # and wiggle (1.07e-6 -> 1.31e-6): settled below 1e-3 / 100, but a rise
    # above the floor of a 1e-4 threshold
    rec = _verify_splitting(2, 64, "coercive_quadratic")
    assert rec.passed
    strict = _verify_splitting(2, 64, "coercive_quadratic", threshold=1e-4)
    (witness,) = strict.witnesses
    assert witness["final_deviation"] < 1e-4
    assert not witness["monotone_beyond_overlap"]
    assert not strict.passed


def test_splitting_edge_band_covers_every_axis():
    # mass at the edge of the second axis, which a shift along the first never moves
    spec = build_spec(RunConfig(dim=2, n=64, box_length=40.0))
    x, y = spec.grid.coords()
    u0 = Field(spec.grid, np.exp(-(x**2 + y**2)))
    high = Field(spec.grid, np.exp(-(x**2 + (y - 18.5) ** 2)))
    with pytest.raises(ValueError, match="box edge"):
        check_splitting(spec, u0, high, separations=(2,))


# ---------------------------------------------------------------------------
# coercivity ladder


def test_coercivity_ladder_decays_under_quadratic_growth():
    g = Grid(1, 256, 40.0)
    V = Field(g, 1.0 + g.axis_coords**2)
    radii = [0.0, 2.0, 5.0, 9.0, 14.0, 18.0]
    rec = coercivity_probe(V, radii)
    assert rec.passed
    ladder = rec.data["ladder"]
    # analytic envelope: int over B(y,1) of dx/(1+x^2) <= 2/(1+(|y|-1)^2)
    for y, val in zip(radii, ladder):
        if y >= 1.0:
            assert val <= 2.0 / (1.0 + (y - 1.0) ** 2) * 1.05


def test_coercivity_constant_potential_fails():
    g = Grid(1, 256, 40.0)
    rec = coercivity_probe(Field(g, np.ones(g.shape)), [0.0, 5.0, 10.0, 15.0])
    assert not rec.passed
    # d=1 unit ball has length 2, so every rung is 2
    assert all(v == pytest.approx(2.0, rel=0.1) for v in rec.data["ladder"])


def test_coercivity_flags_vanishing_potential(well_spec):
    rec = coercivity_probe(well_spec.V_field, [0.0, 5.0, 10.0])
    assert not rec.passed
    assert math.isinf(rec.data["ladder"][0])
    assert any("positivity_violation" in w for w in rec.witnesses)


def test_coercivity_reports_sublevel_intersections():
    g = Grid(1, 256, 40.0)
    V = Field(g, 1.0 + g.axis_coords**2)
    rec = coercivity_probe(V, [0.0, 5.0, 10.0], b=10.0)
    inter = rec.data["sublevel_intersections"]
    assert inter[0] > 0.0  # {V < 10} = {|x| < 3} meets B(0,1)
    assert inter[-1] == 0.0  # and misses B(10,1)


def test_coercivity_refuses_an_empty_ladder():
    g = Grid(1, 64, 10.0)
    with pytest.raises(ValueError, match="at least one ball center"):
        coercivity_probe(Field(g, 1.0 + g.axis_coords**2), [])


# ---------------------------------------------------------------------------
# sublevel measure


def test_sublevel_measure_cases(well_spec):
    g = Grid(1, 256, 40.0)
    coercive_V = Field(g, 1.0 + g.axis_coords**2)
    assert sublevel_measure(coercive_V, 1.0) == 0.0
    assert sublevel_measure(well_spec.V_field, -1.0) == 0.0

    # {V < 50} is the well plus ramp: length 2*(radius + ramp) = 4
    h = well_spec.grid.spacing
    assert abs(sublevel_measure(well_spec.V_field, 50.0) - 4.0) <= 2.0 * h
    # {V < 10}: ramp crosses 10 at |x| = 1 + sqrt(0.2)
    expect = 2.0 * (1.0 + math.sqrt(0.2))
    assert abs(sublevel_measure(well_spec.V_field, 10.0) - expect) <= 2.0 * h


def test_sublevel_measure_rejects_non_finite(well_spec):
    with pytest.raises(ValueError, match="finite"):
        sublevel_measure(well_spec.V_field, math.inf)


# ---------------------------------------------------------------------------
# Holder quotient


def test_holder_constant_field_is_zero():
    g = Grid(1, 128, 20.0)
    u = Field(g, np.full(g.shape, 3.0))
    for beta in (0.3, 1.0, 1.5):
        assert holder_estimate(u, beta) == 0.0


def test_holder_linear_field_lipschitz_one():
    g = Grid(1, 128, 20.0)
    u = Field(g, g.axis_coords.copy())
    assert holder_estimate(u, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_holder_above_one_uses_derivative():
    # for a single cosine mode the derivative is a sine of amplitude k;
    # its beta-1 quotient is bounded by k * (lag window)^(1 - (beta-1))
    L = 20.0
    g = Grid(1, 128, L)
    k = 2.0 * np.pi / L
    u = Field(g, np.cos(k * g.axis_coords))
    est = holder_estimate(u, 1.5)
    assert 0.0 < est <= 2.0 * k / math.sqrt(g.spacing)


def test_holder_2d_scans_diagonals():
    g = Grid(2, 32, 8.0)
    xs, ys = g.coords()
    u = Field(g, xs + ys)
    est = holder_estimate(u, 1.0)
    # slope along the diagonal is sqrt(2), axis-aligned slope is 1
    assert est == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_holder_rejects_out_of_range_beta():
    g = Grid(1, 32, 8.0)
    u = Field(g, np.zeros(32))
    for beta in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(ValueError, match="exponent"):
            holder_estimate(u, beta)


# ---------------------------------------------------------------------------
# embedding constants


def test_embedding_gamma2_is_one():
    # the constant field attains the supremum: the symbol's minimum is 1
    g = Grid(1, 128, 20.0)
    est = estimate_embedding_constants(0.75, g, [2.0])
    assert est.table[2.0] == pytest.approx(1.0, abs=1e-12)
    # and the interpolation bound closes the bracket: C_inf^0
    assert est.upper[2.0] == 1.0


def test_embedding_rejects_out_of_range_exponents():
    g = Grid(1, 64, 20.0)
    with pytest.raises(ValueError, match="outside"):
        estimate_embedding_constants(0.75, g, [1.9])
    # alpha = 0.25 in d=1 has critical exponent 4, an excluded endpoint
    with pytest.raises(ValueError, match="outside"):
        estimate_embedding_constants(0.25, g, [4.0])
    estimate_embedding_constants(0.25, g, [3.9])


def test_embedding_stable_under_refinement():
    coarse = estimate_embedding_constants(0.75, Grid(1, 128, 40.0), [4.0])
    fine = estimate_embedding_constants(0.75, Grid(1, 256, 40.0), [4.0])
    drift = abs(fine.table[4.0] - coarse.table[4.0]) / coarse.table[4.0]
    assert drift < 0.10


# ---------------------------------------------------------------------------
# norm domination


def test_norm_domination(coercive_spec):
    rec = check_norm_domination(coercive_spec)
    assert rec.passed
    lower, upper = rec.data["ratio_lower"], rec.data["ratio_upper"]
    assert 0.98 < lower < upper < 1.0
    (witness,) = rec.witnesses
    assert witness["spike_ratio"] == pytest.approx(lower, rel=1e-9)
    assert witness["gap_below_one"] == 1.0 - upper


def test_norm_domination_transforms_one_spike(well_spec, fft_calls):
    # the bracket is closed form; only the spike witness is transformed
    check_norm_domination(well_spec)
    assert fft_calls == {"_rfft": 1}


def test_trials_and_seed_are_ignored(well_spec):
    def records(**kw):
        return (check_sublevel_l2_bound(well_spec, b=10.0, **kw).as_json_dict(),
                check_norm_domination(well_spec, **kw).as_json_dict(),
                estimate_embedding_constants(0.75, well_spec.grid, [2.0, 4.0], **kw))
    assert records() == records(trials=0, seed=7) == records(trials=1000, seed=0)


# ---------------------------------------------------------------------------
# the Palais-Smale norm bound on a descent's rows


def _row(iteration, energy, norm_lam, phase="nehari"):
    return TraceEntry(iteration, energy, 1.0, 1.0, phase, 0, norm_lam=norm_lam)


class TestBoundedDescent:
    def test_canonical_descents_are_bounded(self, coercive_spec, coercive_mp, coercive_ball,
                                            well_spec, well_result):
        for spec, report in ((coercive_spec, coercive_mp), (coercive_spec, coercive_ball),
                             (well_spec, well_result.mountain_pass),
                             (well_spec, well_result.local_min)):
            rec = check_bounded_descent(spec, report.trace)
            descent = [t for t in report.trace if t.phase != "polish"]
            assert rec.passed, report.classification
            assert rec.params["rows"] == len(descent)
            assert rec.data["level"] == max(t.energy for t in descent)
            assert rec.data["max_norm"] == max(t.norm_lam for t in descent) > 0.0
            # the witness is the descent row nearest to failing
            (worst,) = rec.witnesses
            assert (worst["iteration"], worst["phase"]) in {(t.iteration, t.phase)
                                                             for t in descent}
            assert worst["lhs"] < worst["rhs"]

    def test_blown_up_row_fails_naming_it(self, coercive_spec, coercive_mp):
        trace = list(coercive_mp.trace)
        assert [t.phase for t in trace[:2]] == ["nehari", "nehari"]
        trace[1] = replace(trace[1], norm_lam=1e6 * trace[1].norm_lam)
        rec = check_bounded_descent(coercive_spec, trace)
        assert not rec.passed
        (worst,) = rec.witnesses
        assert (worst["iteration"], worst["phase"]) == (trace[1].iteration, "nehari")
        assert worst["norm_lam"] == trace[1].norm_lam and worst["lhs"] > worst["rhs"]

    def test_zero_norm_rows_pass(self, coercive_spec):
        rec = check_bounded_descent(coercive_spec, [_row(0, 0.0, 0.0), _row(1, 0.0, 0.0)])
        assert rec.passed
        assert rec.data["max_norm"] == 0.0

    def test_row_test_is_the_positive_root(self, coercive_spec):
        # the left side minus the right has one positive root, so a row
        # passes just below it and fails just above it
        spec, c = coercive_spec, 3.0
        theta, p = spec.nonlinearity.theta, spec.p
        slack = (1 / p - 1 / theta) * spec.mu * lp_norm(spec.xi_field, 2 / (2 - p))
        root = optimize.brentq(
            lambda t: (0.5 - 1 / theta) * t * t - t - slack * t**p - (1 + c), 0.0, 100.0)
        for scale, passes in ((1 - 1e-6, True), (1 + 1e-6, False)):
            rows = [_row(0, c, 0.5 * root), _row(1, c - 1.0, scale * root)]
            rec = check_bounded_descent(spec, rows)
            assert rec.passed == passes and rec.data["level"] == c
            assert rec.witnesses[0]["iteration"] == 1

    def test_polish_rows_are_not_read(self, coercive_spec, coercive_mp):
        polish = [t for t in coercive_mp.trace if t.phase == "polish"]
        for trace in ((), polish):
            with pytest.raises(ValueError, match="no descent rows"):
                check_bounded_descent(coercive_spec, trace)
        # a polish row reads norm 0 and its energy would not set the level
        rec = check_bounded_descent(coercive_spec, [_row(0, 1.0, 1.0),
                                                    replace(polish[0], energy=50.0)])
        assert rec.data["level"] == 1.0 and rec.params["rows"] == 1


# ---------------------------------------------------------------------------
# brackets, pinned to the bit
#
# The embedding tables equal, to the bit, the ones the earlier Monte Carlo
# estimate returned from 1,000 random fields: no draw ever beat the anchors.


@pytest.fixture(scope="module")
def well_2d_spec():
    return build_spec(RunConfig(mode="verify", dim=2, n=64, box_length=40.0, potential="well"))


@pytest.mark.parametrize("spec_name,sharp_lower,gamma_3,gamma_4,upper_3,upper_4", [
    ("well_2d_spec", 0.026430153333135715, "0x1.1c130b256f9a5p-1", "0x1.0390aeddeb0a1p-1",
     0.8729838015888353, 0.8156602122516972),
    ("well_spec", 0.0006178968310400068, "0x1.7ac720bb7748ep-1", "0x1.5bf2f3d3d8b46p-1",
     0.9406422766804865, 0.9122980382496216),
], ids=["well_2d", "well_1d"])
def test_bracket_records_are_pinned(spec_name, sharp_lower, gamma_3, gamma_4, upper_3, upper_4,
                                    request):
    spec = request.getfixturevalue(spec_name)
    sub = check_sublevel_l2_bound(spec, b=10.0)
    assert sub.data["sharp_lower"] == pytest.approx(sharp_lower, rel=1e-12)
    assert sub.data["sharp_upper"] == 1.0 / (1.0 + 10.0 * spec.lam)
    # V vanishes in the well, so no field beats the bessel norm's own ratio 1
    dom = check_norm_domination(spec)
    assert dom.passed and dom.data == {"ratio_lower": 1.0, "ratio_upper": 1.0}
    est = estimate_embedding_constants(spec.alpha, spec.grid, [2.0, 3.0, 4.0])
    assert all(type(v) is float for v in est.table.values())
    assert (est.table[3.0].hex(), est.table[4.0].hex()) == (gamma_3, gamma_4)
    assert est.table[2.0] == est.upper[2.0] == 1.0
    assert est.upper[3.0] == pytest.approx(upper_3, rel=1e-12)
    assert est.upper[4.0] == pytest.approx(upper_4, rel=1e-12)


@pytest.mark.parametrize("family,final_deviation", [
    ("coercive_quadratic", "0x1.0f152c8000000p-20"),
    ("well", "0x1.0f152c5000000p-20"),
])
def test_verify_2d_records_are_pinned(family, final_deviation):
    # the 2-D n=64, box-40 checks perfbench's verify workload runs: most of
    # each Gaussian there lies where pow's result is subnormal, so these
    # records pin what the power kernel (grid._power) returns below DBL_MIN
    cfg = RunConfig(mode="verify", dim=2, n=64, box_length=40.0, potential=family)
    spec = build_spec(cfg)
    weight = hypothesis_entry(validate_assumptions(spec, b=cfg.b), "weight_integrable")
    assert weight["witness"]["integral"].hex() == "0x1.9508c961e0cedp-1"
    table = CHECKS["embedding"].run(spec, cfg).data["table"]
    assert {s: v.hex() for s, v in table.items()} == {
        "2.0": "0x1.0000000000000p+0", "3.0": "0x1.1c130b256f9a5p-1",
        "4.0": "0x1.0390aeddeb0a1p-1"}
    (split,) = CHECKS["splitting"].run(spec, cfg).witnesses
    assert split["final_deviation"].hex() == final_deviation
    assert CHECKS["holder"].run(spec, cfg).data["value"] == 1.5659591285976011


# ---------------------------------------------------------------------------
# the brackets against exact suprema and random fields


def _dense_suprema(spec, b):
    """Exact sup ||u||_bessel / ||u||_lam and sup int_{V>=b} u^2 / ||u||_lam^2 on the grid.

    Both are top generalized eigenvalues of the dense quadratic forms; the
    bessel form is the multiplier matrix, the lam-norm adds lam diag(V).
    """
    g = spec.grid
    M = multiplier_matrix(g, spec.alpha)
    M = 0.5 * (M + M.T)
    V = spec.V_field.values.ravel()
    K = M + spec.lam * np.diag(V)
    top = [g.total_points - 1] * 2
    ratio_sq = linalg.eigh(M, K, eigvals_only=True, subset_by_index=top)[0]
    sharp = linalg.eigh(np.diag((V >= b) * 1.0), K, eigvals_only=True, subset_by_index=top)[0]
    return math.sqrt(ratio_sq), sharp


_SQUARE_20 = dict(mode="verify", dim=2, n=32, box_length=20.0)


@pytest.mark.parametrize("spec_name,ratio,sharp", [
    ("coercive_spec", 0.99343, 0.06022),
    ("well_spec", 1.0, 6.1822e-4),
    ("coercive_2d", 0.95801, 0.06576),
    ("well_2d", 1.0, 0.02714),
], ids=["coercive_1d", "well_1d", "coercive_2d", "well_2d"])
def test_brackets_hold_the_exact_suprema(spec_name, ratio, sharp, request):
    specs = {"coercive_2d": lambda: build_spec(RunConfig(**_SQUARE_20)),
             "well_2d": lambda: build_spec(RunConfig(**_SQUARE_20, potential="well"))}
    spec = specs[spec_name]() if spec_name in specs else request.getfixturevalue(spec_name)
    exact_ratio, exact_sharp = _dense_suprema(spec, 10.0)
    assert exact_ratio == pytest.approx(ratio, abs=1e-5)
    assert exact_sharp == pytest.approx(sharp, rel=1e-4)
    dom = check_norm_domination(spec).data
    assert dom["ratio_lower"] <= exact_ratio * (1 + 1e-12)
    assert exact_ratio <= dom["ratio_upper"] * (1 + 1e-12)
    sub = check_sublevel_l2_bound(spec, b=10.0).data
    assert sub["sharp_lower"] <= exact_sharp * (1 + 1e-9) <= sub["sharp_upper"] * (1 + 1e-9)


@functools.lru_cache(maxsize=None)
def _small_spec(dim, family):
    # 3-D needs q below the critical exponent 4 at alpha = 0.75
    n, box, q = {1: (64, 20.0, 4.0), 2: (16, 12.0, 4.0), 3: (8, 10.0, 3.0)}[dim]
    return build_spec(RunConfig(dim=dim, n=n, box_length=box, potential=family, q=q))


def _checkerboard_bump(spec):
    """The highest grid frequency under a unit-width Gaussian at argmin V: near the ratio's extremal."""
    g = spec.grid
    at = np.unravel_index(np.argmin(spec.V_field.values), g.shape)
    index = np.indices(g.shape)
    dist_sq = sum((c - c[i]) ** 2 for c, i in zip(g.coords(), at))
    return Field(g, (-1.0) ** index.sum(axis=0) * np.exp(-0.5 * dist_sq))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), family=st.sampled_from(["coercive_quadratic", "well"]),
       band=st.sampled_from([0.25, 0.5, 1.0]), sigma=st.sampled_from([None, 0.5, 2.0]),
       checker=st.sampled_from([0.0, 1.0, 100.0]), seed=st.integers(0, 2**32 - 1))
def test_random_fields_respect_the_upper_ends(dim, family, band, sigma, checker, seed):
    spec = _small_spec(dim, family)
    g, b = spec.grid, 10.0
    u = random_field(g, np.random.default_rng(seed), band_fraction=band, envelope_sigma=sigma)
    u = u + checker * _checkerboard_bump(spec)
    bessel = _bessel_norm_sq(g, u.values, spec.alpha)
    lam_sq = _weighted_norm_sq(g, u.values, spec.V_field.values, spec.lam, spec.alpha)
    slack = 1.0 + 1e-12
    assert math.sqrt(bessel / lam_sq) <= check_norm_domination(spec).data["ratio_upper"] * slack
    mass = float(np.sum(u.values[spec.V_field.values >= b] ** 2)) * g.cell_volume
    assert mass <= check_sublevel_l2_bound(spec, b).data["sharp_upper"] * lam_sq * slack
    s_list = [2.0, 3.0, 3.5]
    upper = estimate_embedding_constants(spec.alpha, g, s_list).upper
    for s in s_list:
        assert lp_norm(u, s) <= upper[s] * math.sqrt(bessel) * slack


# ---------------------------------------------------------------------------
# the hypotheses: one home, one implementation of each quantity


def test_solvers_defines_no_check_and_verify_imports_no_solver():
    package = Path(besselmp.__file__).parent
    solvers = ast.parse((package / "solvers.py").read_text())
    defined = {n.name for n in solvers.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not [name for name in defined
                if "check" in name.lower() or "diagnostic" in name.lower()]
    verify = ast.parse((package / "verify.py").read_text())
    assert not [n for n in ast.walk(verify) if isinstance(n, ast.ImportFrom)
                and n.module == "solvers"]


def test_problem_defines_no_check_and_verify_takes_no_private_name_from_it():
    package = Path(besselmp.__file__).parent
    problem = ast.parse((package / "problem.py").read_text())
    defined = {n.name for n in problem.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not {"AssumptionCheck", "ValidationReport"} & defined
    assert not [name for name in defined if name.startswith("_check")]
    verify = ast.parse((package / "verify.py").read_text())
    private = [a.name for n in ast.walk(verify)
               if isinstance(n, ast.ImportFrom) and n.module == "problem"
               for a in n.names if a.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("make_spec", [canonical_coercive_spec, canonical_well_spec],
                         ids=["coercive", "well"])
def test_hypotheses_read_the_public_checks(make_spec):
    spec = make_spec()
    record = validate_assumptions(spec, b=10.0)
    # the name problem keeps calls into verify
    assert besselmp.problem.validate_assumptions(spec, b=10.0) == record
    ladder = coercivity_probe(spec.V_field, _ball_radii(spec.grid))
    assert hypothesis_entry(record, "ball_integrals_decay")["witness"] == ladder.data
    assert hypothesis_entry(record, "ball_integrals_decay")["pass"] is ladder.passed
    assert (hypothesis_entry(record, "finite_sublevel")["witness"]["measure"]
            == sublevel_measure(spec.V_field, 10.0))
    # the last center stays at least 1 on a box too small for L/2 - 1.5
    assert _ball_radii(Grid(1, 64, 2.0))[-1] == 1.0


_FAMILY_HYPOTHESES = {
    "coercive": {"positive_infimum", "ball_integrals_decay", "weight_integrable"},
    "well": {"finite_sublevel", "flat_zero_region", "weight_integrable"},
}
_FAMILY_STAGES = {
    "coercive": ("assumptions", "superquadratic-tail", "splitting", "holder", "embedding",
                 "norm-domination"),
    "well": ("assumptions", "superquadratic-tail", "splitting", "holder", "embedding",
             "norm-domination", "sublevel-bound"),
}


@pytest.mark.parametrize("potential,family", [
    (CoerciveQuadraticPotential(), "coercive"),
    (WellPotential(radius=1.0, height=50.0, ramp=1.0), "well"),
    # a custom V is gated by the family it declares, whatever its values
    (CustomPotential(lambda x: 1.0 + x**2, family="well"), "well"),
], ids=["coercive", "well", "custom-well"])
def test_one_family_rule_gates_hypotheses_and_stages(potential, family):
    spec = ProblemSpec(Grid(1, 256, 40.0), alpha=0.75, lam=1.0, mu=0.01, p=1.5,
                       potential=potential)
    required = {c["name"] for c in validate_assumptions(spec).data["checks"] if c["required"]}
    assert required == _FAMILY_HYPOTHESES[family]
    assert {name for name, check in CHECKS.items() if applies_to(check.family, potential)} \
        == set(_FAMILY_STAGES[family])
    if not isinstance(potential, CustomPotential):  # the config builds only these two
        cfg = RunConfig(mode="verify",
                        potential="well" if family == "well" else "coercive_quadratic")
        assert resolve_checks(cfg) == _FAMILY_STAGES[family]
