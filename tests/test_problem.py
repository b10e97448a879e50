"""Problem data: the power law, potentials, energy, residual, validators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from besselmp import (
    CoerciveQuadraticPotential,
    Field,
    Grid,
    ProblemSpec,
    WellPotential,
    canonical_coercive_spec,
    canonical_well_spec,
    critical_exponent,
    energy,
    lp_norm,
    random_field,
    residual,
    validate_assumptions,
)
from besselmp.config import RunConfig, build_spec
from besselmp.grid import _abs_power, _bessel_norm_sq, _is_even, _potential, _restrict
from besselmp.problem import _energy_parts, _residual_values, eval_scrF
from besselmp.solvers import _hessian_diag
from besselmp.verify import _erode
from conftest import hypothesis_entry


def _rng(seed):
    return np.random.default_rng(seed)


def test_critical_exponent():
    assert critical_exponent(1, 0.75) == math.inf  # vacuous below dim = 2 alpha
    assert critical_exponent(1, 0.5) == math.inf
    assert critical_exponent(1, 0.25) == pytest.approx(4.0)
    assert critical_exponent(3, 0.75) == pytest.approx(4.0)
    assert critical_exponent(2, 0.5) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# the power law f(u) = |u|^(q-2) u, F(u) = |u|^q / q, written where they are used


class TestPowerNonlinearity:
    def test_quartic_values(self):
        # at a constant field u = c the multiplier is the identity, so with
        # mu = 0 the residual is c + lam V c - f(c), and int F(c) = F(c) L
        spec = _spec(mu=0.0)
        g = spec.grid
        lam_v = spec.lam * spec.V_field.values
        for c, f_c, big_f in ((2.0, 8.0, 4.0), (-2.0, -8.0, 4.0), (0.0, 0.0, 0.0)):
            u = np.full(g.shape, c)
            np.testing.assert_allclose(c + lam_v * c - _residual_values(spec, u), f_c,
                                       rtol=1e-12, atol=1e-9)
            assert _energy_parts(spec, u).f_term == pytest.approx(big_f * g.box_length)
        assert spec.q == 4.0

    def test_f_prime(self):
        # with mu = 0 the Hessian's pointwise part is lam V - f'(u)
        spec = _spec(mu=0.0)
        lam_v = spec.lam * spec.V_field.values
        for c in (2.0, -2.0):
            h = _hessian_diag(spec, np.full(spec.grid.shape, c))
            np.testing.assert_allclose(lam_v - h, 12.0, rtol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(q=st.one_of(st.floats(2.1, 6.0), st.sampled_from([3.0, 4.0, 5.0, 6.0])),
           u=st.floats(-50.0, 50.0))
    def test_superquadratic_identity(self, q, u):
        # theta = q makes theta*F = u*f exactly; the excess scrF is
        # (1/2 - 1/q)|u|^q >= 0
        excess = float(eval_scrF(_spec(q=q), u))
        assert excess >= 0.0
        assert excess == pytest.approx((0.5 - 1.0 / q) * abs(u) ** q, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("q", [3.0, 4.0, 5.0, 6.0])
    def test_whole_powers_match_pow(self, q):
        # F, f and f' take |u|^q, |u|^(q-1) and |u|^(q-2), whole powers
        # multiplied out; they agree with ** to a few ulps
        u = np.concatenate([[0.0, -0.0], np.geomspace(1e-30, 1e30, 301)])
        u = np.concatenate([u, -u])
        a = np.abs(u)
        for k in (q, q - 1.0, q - 2.0):
            np.testing.assert_array_max_ulp(_abs_power(u, k), a**k, maxulp=4)
        assert eval_scrF(_spec(q=q), 0.0) == 0.0

    def test_overflowing_row_reads_infinite_energy(self):
        spec = canonical_coercive_spec(n=64)
        with np.errstate(over="ignore"):
            assert _energy_parts(spec, np.full(spec.grid.shape, 1e90)).total == math.inf
        u = 0.1 * spec.xi_field.values
        assert _energy_parts(spec, u) == energy(spec, Field(spec.grid, u))

    def test_scrF_closed_form(self):
        spec = canonical_coercive_spec()
        assert eval_scrF(spec, 2.0) == pytest.approx(4.0)  # (1/2)(2)(8) - 4
        assert eval_scrF(spec, 0.0) == 0.0
        u = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(eval_scrF(spec, u), 0.25 * np.abs(u) ** 4,
                                   rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# potentials and weights


def test_coercive_quadratic_values():
    g = Grid(1, 64, 20.0)
    vals = CoerciveQuadraticPotential().values(g)
    np.testing.assert_allclose(vals, 1.0 + g.axis_coords**2)


def test_well_shape():
    g = Grid(1, 256, 40.0)
    V = WellPotential(radius=1.0, height=50.0, ramp=1.0)
    vals = V.values(g)
    r = np.abs(g.axis_coords)
    assert np.all(vals[r <= 1.0] == 0.0)
    assert np.all(vals[r >= 2.0] == 50.0)
    ramp = (r > 1.0) & (r < 2.0)
    np.testing.assert_allclose(vals[ramp], 50.0 * (r[ramp] - 1.0) ** 2)


def test_well_parameter_validation():
    with pytest.raises(ValueError, match="positive"):
        WellPotential(radius=0.0, height=50.0, ramp=1.0)
    with pytest.raises(ValueError, match="positive"):
        WellPotential(radius=1.0, height=-1.0, ramp=1.0)


def test_gaussian_weight():
    g = Grid(1, 64, 20.0)
    np.testing.assert_allclose(_spec(grid=g).xi_field.values, np.exp(-g.axis_coords**2))


_RADIAL = {
    "coercive": CoerciveQuadraticPotential(),
    "well": WellPotential(radius=1.0, height=50.0, ramp=1.0),
    "steep-narrow-well": WellPotential(radius=0.3, height=1e6, ramp=0.01),
}


@pytest.mark.parametrize("dim,n,box_length", [
    (1, 256, 40.0), (1, 408, 7.3), (2, 48, 15.0), (2, 64, 40.0), (2, 30, 1.7),
    (3, 16, 10.0), (3, 32, 10.0), (3, 24, 2.9), (1, 255, 40.0), (2, 47, 15.0), (3, 15, 10.0),
])
@pytest.mark.parametrize("family", sorted(_RADIAL))
def test_v_and_xi_are_even_and_restrict_to_the_half_problem(family, dim, n, box_length):
    # the even subspace rests on V and xi being even in each x_i, which
    # ProblemSpec.even_half takes on trust: both potential families and
    # xi are radial, so to roundoff on the grid, and the half problem's
    # own V and xi, built at the full grid's own coordinates, are the full
    # grid's restricted, to the bit, for an even and an odd n
    spec = _spec(grid=Grid(dim, n, box_length), q=3.0, potential=_RADIAL[family])
    half = spec.even_half
    assert half.grid == spec.grid.half
    for full, on_half in ((spec.V_field, half.V_field), (spec.xi_field, half.xi_field)):
        assert _is_even(spec.grid, full.values)
        assert np.array_equal(on_half.values, _restrict(spec.grid, full.values))


# ---------------------------------------------------------------------------
# ProblemSpec validation


def _spec(grid=None, **overrides):
    base = dict(grid=grid or Grid(1, 64, 20.0), alpha=0.75, lam=1.0,
                mu=0.01, p=1.5)
    base.update(overrides)
    return ProblemSpec(**base)


class TestProblemSpecValidation:
    def test_valid_spec_builds(self):
        spec = _spec()
        assert spec.alpha == 0.75

    def test_errors_accumulate(self):
        with pytest.raises(ValueError) as err:
            _spec(alpha=1.5, lam=-1.0, p=2.5)
        msg = str(err.value)
        assert "alpha" in msg and "lam" in msg and "p" in msg

    def test_q_checked_against_critical_exponent(self):
        # d=3, alpha=0.75: critical exponent is 4, so q=4 is out
        g3 = Grid(3, 16, 10.0)
        with pytest.raises(ValueError, match="growth exponent"):
            _spec(grid=g3, q=4.0)
        _spec(grid=g3, q=3.5)  # inside: fine

    def test_potential_is_one_of_the_two_families(self):
        # the even subspace takes V to be radial, as both families are
        with pytest.raises(ValueError) as err:
            _spec(potential=object())
        assert str(err.value) == ("potential: must be a CoerciveQuadraticPotential or a "
                                  "WellPotential, got object")

    def test_mu_zero_allowed(self):
        assert _spec(mu=0.0).mu == 0.0


# ---------------------------------------------------------------------------
# energy and residual


def test_energy_decomposition_identity(coercive_spec):
    u = random_field(coercive_spec.grid, _rng(0), envelope_sigma=3.0)
    bd = energy(coercive_spec, u)
    assert bd.total == bd.quad - bd.f_term - bd.xi_term
    g = coercive_spec.grid
    lam_sq = (_bessel_norm_sq(g, u.values, coercive_spec.alpha)
              + _potential(g, u.values, coercive_spec.V_field.values, coercive_spec.lam))
    assert bd.quad == pytest.approx(0.5 * lam_sq, rel=1e-12)
    assert bd.f_term >= 0.0 and bd.xi_term >= 0.0


def test_energy_terms_against_direct_sums(coercive_spec):
    g = coercive_spec.grid
    u = Field(g, np.exp(-g.axis_coords**2))
    bd = energy(coercive_spec, u)
    f_direct = float(np.sum(np.abs(u.values) ** 4 / 4.0) * g.cell_volume)
    xi_direct = (0.01 / 1.5) * float(
        np.sum(np.exp(-g.axis_coords**2) * np.abs(u.values) ** 1.5) * g.cell_volume)
    assert bd.f_term == pytest.approx(f_direct, rel=1e-12)
    assert bd.xi_term == pytest.approx(xi_direct, rel=1e-12)


def test_energy_monotone_in_lam():
    g = Grid(1, 128, 40.0)
    u = Field(g, np.exp(-g.radius_sq))
    low = energy(_spec(grid=g, lam=1.0), u).quad
    high = energy(_spec(grid=g, lam=2.0), u).quad
    assert high > low


def test_energy_rejects_mismatched_grid(coercive_spec):
    other = Field(Grid(1, 128, 40.0), np.zeros(128))
    with pytest.raises(ValueError, match="grid"):
        energy(coercive_spec, other)


def test_energy_overflow_reported(coercive_spec):
    big = Field(coercive_spec.grid, np.full(coercive_spec.grid.shape, 1e100))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            energy(coercive_spec, big)


def _one_spec_per_dim():
    """One spec per dim: quartic in 1-D, cubic in 2-D and in the 3-D well."""
    return [
        _spec(grid=Grid(1, 64, 20.0)),
        _spec(grid=Grid(2, 16, 12.0), q=3.0),
        _spec(grid=Grid(3, 8, 10.0), q=3.0,
              potential=WellPotential(radius=1.0, height=5.0, ramp=1.0)),
    ]


@pytest.mark.parametrize("spec", _one_spec_per_dim(), ids=["1d", "2d-cubic", "3d-well"])
def test_energy_and_residual_rows_match_field_api(spec):
    g = spec.grid
    rng = _rng(g.dim)
    for _ in range(4):
        u = random_field(g, rng, envelope_sigma=2.0).values * 3.0
        parts = _energy_parts(spec, u)
        assert all(type(x) is float for x in parts)
        f = Field(g, u)
        assert parts == energy(spec, f)
        assert parts.xi_integral == float(
            np.sum(spec.xi_field.values * np.abs(u) ** spec.p) * g.cell_volume)
        assert np.array_equal(_residual_values(spec, u), residual(spec, f).values)


def test_energy_rows_overflow_is_per_row(coercive_spec):
    g = coercive_spec.grid
    with np.errstate(over="ignore", invalid="ignore"):
        assert _energy_parts(coercive_spec, np.full(g.shape, 1e100)).total == math.inf
    for scale in (1.0, 2.0):
        u = scale * np.exp(-g.radius_sq)
        assert _energy_parts(coercive_spec, u).total == energy(coercive_spec, Field(g, u)).total


def test_residual_zero_at_zero(coercive_spec):
    zero = Field(coercive_spec.grid, np.zeros(coercive_spec.grid.shape))
    assert lp_norm(residual(coercive_spec, zero), 2) == 0.0


def test_residual_is_the_gradient(coercive_spec):
    """Weak-form pairing of the residual equals the FD directional derivative."""
    g = coercive_spec.grid
    h = 1e-4
    for seed in range(5):
        rng = _rng(seed)
        u = random_field(g, rng, envelope_sigma=3.0)
        v = random_field(g, rng, envelope_sigma=3.0)
        u = u * (1.0 / lp_norm(u, 2))
        v = v * (1.0 / lp_norm(v, 2))
        pair = float(np.sum(residual(coercive_spec, u).values * v.values) * g.cell_volume)
        fd = (energy(coercive_spec, u + h * v).total
              - energy(coercive_spec, u - h * v).total) / (2.0 * h)
        assert fd == pytest.approx(pair, rel=1e-6)


# ---------------------------------------------------------------------------
# assumption validation


def test_canonical_coercive_assumptions_pass(coercive_spec):
    # only the coercive family's hypotheses run: V = 1 + |x|^2 has no zero
    # set to erode and no sublevel set to bound
    record = validate_assumptions(coercive_spec)
    assert record.passed
    assert [c["name"] for c in record.data["checks"]] == ["ball_integrals_decay",
                                                          "weight_integrable"]
    assert all(c["pass"] for c in record.data["checks"])


def test_canonical_well_assumptions_pass(well_spec):
    # only the well family's: V vanishes inside the well, so neither a
    # positive infimum nor decaying ball integrals of 1/V is asked of it
    record = validate_assumptions(well_spec, b=10.0)
    assert record.passed
    assert [c["name"] for c in record.data["checks"]] == ["finite_sublevel", "flat_zero_region",
                                                          "weight_integrable"]
    assert all(c["pass"] for c in record.data["checks"])


@settings(max_examples=200, deadline=None)
@given(shape=st.integers(1, 3).flatmap(lambda dim: st.tuples(*[st.integers(1, 12)] * dim)),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_erosion_matches_ndimage(shape, density, seed):
    # face connectivity, no wrap-around, the box edge erodes; random masks
    # touch the edge in most draws
    mask = _rng(seed).random(shape) < density
    np.testing.assert_array_equal(_erode(mask), ndimage.binary_erosion(mask))


# the flat_zero_region checks: (pass, detail, witness); a coercive V >= 1
# has no zero set, and the hypothesis does not run on it.  On the 3-D grid
# of spacing 2.5 the well's zero set is one point, with no interior
_FLAT_ZERO = {
    "coercive": None,
    "well": (True, "zero set has measure 2.031, 13 grid point(s) of which 11 interior",
             {"measure": 2.03125, "points": 13, "interior": 11}),
    "verify-2d-coercive": None,
    "verify-2d-well": (True, "zero set has measure 3.516, 9 grid point(s) of which 1 interior",
                       {"measure": 3.515625, "points": 9, "interior": 1}),
    "verify-3d-well": (False, "zero set has measure 15.62, 1 grid point(s) of which 0 interior",
                       {"measure": 15.625, "points": 1, "interior": 0}),
}


@pytest.mark.parametrize("name", sorted(_FLAT_ZERO))
def test_flat_zero_region_pins(name):
    if name.startswith("verify-2d"):
        family = "well" if name.endswith("well") else "coercive_quadratic"
        spec = build_spec(RunConfig(mode="verify", dim=2, n=64, box_length=40.0,
                                    potential=family, trials=1000))
    elif name == "verify-3d-well":
        spec = build_spec(RunConfig(mode="verify", dim=3, n=16, potential="well", q=3.0,
                                    tau=2.2, s_list=(2.0, 3.0)))
    else:
        spec = canonical_well_spec() if name == "well" else canonical_coercive_spec()
    record = validate_assumptions(spec)
    if _FLAT_ZERO[name] is None:
        assert "flat_zero_region" not in {c["name"] for c in record.data["checks"]}
        return
    check = hypothesis_entry(record, "flat_zero_region")
    passed, detail, witness = _FLAT_ZERO[name]
    assert check["pass"] is passed and record.passed is passed
    assert check["detail"] == detail + "; boundary smoothness is not machine-checkable"
    assert check["witness"] == witness


def test_flat_potential_fails_ball_decay():
    # on a box of 10 the ladder's balls reach only |x| = 3.5, where the
    # coercive V is still too flat for the ball integrals of 1/V to fall
    # below a tenth of their start; the other hypothesis holds
    spec = _spec(grid=Grid(1, 256, 10.0))
    record = validate_assumptions(spec)
    failed = {c["name"] for c in record.data["checks"] if not c["pass"]}
    assert failed == {"ball_integrals_decay"}
    assert not record.passed


@pytest.mark.parametrize("q", [2.05, 2.2, 2.4, 3.0, 4.0])
def test_vanishing_at_zero_holds_for_every_power_above_two(q):
    # f(u)/u = |u|^(q-2) -> 0 for every q > 2, so the spec's q window decides
    # this hypothesis and validate_assumptions runs no scan of f for it
    spec = replace(canonical_coercive_spec(), q=q)
    record = validate_assumptions(spec)
    assert record.passed
    assert not {"growth_bound", "vanishing_at_zero", "superquadratic"} & {
        c["name"] for c in record.data["checks"]}


def test_canonical_specs_echo_parameters():
    c = canonical_coercive_spec()
    assert (c.alpha, c.lam, c.mu, c.p) == (0.75, 1.0, 0.01, 1.5)
    assert c.q == 4.0
    assert c.grid.n == 256 and c.grid.box_length == 40.0

    w = canonical_well_spec()
    assert (w.lam, w.mu) == (100.0, 0.05)
    assert w.potential.radius == 1.0
    assert w.potential.height == 50.0
