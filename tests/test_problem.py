"""Problem data: nonlinearities, potentials, energy, residual, validators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from besselmp import (
    CoerciveQuadraticPotential,
    CustomPotential,
    Field,
    Grid,
    GaussianWeight,
    PowerNonlinearity,
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
from besselmp.grid import _weighted_norm_sq
from besselmp.problem import _energy_parts, _residual_values, eval_scrF
from besselmp.verify import _component_count, _erode
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
# nonlinearities


class TestPowerNonlinearity:
    def test_quartic_values(self):
        nl = PowerNonlinearity(4.0)
        assert nl.f(2.0) == pytest.approx(8.0)
        assert nl.f(-2.0) == pytest.approx(-8.0)
        assert nl.F(2.0) == pytest.approx(4.0)
        assert nl.F(-2.0) == pytest.approx(4.0)
        assert nl.f(0.0) == 0.0
        assert nl.F(0.0) == 0.0
        assert nl.theta == 4.0

    def test_f_prime(self):
        nl = PowerNonlinearity(4.0)
        assert nl.f_prime(2.0) == pytest.approx(12.0)
        assert nl.f_prime(-2.0) == pytest.approx(12.0)

    @settings(deadline=None, max_examples=50)
    @given(q=st.one_of(st.floats(2.1, 6.0), st.sampled_from([3.0, 4.0, 5.0, 6.0])),
           u=st.floats(-50.0, 50.0))
    def test_superquadratic_identity(self, q, u):
        # theta = q makes theta*F = u*f exactly; the excess scrF is
        # (1/2 - 1/q)|u|^q >= 0
        nl = PowerNonlinearity(q)
        F = float(nl.F(u))
        uf = u * float(nl.f(u))
        assert F >= 0.0
        assert uf == pytest.approx(q * F, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("q", [3.0, 4.0, 5.0, 6.0])
    def test_whole_powers_match_pow(self, q):
        # whole powers are multiplied out; they agree with ** to a few ulps
        nl = PowerNonlinearity(q)
        u = np.concatenate([[0.0, -0.0], np.geomspace(1e-30, 1e30, 301)])
        u = np.concatenate([u, -u])
        a = np.abs(u)
        for got, want in ((nl.F(u), a**q / q),
                          (nl.f(u), np.sign(u) * a ** (q - 1.0)),
                          (nl.f_prime(u), (q - 1.0) * a ** (q - 2.0))):
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        assert nl.f(0.0) == nl.F(0.0) == 0.0
        assert nl.f(-2.0) == -(2.0 ** (q - 1.0))

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
    np.testing.assert_allclose(GaussianWeight().values(g), np.exp(-g.axis_coords**2))


# ---------------------------------------------------------------------------
# ProblemSpec validation


def _spec(grid=None, **overrides):
    base = dict(grid=grid or Grid(1, 64, 20.0), alpha=0.75, lam=1.0,
                mu=0.01, p=1.5)
    base.update(overrides)
    return ProblemSpec(**base)


class _LinearAtZero(PowerNonlinearity):
    """f(u) = u, which does not vanish faster than u at zero."""

    def f(self, u):
        return np.asarray(u, dtype=np.float64)


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
            _spec(grid=g3, nonlinearity=PowerNonlinearity(4.0))
        _spec(grid=g3, nonlinearity=PowerNonlinearity(3.5))  # inside: fine

    def test_only_the_power_law_is_accepted(self):
        # the probe and the solvers rest on the power law's closed-form fibering map
        with pytest.raises(ValueError) as err:
            replace(_spec(), nonlinearity=object())
        assert str(err.value) == "nonlinearity: must be a PowerNonlinearity, got object"
        for cfg in (RunConfig(), RunConfig(dim=2, n=16, box_length=15.0, potential="well"),
                    RunConfig(dim=3, n=8, box_length=10.0, q=3.0)):
            assert type(build_spec(cfg).nonlinearity) is PowerNonlinearity

    def test_a_power_law_subclass_is_refused(self):
        # a subclass may override f or F, and the ridge bound, the fibering
        # roots and the tail threshold assume the power law itself
        with pytest.raises(ValueError) as err:
            replace(_spec(), nonlinearity=_LinearAtZero(3.0))
        assert str(err.value) == "nonlinearity: must be a PowerNonlinearity, got _LinearAtZero"

    def test_mu_zero_allowed(self):
        assert _spec(mu=0.0).mu == 0.0

    def test_negative_potential_rejected_at_field_build(self):
        spec = _spec(potential=CustomPotential(lambda x: x * 0.0 - 1.0))
        with pytest.raises(ValueError, match="negative"):
            spec.V_field


# ---------------------------------------------------------------------------
# energy and residual


def test_energy_decomposition_identity(coercive_spec):
    u = random_field(coercive_spec.grid, _rng(0), envelope_sigma=3.0)
    bd = energy(coercive_spec, u)
    assert bd.total == bd.quad - bd.f_term - bd.xi_term
    assert bd.quad == pytest.approx(
        0.5 * _weighted_norm_sq(coercive_spec.grid, u.values, coercive_spec.V_field.values,
                                coercive_spec.lam, coercive_spec.alpha), rel=1e-12)
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
        _spec(grid=Grid(2, 16, 12.0), nonlinearity=PowerNonlinearity(3.0)),
        _spec(grid=Grid(3, 8, 10.0), nonlinearity=PowerNonlinearity(3.0),
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
    record = validate_assumptions(coercive_spec)
    assert record.passed
    assert hypothesis_entry(record, "positive_infimum")["pass"]
    assert hypothesis_entry(record, "ball_integrals_decay")["pass"]
    assert hypothesis_entry(record, "weight_integrable")["pass"]
    # well-only checks run but are not required for this family
    assert not hypothesis_entry(record, "flat_zero_region")["required"]


def test_canonical_well_assumptions_pass(well_spec):
    record = validate_assumptions(well_spec, b=10.0)
    assert record.passed
    assert hypothesis_entry(record, "finite_sublevel")["pass"]
    assert hypothesis_entry(record, "flat_zero_region")["pass"]
    # a flat well has no positive infimum; that check applies to the
    # coercive family only
    assert not hypothesis_entry(record, "positive_infimum")["pass"]
    assert not hypothesis_entry(record, "positive_infimum")["required"]


@settings(max_examples=200, deadline=None)
@given(shape=st.integers(1, 3).flatmap(lambda dim: st.tuples(*[st.integers(1, 12)] * dim)),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_erosion_and_component_count_match_ndimage(shape, density, seed):
    # face connectivity, no wrap-around, the box edge erodes; random masks
    # touch the edge in most draws
    mask = _rng(seed).random(shape) < density
    np.testing.assert_array_equal(_erode(mask), ndimage.binary_erosion(mask))
    assert _component_count(mask) == ndimage.label(mask)[1]


# the flat_zero_region checks as scipy.ndimage computed them
_FLAT_ZERO = {
    "coercive": (False, "zero set has measure 0 in 0 component(s)", 0.0, 0),
    "well": (True, "zero set has measure 2.031 in 1 component(s)", 2.03125, 1),
    "verify-2d-coercive": (False, "zero set has measure 0 in 0 component(s)", 0.0, 0),
    "verify-2d-well": (True, "zero set has measure 3.516 in 1 component(s)", 3.515625, 1),
}


@pytest.mark.parametrize("name", sorted(_FLAT_ZERO))
def test_flat_zero_region_pins(name):
    if name.startswith("verify-2d"):
        family = "well" if name.endswith("well") else "coercive_quadratic"
        spec = build_spec(RunConfig(mode="verify", dim=2, n=64, box_length=40.0,
                                    potential=family, trials=1000))
    else:
        spec = canonical_well_spec() if name == "well" else canonical_coercive_spec()
    check = hypothesis_entry(validate_assumptions(spec), "flat_zero_region")
    passed, detail, measure, components = _FLAT_ZERO[name]
    assert check["pass"] is passed
    assert check["detail"] == detail + "; boundary smoothness is not machine-checkable"
    assert check["witness"] == {"measure": measure, "components": components}


def test_flat_potential_fails_ball_decay():
    spec = _spec(grid=Grid(1, 256, 40.0),
                 potential=CustomPotential(lambda x: np.ones_like(x)))
    record = validate_assumptions(spec)
    assert not hypothesis_entry(record, "ball_integrals_decay")["pass"]
    assert not record.passed


@pytest.mark.parametrize("q", [2.05, 2.2, 2.4, 3.0, 4.0])
def test_vanishing_at_zero_holds_for_every_power_above_two(q):
    # f(u)/u = |u|^(q-2) -> 0 for every q > 2, so the spec's q window decides
    # this hypothesis and validate_assumptions runs no scan of f for it
    spec = replace(canonical_coercive_spec(), nonlinearity=PowerNonlinearity(q))
    u = np.geomspace(1e-8, 1e-1, 120)
    np.testing.assert_allclose(spec.nonlinearity.f(u) / u, u ** (q - 2.0), rtol=1e-13)
    record = validate_assumptions(spec)
    assert record.passed
    assert not {"growth_bound", "vanishing_at_zero", "superquadratic"} & {
        c["name"] for c in record.data["checks"]}


@pytest.mark.parametrize("family", ["coercve", "Well", None])
def test_custom_potential_refuses_an_unknown_family(family):
    # a family that no hypothesis gates would leave only the common four
    # required, so a constant V would pass without its ball-decay check
    with pytest.raises(ValueError, match=f"family: must be 'coercive' or 'well', got {family!r}"):
        CustomPotential(lambda x: np.ones_like(x), family=family)


def test_canonical_specs_echo_parameters():
    c = canonical_coercive_spec()
    assert (c.alpha, c.lam, c.mu, c.p) == (0.75, 1.0, 0.01, 1.5)
    assert c.nonlinearity.q == 4.0
    assert c.grid.n == 256 and c.grid.box_length == 40.0

    w = canonical_well_spec()
    assert (w.lam, w.mu) == (100.0, 0.05)
    assert w.potential.radius == 1.0
    assert w.potential.height == 50.0
