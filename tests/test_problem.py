"""Problem data: nonlinearities, potentials, energy, residual, validators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselmp import (
    CoerciveQuadraticPotential,
    CustomNonlinearity,
    CustomPotential,
    Field,
    GaussianWeight,
    PowerNonlinearity,
    ProblemSpec,
    WellPotential,
    canonical_coercive_spec,
    canonical_well_spec,
    critical_exponent,
    energy,
    lp_norm,
    precond_gradient,
    random_field,
    residual,
    validate_assumptions,
    weighted_norm_sq,
)
from besselmp.grid import apply_multiplier, make_grid
from besselmp.problem import _energy_rows, _residual_rows, eval_F, eval_f, eval_scrF


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


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
        assert nl.f(None, 2.0) == pytest.approx(8.0)
        assert nl.f(None, -2.0) == pytest.approx(-8.0)
        assert nl.F(None, 2.0) == pytest.approx(4.0)
        assert nl.F(None, -2.0) == pytest.approx(4.0)
        assert nl.f(None, 0.0) == 0.0
        assert nl.F(None, 0.0) == 0.0
        assert nl.theta == 4.0

    def test_f_prime(self):
        nl = PowerNonlinearity(4.0)
        assert nl.f_prime(None, 2.0) == pytest.approx(12.0)
        assert nl.f_prime(None, -2.0) == pytest.approx(12.0)

    @settings(deadline=None, max_examples=50)
    @given(q=st.one_of(st.floats(2.1, 6.0), st.sampled_from([3.0, 4.0, 5.0, 6.0])),
           u=st.floats(-50.0, 50.0))
    def test_superquadratic_identity(self, q, u):
        # theta = q makes theta*F = u*f exactly; the excess scrF is
        # (1/2 - 1/q)|u|^q >= 0
        nl = PowerNonlinearity(q)
        F = float(nl.F(None, u))
        uf = u * float(nl.f(None, u))
        assert F >= 0.0
        assert uf == pytest.approx(q * F, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("q", [3.0, 4.0, 5.0, 6.0])
    def test_whole_powers_match_pow(self, q):
        # whole powers are multiplied out; they agree with ** to a few ulps
        nl = PowerNonlinearity(q)
        u = np.concatenate([[0.0, -0.0], np.geomspace(1e-30, 1e30, 301)])
        u = np.concatenate([u, -u])
        a = np.abs(u)
        for got, want in ((nl.F(None, u), a**q / q),
                          (nl.f(None, u), np.sign(u) * a ** (q - 1.0)),
                          (nl.f_prime(None, u), (q - 1.0) * a ** (q - 2.0))):
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        assert nl.f(None, 0.0) == nl.F(None, 0.0) == 0.0
        assert nl.f(None, -2.0) == -(2.0 ** (q - 1.0))

    def test_overflowing_row_reads_infinite_energy(self):
        spec = canonical_coercive_spec(n=64)
        u = np.stack([np.full(spec.grid.shape, 1e90), 0.1 * spec.xi_field.values])
        with np.errstate(over="ignore"):
            total = _energy_rows(spec, u).total
        assert total[0] == math.inf
        assert total[1] == energy(spec, Field(spec.grid, u[1])).total

    def test_scrF_closed_form(self):
        spec = canonical_coercive_spec()
        assert eval_scrF(spec, 2.0) == pytest.approx(4.0)  # (1/2)(2)(8) - 4
        assert eval_scrF(spec, 0.0) == 0.0
        u = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(eval_scrF(spec, u), 0.25 * np.abs(u) ** 4,
                                   rtol=1e-12, atol=1e-300)


def test_custom_nonlinearity_wraps_callables():
    nl = CustomNonlinearity(
        f_fn=lambda x, u: u**3,
        F_fn=lambda x, u: 0.25 * u**4,
        q=4.0, theta=4.0,
    )
    assert nl.f(None, 2.0) == pytest.approx(8.0)
    assert nl.F(None, 2.0) == pytest.approx(4.0)
    # derivative falls back to central differencing
    assert nl.f_prime(None, 2.0) == pytest.approx(12.0, rel=1e-5)


def test_eval_helpers_match_nonlinearity():
    spec = canonical_coercive_spec()
    u = np.array([-1.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(eval_f(spec, u), np.sign(u) * np.abs(u) ** 3)
    np.testing.assert_allclose(eval_F(spec, u), np.abs(u) ** 4 / 4.0)


# ---------------------------------------------------------------------------
# potentials and weights


def test_coercive_quadratic_values():
    g = make_grid(1, 64, 20.0)
    vals = CoerciveQuadraticPotential().values(g)
    np.testing.assert_allclose(vals, 1.0 + g.axis_coords**2)


def test_well_shape():
    g = make_grid(1, 256, 40.0)
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
    g = make_grid(1, 64, 20.0)
    np.testing.assert_allclose(GaussianWeight().values(g), np.exp(-g.axis_coords**2))


# ---------------------------------------------------------------------------
# ProblemSpec validation


def _spec(grid=None, **overrides):
    base = dict(grid=grid or make_grid(1, 64, 20.0), alpha=0.75, lam=1.0,
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
        g3 = make_grid(3, 16, 10.0)
        with pytest.raises(ValueError, match="growth exponent"):
            _spec(grid=g3, nonlinearity=PowerNonlinearity(4.0))
        _spec(grid=g3, nonlinearity=PowerNonlinearity(3.5))  # inside: fine

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
        0.5 * weighted_norm_sq(u, coercive_spec.V_field, coercive_spec.lam,
                               coercive_spec.alpha), rel=1e-12)
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
    g = make_grid(1, 128, 40.0)
    u = Field(g, np.exp(-g.radius_sq))
    low = energy(_spec(grid=g, lam=1.0), u).quad
    high = energy(_spec(grid=g, lam=2.0), u).quad
    assert high > low


def test_energy_rejects_mismatched_grid(coercive_spec):
    other = Field(make_grid(1, 128, 40.0), np.zeros(128))
    with pytest.raises(ValueError, match="grid"):
        energy(coercive_spec, other)


def test_energy_overflow_reported(coercive_spec):
    big = Field(coercive_spec.grid, np.full(coercive_spec.grid.shape, 1e100))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            energy(coercive_spec, big)


def _row_specs():
    """One spec per dim; the 2-D one uses a nonlinearity that depends on x."""

    def weight(x):
        return 1.0 + 0.5 * np.exp(-x[0] ** 2)

    custom = CustomNonlinearity(
        f_fn=lambda x, u: weight(x) * np.sign(u) * np.abs(u) ** 3.0,
        F_fn=lambda x, u: weight(x) * np.abs(u) ** 4.0 / 4.0, q=4.0, theta=4.0)
    return [
        _spec(grid=make_grid(1, 64, 20.0)),
        _spec(grid=make_grid(2, 16, 12.0), nonlinearity=custom),
        _spec(grid=make_grid(3, 8, 10.0), nonlinearity=PowerNonlinearity(3.0),
              potential=WellPotential(radius=1.0, height=5.0, ramp=1.0)),
    ]


@pytest.mark.parametrize("spec", _row_specs(), ids=["1d", "2d-custom", "3d-well"])
def test_energy_and_residual_rows_match_field_api(spec):
    g = spec.grid
    rng = _rng(g.dim)
    u = np.stack([random_field(g, rng, envelope_sigma=2.0).values * 3.0 for _ in range(4)])
    rows = _energy_rows(spec, u)
    res = _residual_rows(spec, u)
    assert rows.total.shape == (4,) and res.shape == u.shape
    for i, row in enumerate(u):
        f = Field(g, row)
        bd = energy(spec, f)
        assert (rows.quad[i], rows.f_term[i], rows.xi_term[i], rows.total[i]) == \
            (bd.quad, bd.f_term, bd.xi_term, bd.total)
        assert rows.xi_integral[i] == float(
            np.sum(spec.xi_field.values * np.abs(row) ** spec.p) * g.cell_volume)
        assert np.array_equal(res[i], residual(spec, f).values)


def test_energy_rows_overflow_is_per_row(coercive_spec):
    g = coercive_spec.grid
    u = np.stack([np.exp(-g.radius_sq), np.full(g.shape, 1e100), 2.0 * np.exp(-g.radius_sq)])
    with np.errstate(over="ignore", invalid="ignore"):
        total = _energy_rows(coercive_spec, u).total
    assert total[1] == math.inf
    assert total[0] == energy(coercive_spec, Field(g, u[0])).total
    assert total[2] == energy(coercive_spec, Field(g, u[2])).total


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


def test_precond_gradient_inverts_to_residual(coercive_spec):
    u = random_field(coercive_spec.grid, _rng(9), envelope_sigma=3.0)
    r = residual(coercive_spec, u)
    back = apply_multiplier(precond_gradient(coercive_spec, u), coercive_spec.alpha)
    scale = float(np.max(np.abs(r.values)))
    assert np.max(np.abs(back.values - r.values)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# assumption validation


def test_canonical_coercive_assumptions_pass(coercive_spec):
    report = validate_assumptions(coercive_spec)
    assert report.passed
    assert report.by_name("positive_infimum").passed
    assert report.by_name("ball_integrals_decay").passed
    assert report.by_name("weight_integrable").passed
    # well-only checks run but are not required for this family
    assert not report.by_name("flat_zero_region").required


def test_canonical_well_assumptions_pass(well_spec):
    report = validate_assumptions(well_spec, b=10.0)
    assert report.passed
    assert report.by_name("nonnegative").passed
    assert report.by_name("finite_sublevel").passed
    assert report.by_name("flat_zero_region").passed
    # a flat well has no positive infimum; that check applies to the
    # coercive family only
    assert not report.by_name("positive_infimum").passed
    assert not report.by_name("positive_infimum").required


def test_flat_potential_fails_ball_decay():
    spec = _spec(grid=make_grid(1, 256, 40.0),
                 potential=CustomPotential(lambda x: np.ones_like(x)))
    report = validate_assumptions(spec)
    assert not report.by_name("ball_integrals_decay").passed
    assert not report.passed


def test_by_name_raises_on_unknown(coercive_spec):
    report = validate_assumptions(coercive_spec)
    with pytest.raises(KeyError):
        report.by_name("no_such_check")


def test_canonical_specs_echo_parameters():
    c = canonical_coercive_spec()
    assert (c.alpha, c.lam, c.mu, c.p) == (0.75, 1.0, 0.01, 1.5)
    assert c.nonlinearity.q == 4.0
    assert c.grid.n == 256 and c.grid.box_length == 40.0

    w = canonical_well_spec()
    assert (w.lam, w.mu) == (100.0, 0.05)
    assert w.potential.radius == 1.0
    assert w.potential.height == 50.0
