"""The closed-form kernel and the real-space operator route."""

import math

import numpy as np
import pytest
from scipy import special

from besselmp import Field, Grid, apply_multiplier
from besselmp.kernels import (
    KERNEL_REL_ERROR,
    bessel_kernel,
    calibrate_pointwise_constant,
    pointwise_apply,
)


def closed_kernel(r, order, dim):
    """The closed form written independently, with nu = |dim - order|/2:

    G(r) = K_nu(r) r^{(order-dim)/2}
           / (2^{(dim+order-2)/2} pi^{dim/2} Gamma(order/2)).
    """
    nu = abs(0.5 * (dim - order))
    const = (2.0 ** (0.5 * (dim + order - 2.0))
             * math.pi ** (0.5 * dim) * math.gamma(0.5 * order))
    return special.kv(nu, r) * r ** (0.5 * (order - dim)) / const


# ---------------------------------------------------------------------------
# bessel_kernel

# orders whose nu = (dim - order)/2 is +-1/2, where K_nu reduces to an exponential
EXPONENTIAL_CASES = {
    (1, 2.0): lambda r: 0.5 * math.exp(-r),
    (2, 1.0): lambda r: math.exp(-r) / (2.0 * math.pi * r),
    (2, 3.0): lambda r: math.exp(-r) / (2.0 * math.pi),
    (3, 2.0): lambda r: math.exp(-r) / (4.0 * math.pi * r),
    (3, 4.0): lambda r: math.exp(-r) / (8.0 * math.pi),
}

# (dim, order, radius) -> value, from the t-integral's closed form in
# 30-digit arithmetic (mpmath), at radii where adaptive quadrature of the
# t-integral misreports or fails
REFERENCES = {
    (1, 1.5, 1e-4): 0.82664799883217631554,
    (1, 0.5, 1e-4): 39.512848290610360709,
    (2, 0.5, 1e-6): 76074279.756440492016,
    (3, 0.5, 1e-3): 1003921.5527452726061,
    (3, 0.25, 1e-3): 3168507.1392578023153,
}


@pytest.mark.parametrize("dim,order", list(EXPONENTIAL_CASES))
def test_kernel_half_integer_cases_are_exponentials(dim, order):
    for r in (1e-6, 0.25, 1.0, 4.0, 50.0):
        k = bessel_kernel(r, order, dim)
        assert k.value == pytest.approx(EXPONENTIAL_CASES[dim, order](r), rel=1e-12)
        assert k.est_error == KERNEL_REL_ERROR * k.value


@pytest.mark.parametrize("point", list(REFERENCES), ids=str)
def test_kernel_matches_30_digit_references(point):
    dim, order, radius = point
    assert bessel_kernel(radius, order, dim).value == pytest.approx(REFERENCES[point], rel=1e-12)


@pytest.mark.parametrize("order,dim", [
    (1.0, 1), (1.5, 1), (2.0, 1), (3.0, 1),
    (2.0, 2), (2.5, 2), (3.0, 3), (4.0, 3),
])
def test_kernel_matches_closed_form(order, dim):
    for r in (1e-8, 0.25, 1.0, 3.0, 300.0):
        got = bessel_kernel(r, order, dim).value
        assert got == pytest.approx(closed_kernel(r, order, dim), rel=1e-12)


def test_kernel_positive_and_decreasing():
    for order, dim in ((0.5, 1), (1.5, 1), (2.0, 2)):
        ladder = [bessel_kernel(r, order, dim).value for r in np.geomspace(0.1, 8.0, 9)]
        assert all(v > 0 for v in ladder)
        assert all(b < a for a, b in zip(ladder, ladder[1:]))


def test_kernel_unit_mass_order_two():
    # symbol at frequency zero is 1, so the kernel integrates to 1
    from scipy import integrate
    total, _ = integrate.quad(lambda r: 2.0 * bessel_kernel(r, 2.0, 1).value,
                              1e-6, 40.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-5)


def test_kernel_input_validation():
    with pytest.raises(ValueError, match="radius"):
        bessel_kernel(0.0, 2.0, 1)
    with pytest.raises(ValueError, match="order"):
        bessel_kernel(1.0, -1.0, 1)
    with pytest.raises(ValueError, match="dim"):
        bessel_kernel(1.0, 2.0, 4)


@pytest.mark.parametrize("radius,order,dim,what", [
    (1.0, 400.0, 1, "overflows"),    # Gamma(200) and K_199.5(1) are past the float range
    (1.0, 300.0, 1, "overflows"),    # K_149.5(1) is
    (1000.0, 0.5, 1, "underflows"),  # K_nu(1000) ~ exp(-1000)
])
def test_kernel_refuses_values_outside_the_float_range(radius, order, dim, what):
    with pytest.raises(ValueError, match=rf"radius={radius}, order={order}, dim={dim} {what}"):
        bessel_kernel(radius, order, dim)


def test_convolution_duality():
    """Convolving with the kernel of order 2*alpha inverts the multiplier.

    The kernel has a cusp at the origin, so the Riemann sum needs a fine
    grid to reach 1e-4; measured error at this resolution is ~2e-5.
    """
    L, alpha, n_fine = 40.0, 0.75, 32768
    h = L / n_fine
    disp = h * np.arange(n_fine)
    disp = np.where(disp > 0.5 * L, disp - L, disp)
    r = np.maximum(np.abs(disp), 1e-9)
    kernel = np.array([bessel_kernel(x, 2.0 * alpha, 1).value for x in r])
    u_fine = np.exp(-(-0.5 * L + h * np.arange(n_fine)) ** 2)
    conv = np.fft.ifft(np.fft.fft(u_fine) * np.fft.fft(kernel)).real * h

    g = Grid(1, 256, L)
    u = Field(g, np.exp(-g.axis_coords**2))
    target = apply_multiplier(u, -alpha).values
    got = conv[:: n_fine // g.n]
    assert np.max(np.abs(got - target)) <= 1e-4 * np.max(np.abs(target))


# ---------------------------------------------------------------------------
# real-space operator


def test_calibrated_constants_regression():
    # frozen from the first calibration run; the alpha = 0.5 value lands on
    # 1/pi to five digits, a useful cross-check that the scaling is sane
    frozen = {0.25: 0.193577, 0.5: 0.318310, 0.75: 0.277583}
    for alpha, value in frozen.items():
        assert calibrate_pointwise_constant(alpha) == pytest.approx(value, rel=0.02)


def test_constant_at_one_half_is_one_over_pi():
    # the closed form 2^(alpha + 1/2) alpha / (sqrt(pi) Gamma(1 - alpha)) at alpha = 1/2
    assert calibrate_pointwise_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_calibration_rejects_bad_alpha():
    with pytest.raises(ValueError, match="0 < alpha < 1"):
        calibrate_pointwise_constant(1.5)


def test_pointwise_constant_field_is_fixed():
    g = Grid(1, 256, 40.0)
    u = Field(g, np.full(g.shape, 2.5))
    assert pointwise_apply(u, 0.0, 0.5) == pytest.approx(2.5, rel=1e-10)


def test_pointwise_even_symmetry():
    g = Grid(1, 256, 40.0)
    u = Field(g, np.exp(-g.axis_coords**2))
    for x in (0.625, 1.25, 2.5):
        plus = pointwise_apply(u, x, 0.75)
        minus = pointwise_apply(u, -x, 0.75)
        assert plus == pytest.approx(minus, rel=1e-6)


def test_pointwise_input_validation():
    g = Grid(1, 256, 40.0)
    u = Field(g, np.exp(-g.axis_coords**2))
    with pytest.raises(ValueError, match="0 < alpha < 1"):
        pointwise_apply(u, 0.0, 1.2)
    with pytest.raises(ValueError, match="not a grid point"):
        pointwise_apply(u, 0.1001, 0.5)
    ramp = Field(g, g.axis_coords)  # varies right up to the edge
    with pytest.raises(ValueError, match="box edge"):
        pointwise_apply(ramp, 0.0, 0.5)
    with pytest.raises(NotImplementedError):
        pointwise_apply(Field(Grid(2, 32, 10.0), np.zeros((32, 32))), 0.0, 0.5)
