"""Bessel-potential kernel and a real-space route to the nonlocal operator.

The kernel G_alpha is evaluated by adaptive quadrature of its
one-dimensional integral representation

    G_alpha(x) = (4 pi)^{-alpha/2} / Gamma(alpha/2)
                 * int_0^inf exp(-pi |x|^2 / t) exp(-t / 4 pi) t^{(alpha-dim)/2 - 1} dt.

With frequencies measured in radians (xi_k = 2 pi k / L, as in the grid
module) this function is dual to the symbol (1 + |xi|^2)^{-alpha/2} with no
argument rescaling; the tests confirm that by a brute-force numeric inverse
transform of the symbol and by convolution against the spectral operator.

The real-space route writes (I - Laplacian)^alpha, 0 < alpha < 1, as
identity plus a principal-value integral against the weight
K_nu(|z|) / |z|^nu, nu = (dim + 2 alpha)/2, scaled by the constant

    c = 2^(1 - nu) pi^(-dim/2) 4^alpha alpha / Gamma(1 - alpha),

which is known in closed form, so the route stays independent of the
spectral operator it is checked against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .grid import Field, _require_kernel_points, spectral_derivative

__all__ = [
    "KernelEval",
    "bessel_kernel",
    "pointwise_apply",
    "calibrate_pointwise_constant",
]

REFINE_FACTOR = 8  # fine-grid points per grid point in the singular integral's trapezoid rule


@dataclass(frozen=True)
class KernelEval:
    radius: float
    order: float
    dim: int
    value: float
    est_error: float


def bessel_kernel(radius: float, order: float, dim: int) -> KernelEval:
    """Evaluate the kernel at one radius by quadrature of the t-integral.

    Returns the value together with the quadrature error estimate; the
    relative target is 1e-9 and non-convergence raises instead of returning
    garbage.
    """
    _require_kernel_points((radius,), (order,))
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")

    expo = 0.5 * (order - dim) - 1.0
    pr2 = math.pi * radius * radius

    def integrand(t):
        # log-form avoids 0 * inf at the t -> 0 end
        return math.exp(-pr2 / t - t / (4.0 * math.pi) + expo * math.log(t))

    t_cut = max(2.0 * math.pi * radius, 1.0)  # saddle of the exponent sits at 2 pi r
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        v1, e1 = integrate.quad(integrand, 0.0, t_cut, epsabs=0.0, epsrel=1e-11, limit=400)
        v2, e2 = integrate.quad(integrand, t_cut, np.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    prefactor = (4.0 * math.pi) ** (-0.5 * order) / math.gamma(0.5 * order)
    value = prefactor * (v1 + v2)
    est_error = prefactor * (e1 + e2)
    if value <= 0 or est_error > 1e-8 * value:
        raise RuntimeError(
            f"kernel quadrature failed at radius={radius}, order={order}, dim={dim}: "
            f"value={value}, est_error={est_error}"
        )
    return KernelEval(radius=float(radius), order=float(order), dim=dim,
                      value=value, est_error=est_error)


# ---------------------------------------------------------------------------
# real-space (singular integral) route, dim 1 only

@lru_cache(maxsize=None)
def _pv_weights(alpha, h_fine, count):
    """Weight table K_nu(z)/z^nu at z = j*h_fine and the moment int z^2 w dz."""
    nu = 0.5 * (1.0 + 2.0 * alpha)
    z = h_fine * np.arange(1, count + 1)
    w = special.kv(nu, z) / z**nu

    def moment(t):
        return t ** (2.0 - nu) * special.kv(nu, t)

    z_top = h_fine * count
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        m1, _ = integrate.quad(moment, 0.0, min(1.0, z_top), epsabs=0.0, epsrel=1e-10, limit=400)
        m2 = 0.0
        if z_top > 1.0:
            m2, _ = integrate.quad(moment, 1.0, z_top, epsabs=0.0, epsrel=1e-10, limit=400)
    return z, w, m1 + m2


def _singular_integral(field: Field, index: int, alpha: float) -> float:
    """P.V. integral of (u(x) - u(y)) against the kernel weight, window = half box.

    The second-order Taylor part is subtracted and integrated exactly, the
    smooth remainder by trapezoid on an FFT-refined grid; the (tiny) tail
    beyond half the box is dropped, which also makes constants exact.
    """
    g = field.grid
    nf = g.n * REFINE_FACTOR
    hf = g.spacing / REFINE_FACTOR
    # trigonometric interpolation onto the fine grid as scipy.signal.resample
    # does it: zero-pad the half spectrum, halving an even n's Nyquist bin
    half = np.zeros(nf // 2 + 1, dtype=complex)
    half[: g.n // 2 + 1] = np.fft.rfft(field.values)
    if g.n % 2 == 0:
        half[g.n // 2] *= 0.5
    u_fine = np.fft.irfft(half, nf) * REFINE_FACTOR
    count = nf // 2 - 1
    z, w, moment2 = _pv_weights(alpha, hf, count)

    i0 = index * REFINE_FACTOR
    j = np.arange(1, count + 1)
    diffs = 2.0 * field.values[index] - u_fine[(i0 + j) % nf] - u_fine[(i0 - j) % nf]
    upp = spectral_derivative(field, 0, 2).values[index]
    bracket = (diffs + upp * z**2) * w
    # trapezoid on [0, z_top] with the integrand extrapolating to 0 at z = 0
    smooth_part = hf * (np.sum(bracket) - 0.5 * bracket[-1])
    return -upp * moment2 + smooth_part


def _edge_variation_ok(field: Field) -> bool:
    band = np.abs(field.grid.axis_coords) >= 0.45 * field.grid.box_length
    edge = field.values[band]
    spread = np.ptp(field.values)
    return np.ptp(edge) <= 1e-6 * spread + 1e-13 * (1.0 + np.max(np.abs(field.values)))


def calibrate_pointwise_constant(alpha: float) -> float:
    """Scale constant of the singular-integral route, in closed form.

    c = 2^(alpha + 1/2) alpha / (sqrt(pi) Gamma(1 - alpha)), the 1-D case
    (nu = alpha + 1/2) of the module's constant; alpha = 1/2 gives 1/pi.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"pointwise route needs 0 < alpha < 1, got {alpha}")
    return 2.0 ** (alpha + 0.5) * alpha / (math.sqrt(math.pi) * math.gamma(1.0 - alpha))


def pointwise_apply(field: Field, x: float, alpha: float) -> float:
    """(I - Laplacian)^alpha u at one grid point via the singular integral.

    Serves as the independent oracle against apply_multiplier.  Requires a
    1-d field that is either constant or decayed near the box edge, since
    the integration window wraps periodically across half the box.
    """
    g = field.grid
    if g.dim != 1:
        raise NotImplementedError("pointwise_apply is implemented for dim 1 only")
    c = calibrate_pointwise_constant(alpha)  # refuses alpha outside (0, 1)
    pos = (x + 0.5 * g.box_length) / g.spacing
    index = int(round(pos))
    if abs(pos - index) > 1e-8 or not 0 <= index < g.n:
        raise ValueError(f"x={x} is not a grid point of {g}")
    if not _edge_variation_ok(field):
        raise ValueError("field varies near the box edge; wraparound would contaminate the integral")
    return c * _singular_integral(field, index, alpha) + field.values[index]
