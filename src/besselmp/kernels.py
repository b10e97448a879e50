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
K_nu(|z|) / |z|^nu, nu = (dim + 2 alpha)/2, scaled by a constant depending
only on (dim, alpha).  That constant is calibrated once per (dim, alpha) by
least squares against the spectral operator on a reference Gaussian and
cached for the life of the process.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .grid import Field, apply_multiplier, make_grid, spectral_derivative

__all__ = [
    "KernelEval",
    "bessel_kernel",
    "bessel_K",
    "pointwise_apply",
    "calibrate_pointwise_constant",
]


@dataclass(frozen=True)
class KernelEval:
    radius: float
    order: float
    dim: int
    value: float
    est_error: float


def bessel_K(nu: float, r: float) -> float:
    """Modified Bessel function of the second kind K_nu(r), r > 0."""
    if not (r > 0 and np.isfinite(r)):
        raise ValueError(f"bessel_K needs r > 0, got {r}")
    if not (nu >= 0 and np.isfinite(nu)):
        raise ValueError(f"bessel_K needs nu >= 0, got {nu}")
    out = float(special.kv(nu, r))
    if not np.isfinite(out):
        raise ValueError(f"K_{nu}({r}) did not evaluate to a finite value")
    return out


def bessel_kernel(radius: float, order: float, dim: int) -> KernelEval:
    """Evaluate the kernel at one radius by quadrature of the t-integral.

    Returns the value together with the quadrature error estimate; the
    relative target is 1e-9 and non-convergence raises instead of returning
    garbage.
    """
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError(f"kernel radius must be positive, got {radius}")
    if not (order > 0 and np.isfinite(order)):
        raise ValueError(f"kernel order must be positive, got {order}")
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

_weight_cache: dict = {}
_calibration_cache: dict = {}


def _pv_weights(alpha, h_fine, count):
    """Weight table K_nu(z)/z^nu at z = j*h_fine and the moment int z^2 w dz."""
    key = (round(alpha, 12), round(h_fine, 15), count)
    if key in _weight_cache:
        return _weight_cache[key]
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
    _weight_cache[key] = (z, w, m1 + m2)
    return _weight_cache[key]


def _singular_integral(field: Field, index: int, alpha: float, refine_factor: int) -> float:
    """P.V. integral of (u(x) - u(y)) against the kernel weight, window = half box.

    The second-order Taylor part is subtracted and integrated exactly, the
    smooth remainder by trapezoid on an FFT-refined grid; the (tiny) tail
    beyond half the box is dropped, which also makes constants exact.
    """
    g = field.grid
    nf = g.n * refine_factor
    hf = g.spacing / refine_factor
    # trigonometric interpolation onto the fine grid as scipy.signal.resample
    # does it: zero-pad the half spectrum, halving an even n's Nyquist bin
    half = np.zeros(nf // 2 + 1, dtype=complex)
    half[: g.n // 2 + 1] = np.fft.rfft(field.values)
    if g.n % 2 == 0 and refine_factor > 1:
        half[g.n // 2] *= 0.5
    u_fine = np.fft.irfft(half, nf) * refine_factor
    count = nf // 2 - 1
    z, w, moment2 = _pv_weights(alpha, hf, count)

    i0 = index * refine_factor
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


def calibrate_pointwise_constant(alpha: float, dim: int = 1, refine_factor: int = 8) -> float:
    """Scale constant for the singular-integral route, fixed per (dim, alpha).

    Least-squares match of the uncalibrated integral against the spectral
    operator on a reference Gaussian; the value is cached and reused by
    every later pointwise_apply call.
    """
    if dim != 1:
        raise NotImplementedError("real-space route is implemented for dim 1 only")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"pointwise route needs 0 < alpha < 1, got {alpha}")
    key = (dim, round(alpha, 12), refine_factor)
    if key in _calibration_cache:
        return _calibration_cache[key]

    grid = make_grid(1, 512, 40.0)
    u = Field(grid, np.exp(-grid.axis_coords**2))
    target = apply_multiplier(u, alpha).values
    pts = np.nonzero(np.abs(u.values) > 1e-3 * np.max(np.abs(u.values)))[0]
    s_vals = np.array([_singular_integral(u, int(i), alpha, refine_factor) for i in pts])
    rhs = target[pts] - u.values[pts]
    c = float(np.dot(s_vals, rhs) / np.dot(s_vals, s_vals))
    if not (np.isfinite(c) and c > 0):
        raise RuntimeError(f"calibration produced a bad constant {c} for alpha={alpha}")
    _calibration_cache[key] = c
    return c


def pointwise_apply(field: Field, x: float, alpha: float, refine_factor: int = 8) -> float:
    """(I - Laplacian)^alpha u at one grid point via the singular integral.

    Serves as the independent oracle against apply_multiplier.  Requires a
    1-d field that is either constant or decayed near the box edge, since
    the integration window wraps periodically across half the box.
    """
    g = field.grid
    if g.dim != 1:
        raise NotImplementedError("pointwise_apply is implemented for dim 1 only")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"pointwise_apply needs 0 < alpha < 1, got {alpha}")
    pos = (x + 0.5 * g.box_length) / g.spacing
    index = int(round(pos))
    if abs(pos - index) > 1e-8 or not 0 <= index < g.n:
        raise ValueError(f"x={x} is not a grid point of {g}")
    if not _edge_variation_ok(field):
        raise ValueError("field varies near the box edge; wraparound would contaminate the integral")
    c = calibrate_pointwise_constant(alpha, dim=1, refine_factor=refine_factor)
    return c * _singular_integral(field, index, alpha, refine_factor) + field.values[index]
