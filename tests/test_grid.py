"""Grid construction, field semantics, and the Fourier-side operators."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besselmp
from besselmp import grid
from besselmp import (
    Field,
    Grid,
    apply_multiplier,
    lp_norm,
    random_field,
    spectral_derivative,
)
from besselmp.config import RunConfig, build_spec
from besselmp.grid import (
    GRID_MAX_POINTS,
    _abs_power,
    _bessel_norm_sq,
    _dot,
    _extend,
    _integral,
    _irfft,
    _is_even,
    _largest_prime_factor,
    _lp_norm,
    _multiplier_matrix,
    _multiply,
    _restrict,
    _rfft,
    _potential,
    _sum,
)
from besselmp.problem import ProblemSpec, _energy_parts, canonical_coercive_spec
from besselmp.solvers import _residual
from conftest import full_freq_sq, multiplier_matrix


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Grid


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(1, 64, 20.0)
        assert g.spacing == pytest.approx(20.0 / 64)
        assert g.cell_volume == pytest.approx(20.0 / 64)
        assert g.shape == (64,)
        assert g.total_points == 64
        # origin sits exactly on a sample
        assert g.axis_coords[32] == 0.0
        assert g.axis_coords[0] == -10.0

    def test_cell_volume_scales_with_dim(self):
        g = Grid(2, 32, 16.0)
        assert g.cell_volume == pytest.approx(0.5**2)
        assert g.total_points == 1024
        assert g.radius_sq.shape == (32, 32)

    def test_dim_validation(self):
        for dim in (0, 4, -1):
            with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
                Grid(dim, 32, 10.0)

    def test_n_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            Grid(1, 0, 10.0)
        with pytest.raises(ValueError, match="positive integer"):
            Grid(1, -16, 10.0)

    def test_box_length_validation(self):
        with pytest.raises(ValueError, match="box_length"):
            Grid(1, 32, 0.0)
        with pytest.raises(ValueError, match="box_length"):
            Grid(1, 32, math.inf)

    def test_point_count_validation(self):
        with pytest.raises(ValueError, match=r"n=256 in dim 3 gives 16,777,216 points, "
                                             r"above the grid point limit of 1,048,576"):
            Grid(3, 256, 10.0)
        with pytest.raises(ValueError, match="grid point limit"):
            Grid(1, 2 * GRID_MAX_POINTS, 10.0)
        assert Grid(2, 1024, 10.0).total_points == GRID_MAX_POINTS

    def test_coarse_grid_warns(self):
        with pytest.warns(UserWarning, match="coarse"):
            Grid(1, 4, 10.0)

    def test_non_power_of_two_warns(self):
        # only a largest prime factor above FFT_MAX_PRIME = 29 warns: the
        # transforms at 97, 188 = 4 x 47 and 62 = 2 x 31 are slow per point,
        # those at 104 = 8 x 13, 117 = 9 x 13 and 116 = 4 x 29 are not
        for n in (97, 188, 62):
            with pytest.warns(UserWarning, match="prime factor above 29"):
                Grid(1, n, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (48, 104, 116, 117):
                Grid(1, n, 10.0)

    def test_largest_prime_factor(self):
        for n in range(2, 600):
            primes = [k for k in range(2, n + 1)
                      if n % k == 0 and all(k % j for j in range(2, k))]
            assert _largest_prime_factor(n) == max(primes), n

    def test_power_of_two_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Grid(1, 64, 10.0)

    def test_freq_layout_matches_fft(self):
        g = Grid(1, 16, 8.0)
        expect = 2.0 * np.pi * np.fft.fftfreq(16, d=0.5)
        np.testing.assert_allclose(g.axis_freqs, expect)
        # the half lattice of ``_rfft``: k = 0 .. n/2
        np.testing.assert_allclose(g.freq_sq, expect[:9] ** 2)


# ---------------------------------------------------------------------------
# Field value semantics


class TestField:
    def test_values_are_read_only(self):
        g = Grid(1, 32, 10.0)
        u = Field(g, np.full(g.shape, 2.0))
        with pytest.raises(ValueError):
            u.values[0] = 5.0

    def test_constructor_copies_input(self):
        g = Grid(1, 32, 10.0)
        raw = np.zeros(32)
        u = Field(g, raw)
        raw[0] = 99.0
        assert u.values[0] == 0.0

    def test_shape_mismatch_rejected(self):
        g = Grid(1, 32, 10.0)
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.zeros(31))

    def test_non_finite_rejected(self):
        g = Grid(1, 32, 10.0)
        bad = np.zeros(32)
        bad[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(g, bad)

    def test_arithmetic(self):
        g = Grid(1, 32, 10.0)
        a = Field(g, np.full(g.shape, 3.0))
        b = Field(g, np.ones(g.shape))
        assert np.all((a + b).values == 4.0)
        assert np.all((a - b).values == 2.0)
        assert np.all((2.0 * a).values == 6.0)
        assert np.all((-a).values == -3.0)

    def test_cross_grid_arithmetic_rejected(self):
        a = Field(Grid(1, 32, 10.0), np.ones(32))
        b = Field(Grid(1, 64, 10.0), np.ones(64))
        with pytest.raises(ValueError, match="different grids"):
            a + b


# ---------------------------------------------------------------------------
# Parseval


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_parseval(seed):
    """L2 mass equals the volume-normalized spectral power for any field."""
    g = Grid(1, 64, 20.0)
    u = random_field(g, _rng(seed))
    coeffs = np.fft.fftn(u.values)
    power = float(np.sum(np.abs(coeffs) ** 2)) / g.total_points * g.cell_volume
    assert lp_norm(u, 2) ** 2 == pytest.approx(power, rel=1e-10)


# ---------------------------------------------------------------------------
# multiplier


def test_multiplier_fixes_constants():
    g = Grid(1, 64, 20.0)
    u = Field(g, np.full(g.shape, 3.7))
    for s in (-1.0, -0.5, 0.75, 2.0):
        np.testing.assert_allclose(apply_multiplier(u, s).values, 3.7, rtol=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
def test_multiplier_eigenfunctions(dim):
    # cosine modes are exact eigenfunctions; d=2 uses an oblique wave so
    # both frequency axes participate
    L = 20.0
    g = Grid(dim, 64, L)
    for k in ((1,), (3,), (7,)) if dim == 1 else ((1, 2), (4, 1), (0, 5)):
        kvec = k + (0,) * (dim - len(k))
        phase = sum(2.0 * np.pi * ki / L * c for ki, c in zip(kvec, g.coords()))
        u = Field(g, np.cos(phase))
        xi_sq = sum((2.0 * np.pi * ki / L) ** 2 for ki in kvec)
        for s in (0.75, -0.6, 1.5):
            expect = (1.0 + xi_sq) ** s * u.values
            got = apply_multiplier(u, s).values
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1),
       s=st.floats(-1.25, 1.25), t=st.floats(-1.25, 1.25))
def test_multiplier_semigroup(seed, s, t):
    g = Grid(1, 64, 20.0)
    u = random_field(g, _rng(seed))
    once = apply_multiplier(u, s + t)
    twice = apply_multiplier(apply_multiplier(u, s), t)
    scale = float(np.max(np.abs(once.values))) + 1e-300
    assert np.max(np.abs(twice.values - once.values)) <= 1e-10 * scale


def test_multiplier_inverse_pair():
    g = Grid(1, 128, 20.0)
    u = random_field(g, _rng(11))
    back = apply_multiplier(apply_multiplier(u, 0.75), -0.75)
    scale = float(np.max(np.abs(u.values)))
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * scale


def test_multiplier_rejects_non_finite_order():
    g = Grid(1, 16, 8.0)
    with pytest.raises(ValueError, match="finite"):
        apply_multiplier(Field(g, np.ones(g.shape)), math.nan)


# ---------------------------------------------------------------------------
# spectral workspace


def _columnwise_matrix(g, s):
    cols = [apply_multiplier(Field(g, e.reshape(g.shape)), s).values.ravel()
            for e in np.eye(g.total_points)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("s", [0.75, -0.75])
def test_multiplier_matrix_matches_columnwise_build(dim, n, s):
    # the tests' dense operator, built from one stack of unit fields, is
    # the multiplier applied to each unit field alone
    g = Grid(dim, n, 20.0)
    M = multiplier_matrix(g, s)
    assert M.shape == (g.total_points, g.total_points)
    assert np.array_equal(M, _columnwise_matrix(g, s))


def test_symbol_and_coords_are_cached():
    g = Grid(2, 16, 20.0)
    sym = g.symbol(0.75)
    # the half lattice: columns k = 0 .. n/2 of the last axis
    assert sym.shape == (16, 9)
    assert np.array_equal(sym, (1.0 + full_freq_sq(g)[:, :9]) ** 0.75)
    assert g.symbol(0.75) is sym
    assert g.symbol(-0.75) is not sym
    assert g.coords() is g.coords()


def test_workspace_arrays_are_read_only():
    g = Grid(2, 16, 20.0)
    for arr in (g.symbol(0.75), g.parseval_weight(0.75), *g.coords()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_workspace_is_per_grid_instance():
    a, b = Grid(1, 16, 8.0), Grid(1, 16, 8.0)
    assert a == b
    assert a.symbol(0.5) is not b.symbol(0.5)


# ---------------------------------------------------------------------------
# array kernels


KERNEL_GRIDS = [(1, 64, 20.0), (2, 16, 12.0), (3, 8, 10.0)]


@pytest.mark.parametrize("dim,n,box", KERNEL_GRIDS)
@pytest.mark.parametrize("s", [0.75, -0.375])
def test_multiplier_rows_match_field_api(dim, n, box, s):
    # _multiply takes a stack of fields; each row of the result is the
    # multiplier applied to that row alone, to the bit
    g = Grid(dim, n, box)
    rng = _rng(dim)
    u = np.stack([random_field(g, rng, envelope_sigma=2.0).values for _ in range(5)])
    out = _multiply(g, u, s)
    assert out.shape == u.shape
    for row, got in zip(u, out):
        assert np.array_equal(got, apply_multiplier(Field(g, row), s).values)


def _plain_power(a, k):
    """a**k as the power kernel takes it: square-and-multiply at k = 3 and 4, else ``**``."""
    return {3.0: a * (a * a), 4.0: (a * a) * (a * a)}.get(k, a**k)


def test_lp_norm_root_is_a_scalar_power():
    # NumPy's array power (SIMD) differs from the scalar pow in the last bit
    # for a few percent of inputs; the root is the scalar one.  The whole
    # powers are products, within 4 ulps of pow
    g = Grid(2, 16, 12.0)
    rng = _rng(5)
    fields = [random_field(g, rng, envelope_sigma=2.0).values for _ in range(200)]
    for r in (2.0, 3.0, 4.0):
        for u in fields:
            power = _plain_power(np.abs(u), r)
            np.testing.assert_array_max_ulp(power, np.abs(u) ** r, maxulp=4)
            expect = float((np.sum(power) * g.cell_volume) ** (1.0 / r))
            assert _lp_norm(g, u, r) == expect
        assert lp_norm(Field(g, fields[0]), r) == _lp_norm(g, fields[0], r)


@pytest.mark.parametrize("dim,n", [(1, 15), (1, 45), (1, 64), (2, 15), (2, 45), (2, 16),
                                   (3, 15), (3, 8)])
def test_transform_entry_points_match_rfftn_to_the_bit(dim, n):
    # one numpy call per axis, in rfftn's and irfftn's own order, on the
    # trailing grid axes: with leading axes too, as a stack of fields has
    g = Grid(dim, n, 10.0)
    axes = tuple(range(-dim, 0))
    rng = _rng(n)
    for lead in ((), (n,), (2, 3)):
        u = rng.standard_normal(lead + g.shape)
        u_hat = np.fft.rfftn(u, s=g.shape, axes=axes)
        assert np.array_equal(_rfft(g, u), u_hat)
        assert np.array_equal(_irfft(g, u_hat), np.fft.irfftn(u_hat, s=g.shape, axes=axes))


def test_no_kernel_calls_the_nd_wrappers():
    # every half-spectrum transform goes through _rfft and _irfft, the
    # entry points that the fft_calls fixture counts
    for path in sorted(Path(besselmp.__file__).parent.glob("*.py")):
        assert not re.search(r"fft\.i?rfftn\b|import[^\n]*rfftn", path.read_text()), path.name


@pytest.mark.parametrize("dim,n,box", KERNEL_GRIDS)
def test_row_kernels_transform_a_stack_once(dim, n, box, fft_calls):
    g = Grid(dim, n, box)
    u = _rng(dim).standard_normal(g.shape)
    assert type(_bessel_norm_sq(g, u, 0.75)) is float
    assert fft_calls == {"_rfft": 1}
    _multiply(g, u, 0.75)
    assert fft_calls == {"_rfft": 2, "_irfft": 1}


def test_energy_rows_need_one_forward_transform(fft_calls):
    spec = canonical_coercive_spec(n=64)
    for u in (0.1 * spec.xi_field.values, -0.1 * spec.xi_field.values, 0.1 * spec.V_field.values):
        parts = _energy_parts(spec, u)
        assert type(parts.total) is float
    assert fft_calls == {"_rfft": 3}


def _close(got, want, scale):
    return abs(got - want) <= 1e-13 * scale


@settings(deadline=None, max_examples=60)
@given(dim=st.sampled_from([1, 2, 3]), half_n=st.sampled_from([4, 5, 6, 8, 12]),
       box=st.floats(5.0, 40.0), seed=st.integers(0, 2**31 - 1), s=st.floats(-1.0, 1.0),
       r=st.floats(1.0, 6.0))
def test_even_grid_kernels_match_the_full_grid(dim, half_n, box, seed, s, r):
    # on a random even field, the half grid's multiplier, Parseval norm, L^r
    # norm and weighted sums read the full grid's kernels restricted to x >= 0
    g = Grid(dim, 2 * half_n, box)
    h = g.half
    u = _rng(seed).standard_normal(h.shape)
    full = _extend(g, u)
    assert _is_even(g, full) and np.array_equal(_restrict(g, full), u)
    image = _restrict(g, _multiply(g, full, s))
    assert np.max(np.abs(_multiply(h, u, s) - image)) <= 1e-13 * np.max(np.abs(image))
    assert _close(_bessel_norm_sq(h, u, s), _bessel_norm_sq(g, full, s),
                  _bessel_norm_sq(g, full, s))
    assert _close(_lp_norm(h, u, r), _lp_norm(g, full, r), _lp_norm(g, full, r))
    a, b = np.abs(full).sum(), np.abs(full * full**2).sum()
    assert _close(_sum(h, u), _sum(g, full), a)
    assert _close(_integral(h, u), _integral(g, full), a * g.cell_volume)
    assert _close(_dot(h, u, u**2), _dot(g, full, full**2), b)


def test_even_grid_layout():
    # (n/2 + 1)^dim points at x_i = j h, weighing 1 at the ends of each
    # axis and 2 between; only an even n has one
    g = Grid(2, 8, 4.0)
    h = g.half
    assert h.shape == (5, 5) and h.total_points == g.total_points and g.half is h
    assert np.array_equal(h.axis_coords, 0.5 * np.arange(5))
    assert np.array_equal(h.weights[0], [1.0, 2.0, 2.0, 2.0, 1.0])
    assert h.weights.sum() == g.total_points and not g.even and h.even
    assert h != Grid(2, 8, 4.0)
    with pytest.raises(ValueError, match="an even grid needs an even n, got 9"):
        Grid(2, 9, 4.0).half
    # its DCT-I matrix counts against the point limit: only 1-D reaches it
    with pytest.raises(ValueError, match="n=4096 gives an even grid's DCT-I matrix of 4,198,401"):
        Grid(1, 4096, 4.0).half
    assert Grid(2, 1024, 4.0).half.shape == (513, 513)
    # a field that is not even reads so, to roundoff
    bump = np.exp(-g.radius_sq)
    assert _is_even(g, bump) and not _is_even(g, np.roll(bump, 1, axis=1))


# the largest even grids that the suite solves: 65^2 and 33^3 stored points
LARGE_EVEN_GRIDS = [(2, 128, 20.0), (3, 64, 10.0)]


@pytest.mark.parametrize("dim,n,box", LARGE_EVEN_GRIDS)
@pytest.mark.parametrize("s", [0.75, -0.75])
def test_even_grid_multiply_matches_the_full_grid_at_scale(dim, n, box, s):
    # a dense product adds more roundoff the longer its axis; the FFT multiply
    # on the full grid, restricted to x >= 0, still agrees to 1e-13
    g = Grid(dim, n, box)
    h = g.half
    u = _rng(n).standard_normal(h.shape)
    image = _restrict(g, _multiply(g, _extend(g, u), s))
    assert np.max(np.abs(_multiply(h, u, s) - image)) <= 1e-13 * np.max(np.abs(image))
    back = _irfft(h, _rfft(h, u))
    assert np.max(np.abs(back - u)) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("dim,n,box", LARGE_EVEN_GRIDS + [(2, 16, 12.0), (3, 8, 10.0)])
def test_even_grid_stack_transforms_as_each_field(dim, n, box):
    h = Grid(dim, n, box).half
    u = _rng(dim).standard_normal((3,) + h.shape)
    out = _multiply(h, u, 0.75)
    assert out.shape == u.shape
    for row, got in zip(u, out):
        assert np.array_equal(got, _multiply(h, row, 0.75))


@pytest.mark.parametrize("n", [8, 256, 416])
def test_even_grid_multiplier_matrix(n):
    # the 1-D half grid's dense (I - Laplacian)^s: A u is _multiply's image,
    # W A is symmetric for W the weights of _dot, and it is built once per s,
    # read-only
    h = Grid(1, n, 40.0).half
    a = _multiplier_matrix(h, 0.75)
    assert a.shape == (n // 2 + 1,) * 2 and _multiplier_matrix(h, 0.75) is a
    u = _rng(n).standard_normal(h.shape)
    assert np.max(np.abs(a @ u - _multiply(h, u, 0.75))) <= 1e-13 * np.max(np.abs(a @ u))
    wa = h.weights[:, None] * a
    assert np.max(np.abs(wa - wa.T)) <= 1e-13 * np.max(np.abs(wa))
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 1.0


@pytest.mark.parametrize("n", [8, 64, 256, 416])
@pytest.mark.parametrize("box", [40.0, 7.0])
def test_1d_even_grid_kernels_apply_the_multiplier_matrix(n, box, fft_calls):
    # on a 1-D half grid the image is A u and the norm the integral of u A u,
    # with no transform, against the DCT-I route: both differ from it by
    # roundoff that grows with the largest symbol entry S.  Measured worst
    # over these grids and fields: 1.3e-15 S max|u| for the image and
    # 2.7e-16 S ||u||_2^2 for the norm; the bounds are three times that
    h = Grid(1, n, box).half
    fields = (np.exp(-h.radius_sq), 5.0 * np.exp(-0.1 * h.radius_sq),
              *_rng(n).standard_normal((3,) + h.shape))
    for alpha in (0.25, 0.75, 0.99):
        top = float(h.symbol(alpha).max())
        for u in fields:
            image, norm_sq = grid._multiply_and_norm(h, u, alpha)
            assert grid._bessel_norm_sq(h, u, alpha) == norm_sq and not fft_calls
            ref = grid._filter(h, u, h.symbol(alpha))
            assert np.max(np.abs(image - ref)) <= 4e-15 * top * np.max(np.abs(u))
            ref_norm = grid._parseval(h, grid._rfft(h, u), alpha)
            assert abs(norm_sq - ref_norm) <= 8e-16 * top * _integral(h, u * u)
            fft_calls.clear()


@pytest.mark.parametrize("n", [8, 16, 32, 64, 100, 128, 256, 300, 416, 1024])
@pytest.mark.parametrize("box", [40.0, 7.0])
def test_even_grid_multiplier_matrix_is_the_filtered_identity(n, box):
    # the closed form C_b diag(symbol) C_f is, to the bit, the image of the
    # identity filtered as one stack of fields, for each order s
    h = Grid(1, n, box).half
    eye = np.eye(h.shape[0])
    for s in (0.75, 0.3, -0.5):
        assert np.array_equal(_multiplier_matrix(h, s), _multiply(h, eye, s).T), s


def test_even_grid_dct1_matrix_is_built_once_and_read_only():
    from scipy.fft import dct

    h = Grid(2, 48, 15.0).half
    u = _rng(0).standard_normal(h.shape)
    _multiply(h, u, 0.75)
    forward, backward = h._workspace[("dct1", "forward")], h._workspace[("dct1", "backward")]
    _multiply(h, u, -0.75)
    assert h._workspace[("dct1", "forward")] is forward
    assert h._workspace[("dct1", "backward")] is backward
    assert sum(key[0] == "dct1" for key in h._workspace if isinstance(key, tuple)) == 2
    for c in (forward, backward):
        assert c.shape == (25, 25)
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 1.0
    # SciPy's DCT-I of the unit vectors, and the inverse pair over n = 48
    assert np.allclose(forward, dct(np.eye(25), type=1, axis=0), rtol=0.0, atol=1e-13)
    assert np.allclose(backward @ forward, np.eye(25), rtol=0.0, atol=1e-13)
    assert np.array_equal(backward, forward / 48)  # derived, not a second build


def test_spectral_derivative_on_sine():
    L = 20.0
    g = Grid(1, 64, L)
    k = 2.0 * np.pi * 3 / L
    u = Field(g, np.sin(k * g.axis_coords))
    du = spectral_derivative(u)
    np.testing.assert_allclose(du.values, k * np.cos(k * g.axis_coords), atol=1e-12)
    d2u = spectral_derivative(u, order=2)
    np.testing.assert_allclose(d2u.values, -k * k * u.values, atol=1e-11)


def test_spectral_derivative_axis_range():
    g = Grid(1, 16, 8.0)
    with pytest.raises(ValueError, match="axis"):
        spectral_derivative(Field(g, np.ones(g.shape)), axis=1)


def test_spectral_derivative_refuses_negative_order():
    # 1/(i xi)^1 is infinite at xi = 0: refused before any transform
    g = Grid(1, 16, 8.0)
    with pytest.raises(ValueError, match="order -1 must be nonnegative"):
        spectral_derivative(Field(g, np.ones(g.shape)), order=-1)


def _complex_fft_derivative(g, values, axis, order):
    """The full-lattice formula: the real part of ifftn(fftn(u) (i xi)^order)."""
    shape = [1] * g.dim
    shape[axis] = g.n
    return np.fft.ifftn(np.fft.fftn(values) * (1j * g.axis_freqs.reshape(shape)) ** order).real


@pytest.mark.parametrize("dim,n", [(dim, n) for dim in (1, 2, 3) for n in (15, 16, 33, 48)])
def test_spectral_derivative_matches_the_complex_fft(dim, n):
    # white noise fills an even n's Nyquist row: the formula's real part drops
    # an odd order's term there, which a half-spectrum inverse would mirror
    g = Grid(dim, n, 10.0)
    u = Field(g, _rng(n).standard_normal(g.shape))
    for axis in range(dim):
        for order in range(4):
            want = _complex_fft_derivative(g, u.values, axis, order)
            got = spectral_derivative(u, axis, order).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (axis, order)


def test_spectral_derivative_refuses_an_even_grid():
    # an odd derivative of an even field is odd, which the half cannot hold
    g = Grid(2, 16, 8.0).half
    with pytest.raises(ValueError, match="spectral_derivative needs a full Grid"):
        spectral_derivative(Field(g, np.ones(g.shape)), order=2)


# ---------------------------------------------------------------------------
# norms


def test_bessel_norm_constant():
    g = Grid(1, 64, 20.0)
    assert _bessel_norm_sq(g, np.full(g.shape, 2.0), 0.75) == pytest.approx(4.0 * 20.0, rel=1e-12)


def test_bessel_norm_single_mode():
    L, a = 20.0, 1.3
    g = Grid(1, 64, L)
    u = a * np.cos(2.0 * np.pi * g.axis_coords / L)
    expect = (1.0 + (2.0 * np.pi / L) ** 2) ** 0.75 * a * a * L / 2.0
    assert _bessel_norm_sq(g, u, 0.75) == pytest.approx(expect, rel=1e-12)


@pytest.mark.filterwarnings("ignore:n=")  # non-power-of-two grids
@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), alpha=st.floats(0.1, 0.95))
def test_bessel_norm_matches_spectral_sum(seed, alpha):
    # odd n has no Nyquist column on the half lattice: every k > 0 there is doubled
    for dim, n in [(1, 64), (1, 63), (2, 16), (2, 15), (3, 8), (3, 9)]:
        g = Grid(dim, n, 20.0)
        # every mode filled, up to the last column of the half lattice
        u = random_field(g, _rng(seed), band_fraction=1.0)
        coeffs = np.fft.fftn(u.values)
        oracle = float(np.sum((1.0 + full_freq_sq(g)) ** alpha * np.abs(coeffs) ** 2))
        oracle *= g.cell_volume / g.total_points
        assert _bessel_norm_sq(g, u.values, alpha) == pytest.approx(oracle, rel=1e-10), (dim, n)


def _lam_norm_sq(g, u, V, lam):
    """||u||_lam^2 at alpha = 0.75 as the solvers build it: the bessel norm that
    ``solvers._residual`` returns plus ``_potential``, for the potential values V."""
    spec = ProblemSpec(grid=g, alpha=0.75, lam=1.0, mu=0.01, p=1.5)
    return _residual(spec, u)[2] + _potential(g, u, V, lam)


def test_weighted_norm_pieces():
    g = Grid(1, 64, 20.0)
    u = random_field(g, _rng(5)).values
    V = 1.0 + g.radius_sq
    pot = float(np.sum(V * u**2) * g.cell_volume)
    expect = _bessel_norm_sq(g, u, 0.75) + 2.5 * pot
    assert _lam_norm_sq(g, u, V, 2.5) == pytest.approx(expect, rel=1e-12)


def test_weighted_norm_zero_weight_reduces_to_bessel():
    g = Grid(1, 64, 20.0)
    u = random_field(g, _rng(6)).values
    assert _lam_norm_sq(g, u, np.zeros(g.shape), 3.0) == pytest.approx(
        _bessel_norm_sq(g, u, 0.75), rel=1e-12)


def test_weighted_norm_monotone_in_lam():
    g = Grid(1, 64, 20.0)
    u = random_field(g, _rng(7)).values
    V = np.ones(g.shape)
    assert _lam_norm_sq(g, u, V, 2.0) > _lam_norm_sq(g, u, V, 1.0)


def test_weighted_norm_dominates_bessel():
    # V >= 0 makes the weighted norm an upper bound for the plain one
    g = Grid(1, 64, 20.0)
    V = 1.0 + g.radius_sq
    for seed in range(10):
        u = random_field(g, _rng(seed)).values
        assert _bessel_norm_sq(g, u, 0.75) <= _lam_norm_sq(g, u, V, 1.0) * (1 + 1e-12)


def test_lp_norm_constant():
    g = Grid(1, 64, 20.0)
    assert lp_norm(Field(g, np.ones(g.shape)), 2) == pytest.approx(math.sqrt(20.0))
    assert lp_norm(Field(g, np.zeros(g.shape)), 4) == 0.0


def test_lp_norm_gaussian_anchor():
    # int exp(-2 x^2) = sqrt(pi/2); truncation at |x| = 20 is negligible
    g = Grid(1, 256, 40.0)
    u = Field(g, np.exp(-g.axis_coords**2))
    assert lp_norm(u, 2) == pytest.approx((math.pi / 2.0) ** 0.25, abs=1e-8)


def test_lp_norm_survives_overflowing_powers():
    # 10^400 overflows: the norm is rescaled by the peak, 10 * (16 * 0.5)^(1/400)
    g = Grid(1, 16, 8.0)
    assert lp_norm(Field(g, np.full(g.shape, 10.0)), 400.0) == pytest.approx(
        10.0 * 8.0 ** (1 / 400), rel=1e-15)
    u = Field(g, np.exp(-g.axis_coords**2) * 1e3)
    assert lp_norm(u, 150.0) == pytest.approx(1e3 * lp_norm(u * 1e-3, 150.0), rel=1e-14)
    # 1e-500 underflows to zero: the same rescaling recovers the norm
    assert lp_norm(Field(g, np.full(g.shape, 1e-5)), 100.0) == pytest.approx(
        1e-5 * 8.0 ** (1 / 100), rel=1e-15)
    # so does an integral below DBL_MIN, which has lost digits: 1e-5^64 = 1e-320
    # at every point, and at r = 61 on a 1e-18 box the cell volume 6.25e-20
    # takes 16 normal powers of 1e-305 to 1e-323
    assert lp_norm(Field(g, np.full(g.shape, 1e-5)), 64.0) == pytest.approx(
        1e-5 * 8.0 ** (1 / 64), rel=1e-15)
    tiny_box = Grid(1, 16, 1e-18)
    assert lp_norm(Field(tiny_box, np.full(tiny_box.shape, 1e-5)), 61.0) == pytest.approx(
        1e-5 * 1e-18 ** (1 / 61), rel=1e-15)
    # the solvers' kernel keeps reading inf on an overflowing trial
    with np.errstate(over="ignore"):
        assert _lp_norm(g, np.full(g.shape, 10.0), 400.0) == math.inf


_TINY = np.finfo(np.float64).tiny


@pytest.mark.parametrize("k", [0.5, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_power_is_pow_down_to_dbl_min(k):
    floor = _TINY ** (1.0 / k)
    span = np.geomspace(1.0, 1e-320, 400)
    u = np.concatenate([span, -span, floor * (1.0 + 1e-15 * np.arange(-60, 61)),
                        [0.0, -0.0, 0.0, np.inf, -np.inf, np.nan]])
    # whole k >= 3 multiplies out, within 4 ulps of pow
    plain = _plain_power(np.abs(u), k)
    got = _abs_power(u, k)
    normal = plain >= _TINY
    assert normal.sum() > 100 and (plain < _TINY).sum() > 100
    assert np.array_equal(got[normal], plain[normal])
    np.testing.assert_array_max_ulp(got[normal], np.abs(u[normal]) ** k, maxulp=4)
    assert np.all(got[plain < _TINY] == 0.0)
    assert np.array_equal(np.isnan(got), np.isnan(u))
    assert np.array_equal(got == np.inf, np.isinf(u))
    # clear of the floor the power is the plain one
    clear = np.abs(u[normal & np.isfinite(u)])
    assert np.array_equal(_abs_power(clear, k), _plain_power(clear, k))


def test_verify_fields_sum_as_plain_powers():
    # zeroing the subnormal powers of verify's bump and partner (2-D n=64,
    # box 40) moves no sum: the energy's xi integral and the L^r norms read
    # as with plain ``**``
    spec = build_spec(RunConfig(mode="verify", dim=2, n=64, box_length=40.0))
    g = spec.grid
    xi = spec.xi_field.values
    for u in (np.exp(-g.radius_sq), 0.8 * np.exp(-1.3 * g.radius_sq)):
        assert _energy_parts(spec, u).xi_integral == _integral(g, xi * np.abs(u) ** spec.p)
        for r in (2.0, 3.0, 4.0):
            assert _lp_norm(g, u, r) == float((np.sum(np.abs(u) ** r) * g.cell_volume) ** (1 / r))


def test_lp_norm_rejects_r_below_one():
    g = Grid(1, 32, 10.0)
    with pytest.raises(ValueError, match="r >= 1"):
        lp_norm(Field(g, np.ones(g.shape)), 0.5)


# ---------------------------------------------------------------------------
# random fields


def test_random_field_deterministic_per_seed():
    g = Grid(1, 64, 20.0)
    a = random_field(g, _rng(42))
    b = random_field(g, _rng(42))
    c = random_field(g, _rng(43))
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)

    d = random_field(g, _rng(42), envelope_sigma=2.0)
    assert np.any(d.values != a.values)


def test_random_field_is_band_limited():
    g = Grid(1, 128, 20.0)
    u = random_field(g, _rng(1), band_fraction=0.1)
    coeffs = np.fft.fftn(u.values)
    idx = np.abs(np.fft.fftfreq(g.n) * g.n)
    assert np.max(np.abs(coeffs[idx > 13])) <= 1e-10 * np.max(np.abs(coeffs))


def test_random_field_band_fraction_validated():
    g = Grid(1, 32, 10.0)
    with pytest.raises(ValueError, match="band_fraction"):
        random_field(g, _rng(0), band_fraction=0.0)


def test_random_field_refuses_an_even_grid():
    g = Grid(2, 16, 8.0).half
    with pytest.raises(ValueError, match="random_field needs a full Grid"):
        random_field(g, _rng(0))
