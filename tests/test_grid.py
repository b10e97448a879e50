"""Grid construction, field semantics, and the Fourier-side operators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselmp import (
    Field,
    Grid,
    Spectrum,
    apply_multiplier,
    bessel_norm_sq,
    constant_field,
    field_from_function,
    inverse_transform,
    lp_norm,
    random_field,
    spectral_derivative,
    transform,
    weighted_norm_sq,
)
from besselmp.grid import (
    BATCH_MAX_POINTS,
    GRID_MAX_POINTS,
    _band_limit,
    _bessel_norm_sq_rows,
    _multiply,
    _weighted_norm_sq_rows,
    make_grid,
)
from besselmp.problem import _energy_rows, canonical_coercive_spec


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Grid


class TestGrid:
    def test_basic_geometry(self):
        g = make_grid(1, 64, 20.0)
        assert g.spacing == pytest.approx(20.0 / 64)
        assert g.cell_volume == pytest.approx(20.0 / 64)
        assert g.shape == (64,)
        assert g.total_points == 64
        # origin sits exactly on a sample
        assert g.axis_coords[32] == 0.0
        assert g.axis_coords[0] == -10.0

    def test_cell_volume_scales_with_dim(self):
        g = make_grid(2, 32, 16.0)
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
        with pytest.warns(UserWarning, match="power of two"):
            Grid(1, 48, 10.0)

    def test_power_of_two_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Grid(1, 64, 10.0)

    def test_freq_layout_matches_fft(self):
        g = make_grid(1, 16, 8.0)
        expect = 2.0 * np.pi * np.fft.fftfreq(16, d=0.5)
        np.testing.assert_allclose(g.axis_freqs, expect)
        np.testing.assert_allclose(g.freq_sq, expect**2)


# ---------------------------------------------------------------------------
# Field / Spectrum value semantics


class TestField:
    def test_values_are_read_only(self):
        g = make_grid(1, 32, 10.0)
        u = constant_field(g, 2.0)
        with pytest.raises(ValueError):
            u.values[0] = 5.0

    def test_constructor_copies_input(self):
        g = make_grid(1, 32, 10.0)
        raw = np.zeros(32)
        u = Field(g, raw)
        raw[0] = 99.0
        assert u.values[0] == 0.0

    def test_shape_mismatch_rejected(self):
        g = make_grid(1, 32, 10.0)
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.zeros(31))

    def test_non_finite_rejected(self):
        g = make_grid(1, 32, 10.0)
        bad = np.zeros(32)
        bad[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(g, bad)

    def test_arithmetic(self):
        g = make_grid(1, 32, 10.0)
        a = constant_field(g, 3.0)
        b = constant_field(g, 1.0)
        assert np.all((a + b).values == 4.0)
        assert np.all((a - b).values == 2.0)
        assert np.all((2.0 * a).values == 6.0)
        assert np.all((-a).values == -3.0)

    def test_cross_grid_arithmetic_rejected(self):
        a = constant_field(make_grid(1, 32, 10.0), 1.0)
        b = constant_field(make_grid(1, 64, 10.0), 1.0)
        with pytest.raises(ValueError, match="different grids"):
            a + b

    def test_spectrum_validates_shape(self):
        g = make_grid(1, 32, 10.0)
        with pytest.raises(ValueError, match="shape"):
            Spectrum(g, np.zeros(16, dtype=complex))


def test_field_from_function_samples_coords():
    g = make_grid(2, 16, 8.0)
    u = field_from_function(g, lambda x, y: x + 2 * y)
    xs, ys = g.coords()
    np.testing.assert_array_equal(u.values, xs + 2 * ys)


# ---------------------------------------------------------------------------
# transform pair


def test_transform_round_trip():
    g = make_grid(1, 64, 20.0)
    u = random_field(g, _rng(3))
    back = inverse_transform(transform(u))
    np.testing.assert_allclose(back.values, u.values, atol=1e-13)


def test_inverse_transform_rejects_non_hermitian():
    g = make_grid(1, 16, 8.0)
    coeffs = np.zeros(16, dtype=complex)
    coeffs[1] = 1.0 + 0.5j  # no conjugate partner at -1
    with pytest.raises(ValueError, match="Hermitian"):
        inverse_transform(Spectrum(g, coeffs))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_parseval(seed):
    """L2 mass equals the volume-normalized spectral power for any field."""
    g = make_grid(1, 64, 20.0)
    u = random_field(g, _rng(seed))
    coeffs = np.fft.fftn(u.values)
    power = float(np.sum(np.abs(coeffs) ** 2)) / g.total_points * g.cell_volume
    assert lp_norm(u, 2) ** 2 == pytest.approx(power, rel=1e-10)


# ---------------------------------------------------------------------------
# multiplier


def test_multiplier_fixes_constants():
    g = make_grid(1, 64, 20.0)
    u = constant_field(g, 3.7)
    for s in (-1.0, -0.5, 0.75, 2.0):
        np.testing.assert_allclose(apply_multiplier(u, s).values, 3.7, rtol=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
def test_multiplier_eigenfunctions(dim):
    # cosine modes are exact eigenfunctions; d=2 uses an oblique wave so
    # both frequency axes participate
    L = 20.0
    g = make_grid(dim, 64, L)
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
    g = make_grid(1, 64, 20.0)
    u = random_field(g, _rng(seed))
    once = apply_multiplier(u, s + t)
    twice = apply_multiplier(apply_multiplier(u, s), t)
    scale = float(np.max(np.abs(once.values))) + 1e-300
    assert np.max(np.abs(twice.values - once.values)) <= 1e-10 * scale


def test_multiplier_inverse_pair():
    g = make_grid(1, 128, 20.0)
    u = random_field(g, _rng(11))
    back = apply_multiplier(apply_multiplier(u, 0.75), -0.75)
    scale = float(np.max(np.abs(u.values)))
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * scale


def test_multiplier_rejects_non_finite_order():
    g = make_grid(1, 16, 8.0)
    with pytest.raises(ValueError, match="finite"):
        apply_multiplier(constant_field(g, 1.0), math.nan)


# ---------------------------------------------------------------------------
# spectral workspace


def _columnwise_matrix(g, s):
    cols = [apply_multiplier(Field(g, e.reshape(g.shape)), s).values.ravel()
            for e in np.eye(g.total_points)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("s", [0.75, -0.75])
def test_multiplier_matrix_matches_columnwise_build(dim, n, s):
    g = make_grid(dim, n, 20.0)
    M = g.multiplier_matrix(s)
    assert M.shape == (g.total_points, g.total_points)
    assert np.array_equal(M, _columnwise_matrix(g, s))
    assert g.multiplier_matrix(s) is M


def test_symbol_and_coords_are_cached():
    g = make_grid(2, 16, 20.0)
    sym = g.symbol(0.75)
    # the half lattice: columns k = 0 .. n/2 of the last axis
    assert sym.shape == (16, 9)
    assert np.array_equal(sym, (1.0 + g.freq_sq[:, :9]) ** 0.75)
    assert g.symbol(0.75) is sym
    assert g.symbol(-0.75) is not sym
    assert g.coords() is g.coords()


def test_workspace_arrays_are_read_only():
    g = make_grid(2, 16, 20.0)
    for arr in (g.symbol(0.75), g.multiplier_matrix(0.75), *g.coords()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_workspace_is_per_grid_instance():
    a, b = make_grid(1, 16, 8.0), make_grid(1, 16, 8.0)
    assert a == b
    assert a.symbol(0.5) is not b.symbol(0.5)


# ---------------------------------------------------------------------------
# row kernels


ROW_GRIDS = [(1, 64, 20.0), (2, 16, 12.0), (3, 8, 10.0)]


def _stack(g, rows, seed):
    rng = _rng(seed)
    return np.stack([random_field(g, rng, envelope_sigma=2.0).values for _ in range(rows)])


def test_batch_rows_follow_from_the_point_count():
    assert BATCH_MAX_POINTS == 16384
    assert make_grid(1, 256, 40.0).batch_rows == 64
    with pytest.warns(UserWarning, match="power of two"):
        assert make_grid(2, 48, 15.0).batch_rows == 7
    assert make_grid(3, 32, 10.0).batch_rows == 1
    assert make_grid(3, 64, 10.0).batch_rows == 1


@pytest.mark.parametrize("dim,n,box", ROW_GRIDS)
@pytest.mark.parametrize("s", [0.75, -0.375])
def test_multiplier_rows_match_field_api(dim, n, box, s):
    g = make_grid(dim, n, box)
    u = _stack(g, 5, dim)
    out = _multiply(g, u, s)
    assert out.shape == u.shape
    for row, got in zip(u, out):
        assert np.array_equal(got, apply_multiplier(Field(g, row), s).values)
    # extra leading axes are rows too
    assert np.array_equal(_multiply(g, u.reshape((5, 1) + g.shape), s)[:, 0], out)
    assert _multiply(g, np.empty((0,) + g.shape), s).shape == (0,) + g.shape


@pytest.mark.parametrize("dim,n,box", ROW_GRIDS)
def test_norm_rows_match_field_api(dim, n, box):
    g = make_grid(dim, n, box)
    u = _stack(g, 5, 10 + dim)
    V = Field(g, 1.0 + g.radius_sq)
    bessel = _bessel_norm_sq_rows(g, u, 0.75)
    weighted = _weighted_norm_sq_rows(g, u, V.values, 2.5, 0.75)
    assert bessel.shape == weighted.shape == (5,)
    for i, row in enumerate(u):
        f = Field(g, row)
        assert bessel[i] == bessel_norm_sq(f, 0.75)
        assert weighted[i] == weighted_norm_sq(f, V, 2.5, 0.75)
    empty = np.empty((0,) + g.shape)
    assert _bessel_norm_sq_rows(g, empty, 0.75).shape == (0,)
    assert _weighted_norm_sq_rows(g, empty, V.values, 2.5, 0.75).shape == (0,)


@pytest.mark.parametrize("dim,n,box", ROW_GRIDS)
def test_band_limit_rows_match_random_field(dim, n, box):
    g = make_grid(dim, n, box)
    sigmas = np.array([0.7, 1.9, 3.3])
    draws = _rng(dim)
    noise = np.stack([draws.standard_normal(g.shape) for _ in sigmas])
    out = _band_limit(g, noise, 0.25, sigmas)
    again = _rng(dim)
    for row, sigma in zip(out, sigmas):
        assert np.array_equal(row, random_field(g, again, envelope_sigma=float(sigma)).values)
    assert _band_limit(g, noise[:0], 0.25, sigmas[:0]).shape == (0,) + g.shape


FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")


@pytest.fixture
def fft_calls(monkeypatch):
    """Calls of each np.fft function made through besselmp.grid."""
    import besselmp.grid

    calls = dict.fromkeys(FFT_NAMES, 0)
    for name in FFT_NAMES:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(besselmp.grid.np.fft, name, counted)
    return calls


@pytest.mark.parametrize("dim,n,box", ROW_GRIDS)
def test_row_kernels_transform_a_stack_once(dim, n, box, fft_calls):
    g = make_grid(dim, n, box)
    u = _rng(dim).standard_normal((3,) + g.shape)
    _bessel_norm_sq_rows(g, u, 0.75)
    assert fft_calls == dict.fromkeys(FFT_NAMES, 0) | {"rfftn": 1}
    _multiply(g, u, 0.75)
    assert fft_calls == dict.fromkeys(FFT_NAMES, 0) | {"rfftn": 2, "irfftn": 1}


def test_energy_rows_need_one_forward_transform(fft_calls):
    spec = canonical_coercive_spec(n=64)
    u = 0.1 * np.stack([spec.xi_field.values, -spec.xi_field.values, spec.V_field.values])
    rows = _energy_rows(spec, u)
    assert rows.total.shape == (3,)
    assert fft_calls == dict.fromkeys(FFT_NAMES, 0) | {"rfftn": 1}


def test_multiplier_matrix_refuses_large_grids():
    g = make_grid(2, 64, 20.0)
    with pytest.raises(ValueError, match="at most 2048 points"):
        g.multiplier_matrix(0.75)


def test_spectral_derivative_on_sine():
    L = 20.0
    g = make_grid(1, 64, L)
    k = 2.0 * np.pi * 3 / L
    u = Field(g, np.sin(k * g.axis_coords))
    du = spectral_derivative(u)
    np.testing.assert_allclose(du.values, k * np.cos(k * g.axis_coords), atol=1e-12)
    d2u = spectral_derivative(u, order=2)
    np.testing.assert_allclose(d2u.values, -k * k * u.values, atol=1e-11)


def test_spectral_derivative_axis_range():
    g = make_grid(1, 16, 8.0)
    with pytest.raises(ValueError, match="axis"):
        spectral_derivative(constant_field(g, 1.0), axis=1)


# ---------------------------------------------------------------------------
# norms


def test_bessel_norm_constant():
    g = make_grid(1, 64, 20.0)
    u = constant_field(g, 2.0)
    assert bessel_norm_sq(u, 0.75) == pytest.approx(4.0 * 20.0, rel=1e-12)


def test_bessel_norm_single_mode():
    L, a = 20.0, 1.3
    g = make_grid(1, 64, L)
    u = Field(g, a * np.cos(2.0 * np.pi * g.axis_coords / L))
    expect = (1.0 + (2.0 * np.pi / L) ** 2) ** 0.75 * a * a * L / 2.0
    assert bessel_norm_sq(u, 0.75) == pytest.approx(expect, rel=1e-12)


@pytest.mark.filterwarnings("ignore:n=")  # non-power-of-two grids
@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), alpha=st.floats(0.1, 0.95))
def test_bessel_norm_matches_spectral_sum(seed, alpha):
    # odd n has no Nyquist column on the half lattice: every k > 0 there is doubled
    for dim, n in [(1, 64), (1, 63), (2, 16), (2, 15), (3, 8), (3, 9)]:
        g = make_grid(dim, n, 20.0)
        # every mode filled, up to the last column of the half lattice
        u = random_field(g, _rng(seed), band_fraction=1.0)
        coeffs = np.fft.fftn(u.values)
        oracle = float(np.sum((1.0 + g.freq_sq) ** alpha * np.abs(coeffs) ** 2))
        oracle *= g.cell_volume / g.total_points
        assert bessel_norm_sq(u, alpha) == pytest.approx(oracle, rel=1e-10), (dim, n)


def test_weighted_norm_pieces():
    g = make_grid(1, 64, 20.0)
    u = random_field(g, _rng(5))
    V = Field(g, 1.0 + g.radius_sq)
    pot = float(np.sum(V.values * u.values**2) * g.cell_volume)
    expect = bessel_norm_sq(u, 0.75) + 2.5 * pot
    assert weighted_norm_sq(u, V, 2.5, 0.75) == pytest.approx(expect, rel=1e-12)


def test_weighted_norm_zero_weight_reduces_to_bessel():
    g = make_grid(1, 64, 20.0)
    u = random_field(g, _rng(6))
    V = constant_field(g, 0.0)
    assert weighted_norm_sq(u, V, 3.0, 0.75) == pytest.approx(
        bessel_norm_sq(u, 0.75), rel=1e-12)


def test_weighted_norm_monotone_in_lam():
    g = make_grid(1, 64, 20.0)
    u = random_field(g, _rng(7))
    V = constant_field(g, 1.0)
    assert weighted_norm_sq(u, V, 2.0, 0.75) > weighted_norm_sq(u, V, 1.0, 0.75)


def test_weighted_norm_dominates_bessel():
    # V >= 0 makes the weighted norm an upper bound for the plain one
    g = make_grid(1, 64, 20.0)
    V = Field(g, 1.0 + g.radius_sq)
    for seed in range(10):
        u = random_field(g, _rng(seed))
        assert bessel_norm_sq(u, 0.75) <= weighted_norm_sq(u, V, 1.0, 0.75) * (1 + 1e-12)


def test_weighted_norm_rejects_bad_inputs():
    g = make_grid(1, 32, 10.0)
    u = constant_field(g, 1.0)
    V = constant_field(g, 1.0)
    with pytest.raises(ValueError, match="lam"):
        weighted_norm_sq(u, V, 0.0, 0.75)
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_norm_sq(u, constant_field(g, -1.0), 1.0, 0.75)


def test_lp_norm_constant():
    g = make_grid(1, 64, 20.0)
    assert lp_norm(constant_field(g, 1.0), 2) == pytest.approx(math.sqrt(20.0))
    assert lp_norm(constant_field(g, 0.0), 4) == 0.0


def test_lp_norm_gaussian_anchor():
    # int exp(-2 x^2) = sqrt(pi/2); truncation at |x| = 20 is negligible
    g = make_grid(1, 256, 40.0)
    u = Field(g, np.exp(-g.axis_coords**2))
    assert lp_norm(u, 2) == pytest.approx((math.pi / 2.0) ** 0.25, abs=1e-8)


def test_lp_norm_rejects_r_below_one():
    g = make_grid(1, 32, 10.0)
    with pytest.raises(ValueError, match="r >= 1"):
        lp_norm(constant_field(g, 1.0), 0.5)


# ---------------------------------------------------------------------------
# random fields


def test_random_field_deterministic_per_seed():
    g = make_grid(1, 64, 20.0)
    a = random_field(g, _rng(42))
    b = random_field(g, _rng(42))
    c = random_field(g, _rng(43))
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)

    d = random_field(g, _rng(42), envelope_sigma=2.0)
    assert np.any(d.values != a.values)


def test_random_field_is_band_limited():
    g = make_grid(1, 128, 20.0)
    u = random_field(g, _rng(1), band_fraction=0.1)
    coeffs = np.fft.fftn(u.values)
    idx = np.abs(np.fft.fftfreq(g.n) * g.n)
    assert np.max(np.abs(coeffs[idx > 13])) <= 1e-10 * np.max(np.abs(coeffs))


def test_random_field_band_fraction_validated():
    g = make_grid(1, 32, 10.0)
    with pytest.raises(ValueError, match="band_fraction"):
        random_field(g, _rng(0), band_fraction=0.0)
