"""Periodic grids, real fields, and Fourier-side operators.

Everything downstream works on a uniform grid over a cube of side
``box_length`` centered at the origin, with the discrete Fourier transform
supplying exact application of multipliers m(xi) = (1 + |xi|^2)^s at the
grid frequencies xi_k = 2*pi*k / box_length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "Spectrum",
    "make_grid",
    "transform",
    "inverse_transform",
    "apply_multiplier",
    "spectral_derivative",
    "bessel_norm_sq",
    "weighted_norm_sq",
    "lp_norm",
    "constant_field",
    "field_from_function",
    "random_field",
]

# Largest grid, in points, on which Newton solves use the dense multiplier
# matrix (32 MB at this size); larger grids go through a Krylov solver.
DENSE_MAX_POINTS = 2048

# Most points a Grid may have: 8 MB per real field, of which a solve holds
# dozens (n = 256 in 3-D would be 16.8M points, 134 MB per field).
GRID_MAX_POINTS = 2**20

# Most points in one stack of fields that a row kernel transforms at once:
# a stack holds ``Grid.batch_rows`` = max(1, BATCH_MAX_POINTS // total_points)
# fields (64 at n=256 in 1-D, 7 at 48 x 48), which bounds the temporaries.
BATCH_MAX_POINTS = 16384


def _require(*rules) -> None:
    """Raise one ValueError naming every (holds, message) rule that fails, joined by "; "."""
    problems = [message for holds, message in rules if not holds]
    if problems:
        raise ValueError("; ".join(problems))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-box_length/2, box_length/2)^dim."""

    dim: int
    n: int
    box_length: float

    def __post_init__(self):
        points = int(self.n) ** self.dim if self.dim in (1, 2, 3) else 0
        _require((self.dim in (1, 2, 3), f"dim must be 1, 2 or 3, got {self.dim}"),
                 (int(self.n) == self.n and self.n > 0, f"n must be a positive integer, got {self.n}"),
                 (0.0 < self.box_length < np.inf,
                  f"box_length must be positive and finite, got {self.box_length}"),
                 (points <= GRID_MAX_POINTS,
                  f"n={self.n} in dim {self.dim} gives {points:,} points, "
                  f"above the grid point limit of {GRID_MAX_POINTS:,}"))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "box_length", float(self.box_length))
        if self.n < 8:
            warnings.warn(f"n={self.n} is very coarse; results will be poorly resolved")
        elif self.n & (self.n - 1) != 0:
            # numpy's mixed-radix FFT stays exact, only speed suffers
            warnings.warn(f"n={self.n} is not a power of two; transforms will be slower")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def total_points(self) -> int:
        return self.n**self.dim

    @property
    def batch_rows(self) -> int:
        """Most fields in one stack handed to a row kernel."""
        return max(1, BATCH_MAX_POINTS // self.total_points)

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Sample positions along one axis, origin at index n//2."""
        return _read_only(-0.5 * self.box_length + self.spacing * np.arange(self.n))

    def coords(self) -> tuple:
        """Tuple of dim coordinate arrays of shape ``self.shape`` (ij indexing)."""
        return self._cached("coords", lambda: tuple(
            _read_only(c) for c in np.meshgrid(*(self.axis_coords,) * self.dim, indexing="ij")))

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 at every grid point."""
        out = np.zeros(self.shape)
        for c in self.coords():
            out += c**2
        return _read_only(out)

    @cached_property
    def axis_freqs(self) -> np.ndarray:
        """Angular frequencies 2*pi*k/box_length in FFT layout along one axis."""
        return _read_only((2.0 * np.pi) * np.fft.fftfreq(self.n, d=self.spacing))

    @cached_property
    def freq_sq(self) -> np.ndarray:
        """|xi|^2 on the full frequency lattice, FFT layout."""
        out = np.zeros(self.shape)
        mesh = np.meshgrid(*(self.axis_freqs,) * self.dim, indexing="ij")
        for f in mesh:
            out += f**2
        return _read_only(out)

    # The spectral workspace: arrays that depend on the grid and an operator
    # order only, built on first use and shared by every field on the grid.

    @cached_property
    def _workspace(self) -> dict:
        return {}

    def _cached(self, key, build):
        ws = self._workspace
        if key not in ws:
            ws[key] = build()
        return ws[key]

    def symbol(self, s: float) -> np.ndarray:
        """The multiplier (1 + |xi|^2)^s on the half lattice, ``rfftn`` layout."""
        if not np.isfinite(s):
            raise ValueError(f"multiplier order must be finite, got {s}")
        s = float(s)
        # the first n//2 + 1 columns of the full layout hold k = 0 .. n//2
        return self._cached(("symbol", s), lambda: _read_only(
            (1.0 + self.freq_sq[..., : self.n // 2 + 1]) ** s))

    def parseval_weight(self, alpha: float) -> np.ndarray:
        """Half-lattice weights w with sum w |rfftn(u)|^2 = ||(I - Laplacian)^{alpha/2} u||^2.

        The symbol (1 + |xi|^2)^alpha times vol/N, doubled on every column
        of the last axis whose mirror -k is left out of the half lattice:
        all but k = 0 and, for even n, k = n/2.
        """
        def build():
            w = self.symbol(alpha) * (self.cell_volume / self.total_points)
            w[..., 1 : (self.n + 1) // 2] *= 2.0
            return _read_only(w)

        return self._cached(("parseval", float(alpha)), build)

    def multiplier_matrix(self, s: float) -> np.ndarray:
        """Dense matrix of ``apply_multiplier(., s)`` on raveled fields.

        Column j is the multiplier applied to the j-th unit field, so the
        matrix is exactly the operator that ``apply_multiplier`` evaluates;
        the unit fields go through the multiplier kernel in stacks of
        ``batch_rows``.  Grids above ``DENSE_MAX_POINTS`` points are
        refused: the matrix grows with the square of the point count.
        """
        npts = self.total_points
        if npts > DENSE_MAX_POINTS:
            raise ValueError(f"dense multiplier matrix needs at most {DENSE_MAX_POINTS} points, "
                             f"grid has {npts}")

        def build():
            out = np.empty((npts, npts))
            for start in range(0, npts, self.batch_rows):
                cols = np.arange(start, min(start + self.batch_rows, npts))
                units = np.zeros((cols.size, npts))
                units[np.arange(cols.size), cols] = 1.0
                images = _multiply(self, units.reshape((-1,) + self.shape), s)
                out[:, cols] = images.reshape(cols.size, npts).T
            return _read_only(out)

        return self._cached(("matrix", float(s)), build)


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar samples on a grid.  Immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        _require_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex Fourier coefficients in numpy FFT layout."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, order="C", copy=True)
        if c.shape != self.grid.shape:
            raise ValueError(f"coeffs shape {c.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("spectral coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def make_grid(dim: int, n: int, box_length: float) -> Grid:
    """Build a periodic grid; dim in {1,2,3}, n points per axis."""
    return Grid(dim=dim, n=n, box_length=box_length)


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def field_from_function(grid: Grid, fn) -> Field:
    """Sample ``fn(*coords)`` on the grid."""
    return Field(grid, np.asarray(fn(*grid.coords()), dtype=np.float64))


def transform(field: Field) -> Spectrum:
    """Forward DFT (unnormalized): coefficient at k is sum_j u_j e^{-2 pi i j k / n}."""
    return Spectrum(field.grid, np.fft.fftn(field.values))


def inverse_transform(spectrum: Spectrum) -> Field:
    """Inverse DFT back to a real field.

    The coefficients must be Hermitian-symmetric up to roundoff; a
    substantial imaginary remainder means the spectrum does not represent
    a real field and is reported as an error.
    """
    v = np.fft.ifftn(spectrum.coeffs)
    scale = np.max(np.abs(v.real)) if v.size else 0.0
    if np.max(np.abs(v.imag)) > 1e-9 * max(scale, 1e-300):
        raise ValueError("spectrum is not Hermitian-symmetric: inverse transform is not real")
    return Field(spectrum.grid, v.real)


# Row kernels: they act on the trailing ``grid.dim`` axes of an array whose
# leading axes, if any, index a stack of fields.  Each row's result is the
# same, to the bit, as the kernel applied to that row alone, so the Field
# functions below are thin wrappers over them.


def _fft_axes(grid: Grid) -> dict:
    """rfftn/irfftn keywords for the trailing grid axes.

    Passing ``s`` along with ``axes`` spares numpy a per-call shape lookup
    (about 5 us a call with NumPy 2.4, some 40% of a 256-point transform),
    and tells ``irfftn`` the length of the last axis, which an odd n needs.
    """
    return {"s": grid.shape, "axes": tuple(range(-grid.dim, 0))}


def _multiply(grid: Grid, values: np.ndarray, s: float) -> np.ndarray:
    """(I - Laplacian)^s on every row of ``values``."""
    u_hat = np.fft.rfftn(values, **_fft_axes(grid))
    u_hat *= grid.symbol(s)
    return np.fft.irfftn(u_hat, **_fft_axes(grid))


def _row_sum(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Sum over the trailing grid axes (full or half lattice), one value per row."""
    lead = values.ndim - grid.dim
    # an explicit length: reshape cannot infer -1 when a stack has no rows
    return values.reshape(values.shape[:lead] + (math.prod(values.shape[lead:]),)).sum(axis=-1)


def _bessel_norm_sq_rows(grid: Grid, values: np.ndarray, alpha: float) -> np.ndarray:
    """Squared bessel norm of every row, by Parseval from the forward half spectrum."""
    u_hat = np.fft.rfftn(values, **_fft_axes(grid))
    power = u_hat.real**2
    power += u_hat.imag**2
    power *= grid.parseval_weight(alpha)
    return _row_sum(grid, power)


def _weighted_norm_sq_rows(grid: Grid, values: np.ndarray, V: np.ndarray, lam: float,
                           alpha: float) -> np.ndarray:
    """Squared solver norm of every row; ``V`` holds the potential's values."""
    pot = lam * (_row_sum(grid, V * values**2) * grid.cell_volume)
    return _bessel_norm_sq_rows(grid, values, alpha) + pot


def _band_limit(grid: Grid, noise: np.ndarray, band_fraction: float,
                envelope_sigma=None) -> np.ndarray:
    """Rows of white noise filtered to the lowest ``band_fraction`` of modes per axis.

    ``envelope_sigma`` (one value, or one per row) damps each row by
    exp(-|x|^2 / 2 sigma^2).
    """
    w_hat = np.fft.rfftn(noise, **_fft_axes(grid))
    cutoff = max(1, int(band_fraction * grid.n))
    idx = np.abs(np.fft.fftfreq(grid.n) * grid.n)
    keep = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        keep &= idx.reshape((-1,) + (1,) * (grid.dim - 1 - ax)) <= cutoff
    keep = keep[..., : grid.n // 2 + 1]  # the half lattice's columns k = 0 .. n//2
    vals = np.fft.irfftn(np.where(keep, w_hat, 0.0), **_fft_axes(grid))
    if envelope_sigma is not None:
        sigma = np.reshape(envelope_sigma, np.shape(envelope_sigma) + (1,) * grid.dim)
        vals = vals * np.exp(-grid.radius_sq / (2.0 * sigma**2))
    return vals


def _lp_norm(grid: Grid, values: np.ndarray, r: float) -> float:
    """L^r norm of one field's values over the box; r is not checked."""
    return float((np.sum(np.abs(values) ** r) * grid.cell_volume) ** (1.0 / r))


def apply_multiplier(field: Field, s: float) -> Field:
    """Apply (I - Laplacian)^s through the symbol (1 + |xi|^2)^s.

    Exact (to roundoff) on band-limited data for any real s; s < 0 smooths,
    s > 0 roughens, s = 0 is the identity.
    """
    return Field(field.grid, _multiply(field.grid, field.values, s))


def spectral_derivative(field: Field, axis: int = 0, order: int = 1) -> Field:
    """Differentiate along one axis via the (i xi)^order symbol."""
    if not 0 <= axis < field.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {field.grid.dim}")
    g = field.grid
    shape = [1] * g.dim
    shape[axis] = g.n
    u_hat = np.fft.fftn(field.values) * (1j * g.axis_freqs.reshape(shape)) ** order
    return Field(g, np.fft.ifftn(u_hat).real)


def bessel_norm_sq(field: Field, alpha: float) -> float:
    """Squared norm ||(I - Laplacian)^{alpha/2} u||_{L^2}^2 over the box."""
    return float(_bessel_norm_sq_rows(field.grid, field.values, alpha))


def weighted_norm_sq(field: Field, V: Field, lam: float, alpha: float) -> float:
    """Squared solver norm: bessel part plus lam * integral of V u^2.

    With a nonnegative potential this dominates the plain bessel norm, so it
    controls the same embeddings with constants no worse.
    """
    _require_same_grid(field, V)
    if not (lam > 0 and np.isfinite(lam)):
        raise ValueError(f"lam must be positive, got {lam}")
    if np.min(V.values) < 0:
        raise ValueError("potential must be nonnegative")
    return float(_weighted_norm_sq_rows(field.grid, field.values, V.values, lam, alpha))


def lp_norm(field: Field, r: float) -> float:
    """L^r norm over the box, huge-r values are fine (no overflow guard needed at desk scale)."""
    if not (r >= 1 and np.isfinite(r)):
        raise ValueError(f"lp_norm needs r >= 1, got {r}")
    return _lp_norm(field.grid, field.values, r)


def random_field(grid: Grid, rng: np.random.Generator, band_fraction: float = 0.25,
                 envelope_sigma: float | None = None) -> Field:
    """Band-limited Gaussian random field.

    White noise is filtered to the lowest ``band_fraction`` of modes per
    axis (i.i.d. normal coefficients there, zero beyond), optionally damped
    by a Gaussian envelope exp(-|x|^2 / 2 sigma^2) to concentrate mass.
    """
    if not 0 < band_fraction <= 1:
        raise ValueError(f"band_fraction must lie in (0, 1], got {band_fraction}")
    return Field(grid, _band_limit(grid, rng.standard_normal(grid.shape), band_fraction,
                                   envelope_sigma))
