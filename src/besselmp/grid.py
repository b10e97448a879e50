"""Periodic grids, real fields, and Fourier-side operators.

Everything downstream works on a uniform grid over a cube of side
``box_length`` centered at the origin, with the discrete Fourier transform
supplying exact application of multipliers m(xi) = (1 + |xi|^2)^s at the
grid frequencies xi_k = 2*pi*k / box_length.

An ``EvenGrid`` is the x_i <= 0 half of a grid, stored from the box edge,
and holds the fields that are even in each x_i by their (n//2 + 1)^dim
samples there; on it ``_rfft`` is the real DFT of a mirror-even axis (a
DCT-I when n is even), a dense matrix product on each axis.
Every sum over a grid goes through ``_sum``, ``_integral`` or ``_dot``,
which weigh each stored point by the full-grid points it stands for, so
a kernel reads the same number on either grid for an even field; every
sum over the frequency lattice runs over ``_rfft``'s half lattice, each
entry weighed by the full-lattice frequencies it stands for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

__all__ = [
    "Grid",
    "EvenGrid",
    "Field",
    "apply_multiplier",
    "spectral_derivative",
    "lp_norm",
    "random_field",
]

# Most points a Grid may have: 8 MB per real field, of which a solve holds
# dozens (n = 256 in 3-D would be 16.8M points, 134 MB per field).
GRID_MAX_POINTS = 2**20


def _require(*rules) -> None:
    """Raise one ValueError naming every (holds, message) rule that fails, joined by "; "."""
    problems = [message for holds, message in rules if not holds]
    if problems:
        raise ValueError("; ".join(problems))


def _require_kernel_points(radii, orders) -> None:
    """Refuse an empty list, and each radius or order not positive and finite; SciPy-free for config."""
    rules = (("kernel_radii", "radius", radii), ("kernel_alphas", "order", orders))
    _require(*((len(values) > 0, f"{key}: the kernel table needs at least one {what}")
               for key, what, values in rules),
             *((0.0 < v < math.inf, f"{key}: each {what} must be positive and finite, got {v}")
               for key, what, values in rules for v in values))


def _mirror_weights(n: int) -> np.ndarray:
    """Weights of the axis indices j = 0 .. n//2: 1 where j is its own mirror n - j (mod n), else 2.

    The reflection x -> -x maps the periodic axis index j to n - j (mod n),
    so a stored j stands for itself and its mirror, and so does a half-lattice
    frequency k.
    """
    j = np.arange(n // 2 + 1)
    return np.where(j == (n - j) % n, 1.0, 2.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-box_length/2, box_length/2)^dim."""

    dim: int
    n: int
    box_length: float

    # an EvenGrid stores only the x_i <= 0 half of the even fields
    even: ClassVar[bool] = False

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
        if self.even:  # its full grid has warned
            _require(((self.n // 2 + 1) ** 2 <= GRID_MAX_POINTS,
                      f"n={self.n} gives an even grid's DCT-I matrix of {(self.n // 2 + 1) ** 2:,} "
                      f"entries, above the grid point limit of {GRID_MAX_POINTS:,}"))
        elif self.n < 8:
            warnings.warn(f"n={self.n} is very coarse; results will be poorly resolved")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @cached_property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def total_points(self) -> int:
        """Points of the full grid, also on an EvenGrid."""
        return self.n**self.dim

    @cached_property
    def half(self) -> EvenGrid:
        """The x_i <= 0 half of this grid, from the box edge, for its even fields."""
        return EvenGrid(self.dim, self.n, self.box_length)

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Sample positions -L/2 + j h along one axis, origin at index n//2 when n is even."""
        return _read_only(-0.5 * self.box_length + self.spacing * np.arange(self.shape[0]))

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
        """|xi|^2 on the half lattice, the layout of ``_rfft``: last-axis columns k = 0 .. n//2."""
        last = self.axis_freqs[: self.n // 2 + 1]
        out = np.zeros(self.shape[:-1] + last.shape)
        axes = (self.axis_freqs,) * (self.dim - 1) + (last,)
        for f in np.meshgrid(*axes, indexing="ij", sparse=True):
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
        """The multiplier (1 + |xi|^2)^s on the half lattice, the layout of ``_rfft``."""
        if not np.isfinite(s):
            raise ValueError(f"multiplier order must be finite, got {s}")
        s = float(s)
        return self._cached(("symbol", s), lambda: _read_only((1.0 + self.freq_sq) ** s))

    @cached_property
    def lattice_weights(self) -> np.ndarray:
        """How many full-lattice frequencies each entry of ``symbol``'s half lattice stands for.

        ``_mirror_weights`` on the last axis: 2 on every column whose mirror
        -k the half lattice leaves out; on an EvenGrid ``weights``.
        """
        if self.even:
            return self.weights
        return _read_only(np.ones(self.shape[:-1] + (1,)) * _mirror_weights(self.n))

    def parseval_weight(self, alpha: float) -> np.ndarray:
        """Half-lattice weights w with sum w |_rfft(u)|^2 = ||(I - Laplacian)^{alpha/2} u||^2.

        The symbol (1 + |xi|^2)^alpha times vol/N times ``lattice_weights``.
        """
        return self._cached(("parseval", float(alpha)), lambda: _read_only(
            self.symbol(alpha) * (self.cell_volume / self.total_points) * self.lattice_weights))


@dataclass(frozen=True)
class EvenGrid(Grid):
    """The x_i <= 0 half of the Grid of the same dim, n and box_length, for any n.

    A field even in each x_i is fixed by its (n//2 + 1)^dim samples at the
    full grid's indices j = 0 .. n//2 on each axis, x_i = -L/2 + j h: from
    the box edge to the origin when n is even, to -h/2 when n is odd.  The
    reflection x_i -> -x_i is the index map j -> n - j (mod n), since the
    box is periodic, so the full grid holds their mirror images.  The DFT
    of such a field is real and even, so the frequency lattice is the same
    half, k_i = 0 .. n//2, and ``_rfft`` is a product on each axis with the
    grid's cached (n//2 + 1)^2 matrix (``_dct1``), which is why n//2 + 1
    squared must also be within GRID_MAX_POINTS.  In every sum a stored
    point, or coefficient, weighs the full-grid points it stands for: the
    product over the axes of ``_mirror_weights``, 1 where an index is its
    own mirror (j = 0, and n/2 when n is even) and 2 elsewhere.
    """

    even: ClassVar[bool] = True

    @property
    def shape(self) -> tuple:
        return (self.n // 2 + 1,) * self.dim

    @cached_property
    def axis_freqs(self) -> np.ndarray:
        return _read_only((2.0 * np.pi / self.box_length) * np.arange(self.n // 2 + 1))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(math.prod(np.ix_(*(_mirror_weights(self.n),) * self.dim)))


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


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


# Array kernels: each takes one field's values, an ndarray of ``grid.shape``,
# and returns a float; ``_multiply`` and ``_filter`` return the image and act
# on the trailing grid axes, so they also take a stack of fields.  The
# solvers and the checks call the kernels on raw iterates; the Field
# functions at the end take and return Fields.  All transform through
# ``_rfft`` and ``_irfft``, and all sum through ``_sum``.


def _sum(grid: Grid, values: np.ndarray) -> float:
    """Sum over the grid's points: ``values.sum()`` on a Grid.

    On an EvenGrid each entry weighs the full-grid points it stands for, so
    an even field's sum reads as on its full grid.
    """
    return float(np.vdot(grid.weights, values)) if grid.even else float(values.sum())


def _integral(grid: Grid, values: np.ndarray) -> float:
    """Integral over the box: ``_sum`` times the cell volume."""
    return _sum(grid, values) * grid.cell_volume


def _dot(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> over the grid's points, weighed as ``_sum``; ``np.vdot`` on a Grid."""
    return float(np.vdot(grid.weights * a if grid.even else a, b))


def _restrict(grid: Grid, values: np.ndarray) -> np.ndarray:
    """A full-grid field's samples on ``grid.half``: its indices j = 0 .. n//2 on each axis."""
    return values[_index_map(grid, "restrict", lambda: np.arange(grid.n // 2 + 1))]


def _extend(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The even full-grid field whose samples on ``grid.half`` are ``values``.

    Index j reads the stored one of j and its mirror n - j (mod n).
    """
    return values[_index_map(grid, "extend",
                             lambda: np.minimum(np.arange(grid.n), np.arange(grid.n, 0, -1)))]


def _index_map(grid: Grid, key: str, index) -> tuple:
    """The open mesh of the axis map ``index()`` on every axis, built once per grid and key."""
    return grid._cached(key, lambda: np.ix_(*(index(),) * grid.dim))


def _is_even(grid: Grid, values: np.ndarray) -> bool:
    """Whether a field on a Grid is even in each x_i, to 1e-12 of its largest magnitude."""
    gap = np.abs(values - _extend(grid, _restrict(grid, values)))
    return bool(np.max(gap) <= 1e-12 * np.max(np.abs(values)))


def _dct1_matrix(grid: EvenGrid, norm: str) -> np.ndarray:
    """``_dct1``'s matrix, built once per grid: the backward one is the cached forward's / n.

    The real DFT of a mirror-even axis, a DCT-I when n is even.
    """
    def build():
        if norm == "backward":
            return _read_only(_dct1_matrix(grid, "forward") / grid.n)
        j = np.arange(grid.n // 2 + 1)
        return _read_only(np.cos((2.0 * np.pi / grid.n) * (np.outer(j, j) % grid.n))
                          * _mirror_weights(grid.n))

    return grid._cached(("dct1", norm), build)


def _dct1(grid: EvenGrid, values: np.ndarray, norm: str) -> np.ndarray:
    """The real DFT of a mirror-even field on each trailing axis, a DCT-I when n is even.

    One product per axis with a cached (n//2 + 1)-square matrix.  Forward
    c[k, j] = w_j cos(2 pi (jk mod n) / n), w = ``_mirror_weights``: the DFT
    of an axis's even extension.  Backward c / n.
    Faster than NumPy's irfft of the even extension at every 2-D and 3-D size (README).
    In 1-D a solve's images and norms skip it for ``_multiplier_matrix``, which
    these matrices build once per order; there a transform pair would cost O(n^2),
    8.7 us against the full grid's 13.8 us at n=256 and 185 against 22 us at 1024.
    In dims 2 and 3 a stack of fields transforms as each field alone, to the bit.
    """
    c = _dct1_matrix(grid, norm)
    values = values @ c.T
    if grid.dim > 1:
        values = c @ values
    if grid.dim > 2:
        values = (c @ values.reshape(values.shape[:-3] + (len(c), -1))).reshape(values.shape)
    return values


def _rfft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """rfftn over the trailing grid axes, to the bit: its one-axis numpy calls, in its order.

    Skipping the n-D wrapper's argument handling saves about a fifth of a
    1-D n=256 transform pair (NumPy 2.4).  On an EvenGrid: the real DFT on
    the half lattice, by ``_dct1``.
    """
    if grid.even:
        return _dct1(grid, values, "forward")
    u_hat = np.fft.rfft(values, grid.n, -1)
    for axis in range(-2, -grid.dim - 1, -1):
        u_hat = np.fft.fft(u_hat, grid.n, axis)
    return u_hat


def _irfft(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """irfftn over the trailing grid axes, to the bit, as ``_rfft``; an odd n needs n passed."""
    if grid.even:
        return _dct1(grid, u_hat, "backward")
    for axis in range(-grid.dim, -1):
        u_hat = np.fft.ifft(u_hat, grid.n, axis)
    return np.fft.irfft(u_hat, grid.n, -1)


def _direct(grid: Grid) -> bool:
    """Whether ``grid`` is a 1-D EvenGrid, small enough to store its operators dense."""
    return grid.even and grid.dim == 1


def _multiply(grid: Grid, values: np.ndarray, s: float) -> np.ndarray:
    """(I - Laplacian)^s on the trailing grid axes of ``values``."""
    return _filter(grid, values, grid.symbol(s))


def _filter(grid: Grid, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The half-lattice ``symbol`` applied on the trailing grid axes of ``values``."""
    u_hat = _rfft(grid, values)
    u_hat *= symbol
    return _irfft(grid, u_hat)


def _multiplier_matrix(grid: EvenGrid, s: float) -> np.ndarray:
    """The dense matrix A of ``_multiply(grid, ., s)`` on a 1-D EvenGrid, cached per s; read-only.

    A = C_b diag(symbol) C_f from ``_dct1_matrix``, formed as (C_f^T diag(symbol)) C_b^T with
    a C-ordered left operand, transposed: the identity filtered as one stack of fields, to the
    bit.  A u is ``_multiply`` of u up to roundoff; A is symmetric in ``_dot``'s inner product.
    ``_multiply_and_norm`` and ``_bessel_norm_sq`` apply it there in place of a DCT-I pair.
    """
    def build():
        scaled = np.multiply(_dct1_matrix(grid, "forward").T, grid.symbol(s), order="C")
        return _read_only(np.ascontiguousarray((scaled @ _dct1_matrix(grid, "backward").T).T))

    return grid._cached(("matrix", float(s)), build)


def _parseval(grid: Grid, u_hat: np.ndarray, alpha: float) -> float:
    """Squared bessel norm of the field whose ``_rfft`` is ``u_hat``, which is not written."""
    power = u_hat.real**2
    if np.iscomplexobj(u_hat):  # an EvenGrid's spectrum is real
        power += u_hat.imag**2
    power *= grid.parseval_weight(alpha)
    return float(power.sum())


def _bessel_norm_sq(grid: Grid, values: np.ndarray, alpha: float) -> float:
    """Squared bessel norm, by Parseval; on a 1-D EvenGrid as ``_multiply_and_norm``."""
    if _direct(grid):
        return _multiply_and_norm(grid, values, alpha)[1]
    return _parseval(grid, _rfft(grid, values), alpha)


def _multiply_and_norm(grid: Grid, values: np.ndarray, alpha: float) -> tuple:
    """(``_multiply``, ``_bessel_norm_sq``) of a field by alpha, to the bit, from one transform.

    On a 1-D EvenGrid no transform: one product A u with the cached ``_multiplier_matrix``,
    ``_multiply``'s image up to roundoff, and the norm the integral of u A u, one ``_dot``.
    """
    if _direct(grid):
        image = _multiplier_matrix(grid, alpha) @ values
        return image, _dot(grid, values, image) * grid.cell_volume
    u_hat = _rfft(grid, values)
    norm_sq = _parseval(grid, u_hat, alpha)
    u_hat *= grid.symbol(alpha)
    return _irfft(grid, u_hat), norm_sq


def _potential(grid: Grid, values: np.ndarray, V: np.ndarray, lam: float) -> float:
    """lam * integral of V u^2; ``V`` holds the potential's values."""
    return lam * _integral(grid, V * values**2)


def _sup_constant(grid: Grid, alpha: float, shift: float = 0.0) -> float:
    """C with sup |u|^2 <= C^2 (||u||_bessel^2 + shift ||u||_2^2) for every field on the grid.

    For the DFT coefficients u_k and the symbol s_k = (1 + |xi_k|^2)^alpha,
    Cauchy-Schwarz on u(x) = (1/N) sum_k u_k e^{ikx} gives C^2 = L^-d
    sum_k 1/(s_k + shift) over the full lattice (``lattice_weights``): the
    grid Green's function of (I - Laplacian)^alpha + shift at the origin.
    """
    green_0 = float(np.vdot(grid.lattice_weights, 1.0 / (grid.symbol(alpha) + shift)))
    return math.sqrt(green_0 / grid.box_length**grid.dim)


# DBL_MIN, the least positive normal double
_TINY = float(np.finfo(np.float64).tiny)


def _abs_power(u: np.ndarray, k: float) -> np.ndarray:
    """|u|^k for k > 0, a new array: 0 wherever it would fall below DBL_MIN, NaN and inf kept.

    A whole k multiplies out, in place on the fresh ``np.abs(u)``; k = 0.5
    is the root, as in NumPy's ``**``; any other k calls pow.  pow costs
    about five products a point, and thirty times more where it overflows,
    as at a diverging line search's trials.  Where its result is subnormal
    pow costs 120-260 ns against 4, and 17 ns at 0; a subnormal product
    12.5 ns against 0.4 (NumPy 2.4, AVX-512, one x86-64 Xeon thread).  Most
    of a Gaussian on a wide box lies there, so those entries read 0 without
    either; when the least entry is clear of that floor, as on every solver
    iterate, the power is the plain one.
    """
    a = np.abs(u)
    if k == 0.5:
        return np.sqrt(a)
    whole = k >= 1.0 and float(k).is_integer()
    floor = _TINY ** (1.0 / k)
    # argmin (NaN first) is cheaper than a.min(): about 0.7 against 1.4 us at 129 points
    if a.size == 0 or a.item(a.argmin()) > floor * (1.0 + 1e-9):
        return _square_and_multiply(a, int(k)) if whole else a**k
    keep = ~(a <= floor * (1.0 - 1e-9))  # NaN is kept
    if whole:
        out = _square_and_multiply(np.where(keep, a, 0.0), int(k))
    else:
        out = np.zeros(a.shape)  # a quarter of zeros_like's cost
        np.power(a, k, out=out, where=keep)
    out[out < _TINY] = 0.0  # the few kept entries whose power is subnormal
    return out


def _square_and_multiply(a: np.ndarray, k: int) -> np.ndarray:
    """a^k for a whole k >= 1, squaring ``a`` in place."""
    out = None
    while True:
        if k & 1:
            if out is None:
                out = a.copy() if k > 1 else a
            else:
                out *= a
        k >>= 1
        if not k:
            return out
        a *= a


def _lp_norm(grid: Grid, values: np.ndarray, r: float) -> float:
    """L^r norm over the box; r is not checked, and an overflowing sum reads inf.

    The root is a scalar power: NumPy's array power (SIMD) can differ from
    it in the last bit.
    """
    total = _integral(grid, _abs_power(values, r))
    return total ** (1.0 / r)


def apply_multiplier(field: Field, s: float) -> Field:
    """Apply (I - Laplacian)^s through the symbol (1 + |xi|^2)^s.

    Exact (to roundoff) on band-limited data for any real s; s < 0 smooths,
    s > 0 roughens, s = 0 is the identity.
    """
    return Field(field.grid, _multiply(field.grid, field.values, s))


def spectral_derivative(field: Field, axis: int = 0, order: int = 1) -> Field:
    """Differentiate along one axis via the (i xi)^order symbol, on a full Grid.

    An odd order zeroes an even n's Nyquist frequency on that axis: the
    symbol there has no real part and no conjugate partner, so the real
    derivative has no component at it.  An odd derivative of an even field
    is odd, and an EvenGrid cannot hold it.
    """
    g = field.grid
    _require((0 <= axis < g.dim, f"axis {axis} out of range for dim {g.dim}"),
             (order >= 0, f"order {order} must be nonnegative"),
             (not g.even, "spectral_derivative needs a full Grid: an EvenGrid holds only "
                          "even fields, and an odd derivative of one is odd"))
    # the last axis keeps the half lattice's k = 0 .. n//2
    symbol = (1j * g.axis_freqs[: g.n // 2 + 1 if axis == g.dim - 1 else g.n]) ** order
    if order % 2 and g.n % 2 == 0:
        symbol[g.n // 2] = 0.0
    shape = [1] * g.dim
    shape[axis] = symbol.size
    return Field(g, _filter(g, field.values, symbol.reshape(shape)))


def lp_norm(field: Field, r: float) -> float:
    """L^r norm over the box.

    Where the integral of |u|^r overflows, or falls below DBL_MIN and so
    loses digits, as it can at large r or on a tiny box, the norm is
    m ||u / m||_r with m = max |u|: that integral lies between the cell
    volume and the box volume.
    """
    if not (r >= 1 and np.isfinite(r)):
        raise ValueError(f"lp_norm needs r >= 1, got {r}")
    g, v = field.grid, field.values
    with np.errstate(over="ignore"):
        total = _integral(g, _abs_power(v, r))
    if _TINY <= total < math.inf:
        return total ** (1.0 / r)
    peak = float(np.max(np.abs(v)))
    return peak * _lp_norm(g, v / peak, r) if peak > 0.0 else 0.0


def random_field(grid: Grid, rng: np.random.Generator, band_fraction: float = 0.25,
                 envelope_sigma: float | None = None) -> Field:
    """Band-limited Gaussian random field.

    White noise is filtered to the lowest ``band_fraction`` of modes per
    axis (i.i.d. normal coefficients there, zero beyond), optionally damped
    by a Gaussian envelope exp(-|x|^2 / 2 sigma^2) to concentrate mass.
    The noise fills a full Grid; an EvenGrid, which holds only even fields,
    is refused.
    """
    _require((0 < band_fraction <= 1, f"band_fraction must lie in (0, 1], got {band_fraction}"),
             (not grid.even, "random_field needs a full Grid: white noise is not even, "
                             "and an EvenGrid holds only even fields"))
    cutoff = max(1, int(band_fraction * grid.n))
    idx = np.abs(np.fft.fftfreq(grid.n) * grid.n)
    keep = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        keep &= idx.reshape((-1,) + (1,) * (grid.dim - 1 - ax)) <= cutoff
    w_hat = _rfft(grid, rng.standard_normal(grid.shape))
    # the half lattice's columns k = 0 .. n//2
    vals = _irfft(grid, np.where(keep[..., : grid.n // 2 + 1], w_hat, 0.0))
    if envelope_sigma is not None:
        vals = vals * np.exp(-grid.radius_sq / (2.0 * envelope_sigma**2))
    return Field(grid, vals)
