"""Fractional operators on functions sampled over the step-h time scale.

The time scale is {a, a+h, a+2h, ...}.  A function sampled there is held in
a :class:`GridFunction`; fractional operators return a
:class:`ShiftedGridFunction` whose domain origin is displaced by a fraction
of a step, because an order-nu operator applied on the scale starting at `a`
produces values on the scale starting at `a + (1-nu)h` (or `a + nu*h` for
the summation operator).  Keeping that offset explicit prevents callers from
ever misaligning t with t + nu*h.

Operators implemented, each in its defining form and (for the two
fractional differences) an equivalent single-sum form used as a cross-check:

* ``forward_difference``   -- (f(t+h) - f(t)) / h, iterated.
* ``fractional_sum``       -- order-nu summation; its kernel
                              h/Gamma(nu) ((m+nu-1)h)_h^(nu-1) equals
                              h^nu C(m+nu-1, m) and is built from the
                              binomial weight recurrence.
* ``rl_difference``        -- forward difference of the (1-nu)-sum.
* ``caputo_difference``    -- (1-nu)-sum of the forward difference.
* ``rl_difference_direct``, ``caputo_difference_direct`` -- single-sum
                              forms with gamma-ratio falling-factorial
                              kernels; independent oracles for tests and the
                              solver's residual check, not used by any other
                              operator.
* ``summation_by_parts_residual`` -- discrete integration-by-parts identity,
                              kept as a self-test oracle.

The sum, and through it both production differences, convolves directly
below ``_FFT_MIN`` points and from there on through a blocked real FFT,
O(n log^2 n), whose error at each output scales with the samples up to it,
like the direct sum's.  The two oracles always take the direct O(n^2) sum,
so they share neither the kernel nor the convolution algorithm with the
operators they check; from ``_FFT_MIN`` points on, that sum runs as
BLAS-3 products of Toeplitz blocks (:func:`_convolve_direct`), still
O(n^2) and built apart from the production route's blocks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .special import _h_factorial_array, binomial_weights, reciprocal_gamma

__all__ = [
    "HGrid",
    "GridFunction",
    "ShiftedGridFunction",
    "GridMismatchError",
    "InsufficientPointsError",
    "forward_difference",
    "fractional_sum",
    "rl_difference",
    "rl_difference_direct",
    "caputo_difference",
    "caputo_difference_direct",
    "summation_by_parts_residual",
    "write_grid_csv",
    "read_grid_csv",
]


class GridMismatchError(ValueError):
    """Two grid functions were expected to share a grid but do not."""


class InsufficientPointsError(ValueError):
    """Operator needs more sample points than the input carries."""


@dataclass(frozen=True)
class HGrid:
    """Arithmetic time scale {a, a+h, ..., a+(n_points-1)h}."""

    a: float
    h: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"origin must be finite, got a = {self.a!r}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step must be finite and positive, got h = {self.h!r}")
        if self.n_points < 1:
            raise ValueError(f"need at least one point, got {self.n_points}")

    def point(self, k: int) -> float:
        return self.a + k * self.h

    @property
    def points(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n_points)


def _as_value_matrix(values, n_points: int) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[0] != n_points:
        raise ValueError(
            f"values must have shape ({n_points}, dim), got {out.shape}"
        )
    if not np.all(np.isfinite(out)):
        raise ValueError("values must be finite")
    return out


@dataclass(frozen=True)
class GridFunction:
    """Real vector-valued samples on an :class:`HGrid`; rows are grid points."""

    grid: HGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_value_matrix(self.values, self.grid.n_points)
        )

    @classmethod
    def from_callable(cls, grid: HGrid, fn) -> "GridFunction":
        rows = [np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in grid.points]
        return cls(grid, np.vstack(rows))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def component(self, i: int) -> np.ndarray:
        return self.values[:, i]

    def map_values(self, fn) -> "GridFunction":
        """New function on the same grid with transformed values."""
        return GridFunction(self.grid, fn(self.values))


@dataclass(frozen=True)
class ShiftedGridFunction:
    """Samples on the displaced scale {a + offset + k*h}.

    `base_grid` is the grid of the function the operator consumed; `offset`
    is the displacement of the output domain from its origin.  The
    fractional differences produce offset (1-nu)h in [0, h); the order-nu
    sum produces offset nu*h, which reaches h at nu = 1 and may exceed it
    for larger orders.
    """

    base_grid: HGrid
    offset: float
    values: np.ndarray

    def __post_init__(self):
        if self.offset < 0.0:
            raise ValueError(f"offset must be nonnegative, got {self.offset!r}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        object.__setattr__(self, "values", vals)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def point(self, k: int) -> float:
        return self.base_grid.a + self.offset + k * self.base_grid.h

    @property
    def points(self) -> np.ndarray:
        return self.base_grid.a + self.offset + self.base_grid.h * np.arange(self.n_points)

    def component(self, i: int) -> np.ndarray:
        return self.values[:, i]


# Series with at least this many points take the blocked FFT route of
# :func:`_convolve_columns`.  On a 2-vCPU Xeon with numpy 2.4 and 2 columns
# the two routes cost the same between 1536 and 1792 points (1024: direct
# 0.35 ms, blocked 0.56 ms; 3072: direct 2.3 ms, blocked 0.83 ms); 2048
# keeps the blocked route to sizes where it clearly wins.
_FFT_MIN = 2048

# Longest diagonal block that the blocked route multiplies directly, and
# the block length of the direct sum from ``_FFT_MIN`` points on.  For the
# direct sum on a 2-vCPU Xeon with numpy 2.4 (OpenBLAS, 2 threads) and 2
# columns, 30 alternating runs each, 128 / 256 took 15.3 / 17.9 ms on 15000
# points and 34 / 37 ms on 25000 (128 faster in 27 and 26 of 30); on 1e5
# points 256 was 9% faster (0.36 s against 0.39 s).
_BLOCK_MAX = 128


def _convolve_direct(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Causal convolution of each column with `kernel`, truncated to len(values).

    The plain O(n^2) sum: ``np.convolve`` per column below ``_FFT_MIN``
    points.  From there on each column is cut into rows of B = ``_BLOCK_MAX``
    samples, and for each lag block d the transposed Toeplitz matrix
    T_d[j, i] = kernel[d*B + i - j] (zero at negative lags) multiplies, in one
    matrix product, every sample row that reaches an output row d rows
    later.  Only the summation order differs from ``np.convolve``: no pair
    (sample j, output k < j) is summed, and an output's rounding error still
    scales with sum |kernel| |values| up to it.
    """
    n, dim = values.shape
    if n < _FFT_MIN:
        out = np.empty_like(values)
        for j in range(dim):
            out[:, j] = np.convolve(kernel, values[:, j])[:n]
        return out
    b = _BLOCK_MAX
    blocks = -(-n // b)
    size = blocks * b
    # windows[s, r] = padded[s + r], padded[m + b - 1] = kernel[m] (0 for
    # m < 0), so windows[d*b + i, b - 1 - j] = kernel[d*b + i - j].
    padded = np.zeros(size + b - 1)
    padded[b - 1 : b - 1 + n] = kernel[:n]
    windows = sliding_window_view(padded, b)
    out = np.zeros((dim, size))
    column = np.zeros(size)
    samples = column.reshape(blocks, b)
    for c in range(dim):
        column[:n] = values[:, c]
        rows = out[c].reshape(blocks, b)
        for d in range(blocks):
            # A contiguous copy, so that the product runs in BLAS.
            toeplitz = np.ascontiguousarray(windows[d * b : (d + 1) * b, ::-1].T)
            rows[d:] += samples[: blocks - d] @ toeplitz
    return out[:, :n].T


def _convolve_columns(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Causal convolution of each column with the n-point `kernel`, n = len(values).

    Short series use :func:`_convolve_direct`.  From ``_FFT_MIN`` points on,
    the pairs (sample j, output k >= j) are split into diagonal blocks of
    at most ``_BLOCK_MAX`` points, each multiplied by one lower-triangular
    Toeplitz matrix, and squares of pairs (samples [s, s+w), outputs
    [s+w, s+2w)) with s a multiple of 2w, taken through the real FFT one
    width w = block, 2 block, 4 block, ... at a time: O(n log^2 n).  A
    square reads only samples before its outputs, so an output's rounding
    error scales with the samples up to it, as in the direct sum, and not
    with later, larger ones.
    """
    n, dim = values.shape
    if n < _FFT_MIN:
        return _convolve_direct(kernel, values)
    levels = 0
    while n > _BLOCK_MAX << levels:
        levels += 1
    # A multiple of 16 keeps every transform length free of large primes.
    block = -(-n // (16 << levels)) * 16
    size = block << levels
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    toeplitz = np.where(lag >= 0, kernel[np.abs(lag)], 0.0)
    # `out` first holds the zero-padded samples, which each column's
    # diagonal blocks then replace; the squares read `values` itself.
    out = np.zeros((size, dim))
    out[:n] = values
    for j in range(dim):
        out[:, j] = (out[:, j].reshape(-1, block) @ toeplitz.T).ravel()
    width = block
    while width < size:
        # Lags 1 .. 2*width-1, moved down by one: the square's output
        # s+width+i comes out at index width-1+i of the transform.
        spectrum = np.fft.rfft(kernel[1 : 2 * width], 2 * width)
        for j in range(dim):
            # Samples [s, s+width) for every s = 0, 2*width, ... with s+width < n.
            heads = sliding_window_view(values[:-1, j], width)[:: 2 * width]
            tails = out[: 2 * width * len(heads)].reshape(-1, 2 * width, dim)
            column = np.fft.rfft(heads, 2 * width) * spectrum
            tails[:, width:, j] += np.fft.irfft(column, 2 * width)[:, width - 1 : -1]
            # Dropped before the next transform, to hold the peak memory.
            del column
        width *= 2
    return out[:n]


@lru_cache(maxsize=16)
def _kernel(num0: float, nu: float, h: float, n: int) -> np.ndarray:
    """Memoized falling-factorial kernel h^nu Gamma(m + num0)/Gamma(m + num0 - nu).

    That is ((m + num0 - 1) h)_h^(nu) for m = 0..n-1.  Only the
    ``*_direct`` oracles use it.  Taking the gamma numerator offset `num0`
    (rather than t/h) lets them pass one whose distance to a pole is exact.
    Kernels depend only on (num0, nu, h, n), and the tests call the oracles
    with a few combinations many times; the cache is small because a kernel
    can hold 1e5 points.
    """
    values = _h_factorial_array(np.arange(n) + num0, nu, h)
    values.setflags(write=False)
    return values


def forward_difference(f: GridFunction, order: int = 1) -> GridFunction:
    """Iterated forward difference (f(t+h) - f(t)) / h; drops one point per order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if f.grid.n_points <= order:
        raise InsufficientPointsError(
            f"need more than {order} points, got {f.grid.n_points}"
        )
    vals = f.values
    for _ in range(order):
        vals = (vals[1:] - vals[:-1]) / f.grid.h
    grid = HGrid(f.grid.a, f.grid.h, f.grid.n_points - order)
    return GridFunction(grid, vals)


def fractional_sum(f: GridFunction, nu: float) -> ShiftedGridFunction:
    """Order-nu summation of f, on the scale displaced by nu*h.

    At the k-th output point the value is
    (h / Gamma(nu)) * sum_j (t - (j+1)h - a)_h^(nu-1) * f(a + j*h), j = 0..k,
    which equals h^nu * sum_j C(k-j+nu-1, k-j) * f(a + j*h) and is computed
    that way, from :func:`binomial_weights`.  The order-0 operator is the
    identity.  For integer nu this reduces to the iterated plain summation.
    """
    if nu < 0.0:
        raise ValueError(f"order must be nonnegative, got nu = {nu!r}")
    if nu == 0.0:
        return ShiftedGridFunction(f.grid, 0.0, f.values.copy())
    h = f.grid.h
    # The newest point gets kernel[0] = h^nu.
    kernel = binomial_weights(nu, f.grid.n_points - 1)
    kernel *= h**nu
    return ShiftedGridFunction(f.grid, nu * h, _convolve_columns(kernel, f.values))


def _require_frac_order(nu: float) -> None:
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got nu = {nu!r}")


def rl_difference(f: GridFunction, nu: float) -> ShiftedGridFunction:
    """Riemann-Liouville style difference: forward difference of the (1-nu)-sum.

    For nu = 1 this is exactly the forward difference on the original scale.
    """
    _require_frac_order(nu)
    if f.grid.n_points < 2:
        raise InsufficientPointsError("need at least 2 points")
    if nu == 1.0:
        d = forward_difference(f, 1)
        return ShiftedGridFunction(f.grid, 0.0, d.values)
    g = fractional_sum(f, 1.0 - nu)
    vals = g.values[1:] - g.values[:-1]
    vals /= f.grid.h
    return ShiftedGridFunction(f.grid, (1.0 - nu) * f.grid.h, vals)


def rl_difference_direct(f: GridFunction, nu: float) -> ShiftedGridFunction:
    """Single-sum form of the Riemann-Liouville difference.

    At output index k:
    (h / Gamma(-nu)) * sum_{j=0}^{k+1} ((k-j-nu) h)_h^(-nu-1) * f(a + j*h).
    Must agree with :func:`rl_difference`; kept as an independent route.
    """
    _require_frac_order(nu)
    if f.grid.n_points < 2:
        raise InsufficientPointsError("need at least 2 points")
    if nu == 1.0:
        d = forward_difference(f, 1)
        return ShiftedGridFunction(f.grid, 0.0, d.values)
    n = f.grid.n_points
    h = f.grid.h
    # kernel[m] pairs with the sample m steps behind the newest one (index
    # k+1), whose kernel argument is (m - 1 - nu) h: gamma numerator m - nu,
    # passed as such so that its distance to the pole at m - 1 is exact.
    kernel = _kernel(-nu, -nu - 1.0, h, n)
    pref = h * reciprocal_gamma(-nu)
    vals = pref * _convolve_direct(kernel, f.values)[1:]
    return ShiftedGridFunction(f.grid, (1.0 - nu) * h, vals)


def caputo_difference(f: GridFunction, nu: float) -> ShiftedGridFunction:
    """Caputo style difference: (1-nu)-sum of the forward difference.

    Annihilates constants; for nu = 1 it is the forward difference.
    """
    _require_frac_order(nu)
    if f.grid.n_points < 2:
        raise InsufficientPointsError("need at least 2 points")
    d = forward_difference(f, 1)
    if nu == 1.0:
        return ShiftedGridFunction(f.grid, 0.0, d.values)
    g = fractional_sum(d, 1.0 - nu)
    return ShiftedGridFunction(f.grid, g.offset, g.values)


def caputo_difference_direct(f: GridFunction, nu: float) -> ShiftedGridFunction:
    """Binomial-sum form of the Caputo difference.

    The first-order inner sum sum_{r=0}^{1} (-1)^(r+1) C(1,r) f(a+(j+r)h)
    replaces the forward difference; must agree with
    :func:`caputo_difference`.
    """
    _require_frac_order(nu)
    if f.grid.n_points < 2:
        raise InsufficientPointsError("need at least 2 points")
    if nu == 1.0:
        d = forward_difference(f, 1)
        return ShiftedGridFunction(f.grid, 0.0, d.values)
    n = f.grid.n_points
    h = f.grid.h
    from math import comb

    inner = np.zeros((n - 1, f.dim))
    for r in range(2):
        inner += ((-1.0) ** (r + 1)) * comb(1, r) * f.values[r : r + n - 1]
    kernel = _kernel(1.0 - nu, -nu, h, n - 1)
    pref = reciprocal_gamma(1.0 - nu)
    vals = pref * _convolve_direct(kernel, inner)
    return ShiftedGridFunction(f.grid, (1.0 - nu) * h, vals)


def summation_by_parts_residual(x: GridFunction, y: GridFunction, nu: float) -> float:
    """Worst absolute defect of the discrete summation-by-parts identity.

    For every admissible output index k the identity
    sum_j x(a+(j+1)h) (Dx_h y)(a+jh)
      = (x y)|_0^{k+1} / h - sum_j y(a+jh) (Dx_h x)(a+jh)
    is evaluated on both sides (j = 0..k) and the largest |LHS - RHS| is
    returned.  Only useful as a self-test oracle; mathematically the
    residual is zero.
    """
    if x.grid != y.grid:
        raise GridMismatchError("summation by parts needs a common grid")
    if x.dim != 1 or y.dim != 1:
        raise ValueError("summation by parts is defined for scalar functions")
    _require_frac_order(nu)
    n = x.grid.n_points
    if n < 2:
        raise InsufficientPointsError("need at least 2 points")
    h = x.grid.h
    xv = x.values[:, 0]
    yv = y.values[:, 0]
    dx = (xv[1:] - xv[:-1]) / h
    dy = (yv[1:] - yv[:-1]) / h
    lhs = np.cumsum(xv[1:] * dy)
    rhs = (xv[1:] * yv[1:] - xv[0] * yv[0]) / h - np.cumsum(yv[:-1] * dx)
    return float(np.max(np.abs(lhs - rhs)))


def write_grid_csv(f: GridFunction, path) -> None:
    """Write `t,x1,...,xn` rows at full double precision with LF endings."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(f.dim)])
        for k, t in enumerate(f.grid.points):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in f.values[k]])


def read_grid_csv(path) -> GridFunction:
    """Read a grid function written by :func:`write_grid_csv`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header and at least one data row")
    header = rows[0]
    if header[0] != "t":
        raise ValueError(f"{path}: first column must be t, got {header[0]!r}")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    t = data[:, 0]
    if len(t) > 1:
        h = float(t[1] - t[0])
        if h <= 0 or np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(h, 1.0):
            raise ValueError(f"{path}: time column is not uniformly spaced")
    else:
        h = 1.0
    grid = HGrid(float(t[0]), h, len(t))
    return GridFunction(grid, data[:, 1:])
