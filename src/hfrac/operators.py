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

The sum, and through it both production differences, takes the direct
O(n^2) sum below ``_FFT_MIN`` points and a blocked real FFT, O(n log^2 n),
from there on; on both routes an output's error scales with the samples up
to it.  The two oracles always take the direct sum, with their own
gamma-ratio kernels.  The direct sum is one route at every size, products
of Toeplitz blocks (:func:`_block_products`).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .special import _h_factorial_array, binomial_weights, reciprocal_gamma

__all__ = [
    "OperatorKind",
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
# :func:`_convolve_columns`, shorter ones the direct sum.  Set when that sum
# was np.convolve; the Toeplitz block sum breaks even with the FFT route
# between 3072 and 4096 points (2-vCPU Xeon, numpy 2.4, 2 columns).
_FFT_MIN = 2048

# Longest Toeplitz block of the direct sum and of the FFT route's diagonal.
# On the same host 128 beat 256 on 15000 and 25000 points (15.3 / 17.9 and
# 34 / 37 ms, 30 alternating runs); 256 was 9% faster on 1e5 points.
_BLOCK_MAX = 128


def _block_products(kernel: np.ndarray, values: np.ndarray, b: int, blocks: int,
                    lags: int) -> np.ndarray:
    """Lag blocks 0 .. lags-1 of the causal convolution of each column, cut
    into `blocks` rows of `b` samples (zero past n); blocks*b outputs each.

    Lag block d multiplies each sample row by the transposed Toeplitz matrix
    T_d[j, i] = kernel[d*b + i - j] (zero at negative lags) into the output
    row d rows later (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
    Comput. 6, 1985).  Each output column is contiguous.
    """
    n, dim = values.shape
    # windows[s, r] = padded[s + r], padded[m + b - 1] = kernel[m] (0 for
    # m < 0), so windows[d*b + b - 1 - j, i] = kernel[d*b + i - j]; the
    # ndarray constructor checks the extent at a tenth of the call cost of
    # sliding_window_view.
    padded = np.zeros((lags + 1) * b - 1)
    m = min(len(kernel), lags * b)
    padded[b - 1 : b - 1 + m] = kernel[:m]
    windows = np.ndarray((lags * b, b), float, padded, 0, padded.strides * 2)

    def toeplitz(d):
        # A contiguous copy, so that the products run in BLAS.
        return np.ascontiguousarray(windows[d * b : (d + 1) * b][::-1])

    # samples[c, s, j] = values[s*b + j, c], zero past n.
    samples = np.zeros((dim, blocks, b))
    samples.reshape(dim, blocks * b)[:, :n] = values.T
    # One product per column and lag, whatever the number of columns, so
    # that a column's sums do not depend on the columns beside it.
    out = samples @ toeplitz(0)
    for d in range(1, min(lags, blocks)):
        out[:, d:] += samples[:, : blocks - d] @ toeplitz(d)
    return out.reshape(dim, blocks * b).T


def _convolve_direct(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Causal convolution of each column with `kernel`, truncated to len(values).

    The plain O(n^2) sum, as :func:`_block_products` over every lag block of
    B = min(n, ``_BLOCK_MAX``) samples.  Only the summation order differs
    from ``np.convolve``: no pair (sample j, output k < j) is summed, and an
    output's rounding error still scales with sum |kernel| |values| up to it.
    """
    n = len(values)
    b = min(n, _BLOCK_MAX)
    blocks = -(-n // b)
    return _block_products(kernel, values, b, blocks, blocks)[:n]


def _tiling(n: int) -> tuple[int, int]:
    """Diagonal block width and number of square widths, block << levels >= n;
    below ``_FFT_MIN`` points the block is the whole series, with no squares."""
    if n < _FFT_MIN:
        return n, 0
    levels = 0
    while n > _BLOCK_MAX << levels:
        levels += 1
    # A multiple of 16 keeps every transform length free of large primes.
    return -(-n // (16 << levels)) * 16, levels


def _square_spectrum(kernel: np.ndarray, width: int) -> np.ndarray:
    """Spectrum of the lags 1 .. 2*width-1 that a square of `width` spans."""
    return np.fft.rfft(kernel[1 : 2 * width], 2 * width)


def _square(spectrum: np.ndarray, samples: np.ndarray, width: int) -> np.ndarray:
    """Outputs s+width .. s+2*width-1 of a square from its samples [s, s+width)
    on the last axis: with the lags moved down by one, output s+width+i is
    index width-1+i of the transform, which the circular wrap misses."""
    column = np.fft.rfft(samples, 2 * width) * spectrum
    return np.fft.irfft(column, 2 * width)[..., width - 1 : -1]


def _convolve_columns(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Causal convolution of each column with the n-point `kernel`, n = len(values).

    Short series use :func:`_convolve_direct`.  From ``_FFT_MIN`` points on,
    the pairs (sample j, output k >= j) are split into diagonal blocks of
    at most ``_BLOCK_MAX`` points, multiplied by :func:`_block_products`,
    and squares of pairs (samples [s, s+w), outputs
    [s+w, s+2w)) with s a multiple of 2w, taken through the real FFT one
    width w = block, 2 block, 4 block, ... at a time: O(n log^2 n).  A
    square reads only samples before its outputs, so an output's rounding
    error scales with the samples up to it, as in the direct sum, and not
    with later, larger ones; ``solve`` tiles its history sums alike.
    """
    n, dim = values.shape
    block, levels = _tiling(n)
    if not levels:
        return _convolve_direct(kernel, values)
    size = block << levels
    # The diagonal blocks of the zero-padded series; the squares add the rest.
    out = _block_products(kernel, values, block, 1 << levels, 1)
    width = block
    while width < size:
        spectrum = _square_spectrum(kernel, width)
        for j in range(dim):
            # Samples [s, s+width) for every s = 0, 2*width, ... with s+width < n.
            heads = sliding_window_view(values[:-1, j], width)[:: 2 * width]
            tails = out[: 2 * width * len(heads), j].reshape(-1, 2 * width)
            tails[:, width:] += _square(spectrum, heads, width)
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
    g = fractional_sum(forward_difference(f, 1), 1.0 - nu)
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


class OperatorKind(enum.Enum):
    """The two fractional differences, with the entries that depend on the kind.

    The entries read the operators from the module globals when called, so
    that a wrapper installed over a global (a tracer, a test) sees the calls.
    """

    CAPUTO = "caputo"
    RIEMANN_LIOUVILLE = "rl"

    @classmethod
    def _missing_(cls, value):  # definition files may write the kind in any case
        if isinstance(value, str) and value.lower() in ("caputo", "rl"):
            return cls(value.lower())
        raise ValueError(f"kind must be caputo or rl, got {value!r}")

    @property
    def difference(self):
        """``caputo_difference`` or ``rl_difference``."""
        return caputo_difference if self is OperatorKind.CAPUTO else rl_difference

    @property
    def direct(self):
        """The single-sum oracle of :attr:`difference`."""
        return caputo_difference_direct if self is OperatorKind.CAPUTO else rl_difference_direct

    def x0_weights(self, weights: np.ndarray) -> np.ndarray:
        """Coefficients of x0 in the inverted recurrence, from the order-nu
        binomial weights: all ones for Caputo, the weights themselves for RL."""
        return np.ones_like(weights) if self is OperatorKind.CAPUTO else weights


def summation_by_parts_residual(x: GridFunction, y: GridFunction) -> float:
    """Worst absolute defect of the discrete summation-by-parts identity.

    For every admissible output index k the identity
    sum_j x(a+(j+1)h) (Dx_h y)(a+jh)
      = (x y)|_0^{k+1} / h - sum_j y(a+jh) (Dx_h x)(a+jh)
    is evaluated on both sides (j = 0..k) and the largest |LHS - RHS| is
    returned.  The identity is first order, so it takes no order.  Only
    useful as a self-test oracle; mathematically the residual is zero.
    """
    if x.grid != y.grid:
        raise GridMismatchError("summation by parts needs a common grid")
    if x.dim != 1 or y.dim != 1:
        raise ValueError("summation by parts is defined for scalar functions")
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
