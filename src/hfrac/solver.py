"""Implicit convolution-quadrature stepper for fractional order-nu systems.

Both initial value problems solved here prescribe the fractional difference
of the state on the displaced scale t in {a + (1-nu)h + n*h}:

    (D^nu x)(t) = f(t, x(t + nu*h)),

with the Caputo operator carrying the plain initial state x(a) = x0 and the
Riemann-Liouville operator carrying the summed initial condition, which the
stepper realizes as x(a) = x0 (the transform pair makes x(a) the natural
datum).  Inverting the operator turns the problem into an explicit-in-history
convolution with the binomial weights w = C(n+nu-1, n):

    Caputo:            x_n = x_0        + h^nu * sum_{s<n} w[n-1-s] f(t_s, x_{s+1})
    Riemann-Liouville: x_n = w[n] * x_0 + h^nu * sum_{s<n} w[n-1-s] f(t_s, x_{s+1})

The newest term has weight w[0] = 1, so every step is an implicit equation,
solved by a damped chord-Newton iteration whose matrix (I - h^nu J)^-1 is
carried from step to step and rebuilt only when it stops contracting well.

The history sums are tiled as in the operators' blocked convolution: a
step sums directly over its own diagonal block, and a square of samples
[s, s+w) adds to steps s+w+1 .. s+2w with one FFT once sample s+w-1 is
known.  Below ``_FFT_MIN`` steps the block is the whole history.

A state has few components, so a numpy call would cost more than its
arithmetic, and the step runs on lists of Python floats.  numpy does only
the history sum, the chord product (I - h^nu J)^-1 g and the Jacobian with
its inverse.  Every other operation is the same IEEE operation on each
component, in the same order, as on arrays; numpy's matrix products may fuse
multiply-adds, so they are never replaced by Python sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import (
    GridFunction,
    HGrid,
    OperatorKind,
    ShiftedGridFunction,
    _require_frac_order,
    _square,
    _square_spectrum,
    _tiling,
    _write_csv,
    fractional_sum,
)
from .special import binomial_weights

__all__ = [
    "OperatorKind",
    "SystemDef",
    "StepRecord",
    "Trajectory",
    "SolverDivergenceError",
    "EquilibriumError",
    "solve",
    "residual_check",
    "reconstruct_from_difference",
    "write_step_csv",
]

DEFAULT_STEP_TOL = 1e-12
_NEWTON_CAP = 100
_CONTRACTION = 1e-3


class SolverDivergenceError(RuntimeError):
    """The implicit step solve failed to converge."""

    def __init__(self, step: int, residual: float, message: str | None = None):
        super().__init__(
            message or f"inner solve diverged at step {step} (residual {residual:.3e})"
        )
        self.step = step
        self.residual = residual


class EquilibriumError(ValueError):
    """The right-hand side does not vanish at the origin."""


@dataclass(frozen=True)
class SystemDef:
    """A fractional order-nu initial value problem.

    `rhs(t, x_next)` receives the state at t + nu*h and must return a length
    `dim` vector.  The origin must be an equilibrium: rhs(t, 0) = 0 is
    checked at construction, not assumed.
    """

    dim: int
    kind: OperatorKind
    nu: float
    a: float
    h: float
    x0: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]
    time_dependent: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        _require_frac_order(self.nu)
        HGrid(self.a, self.h, 1)  # the grid's checks of a and h
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 must have length {self.dim}, got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be finite, got x0 = {x0}")
        object.__setattr__(self, "x0", x0)
        zero = np.zeros(self.dim)
        for t in (self.shifted_time(0), self.shifted_time(7)):
            fz = self.eval_rhs(t, zero)
            if not np.all(np.abs(fz) <= 1e-12):  # NaN fails too
                raise EquilibriumError(
                    f"rhs(t, 0) = {fz} at t = {t}; the origin must be an equilibrium"
                )

    def shifted_time(self, s):
        """The s-th point of the displaced scale, a + (1-nu)h + s*h (elementwise
        for an integer array s)."""
        return self.a + (1.0 - self.nu) * self.h + s * self.h

    def eval_rhs_batch(self, t, points: np.ndarray) -> np.ndarray:
        """f at the rows of `points` (B, dim) as a (B, dim) array; `t` is one
        time or one per point.

        An rhs with a ``batch`` attribute (expression and built-in systems,
        see ``hfrac.expr.compile_rhs``) is called once; any other callable
        is evaluated point by point through :meth:`eval_rhs`.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points must have shape (B, {self.dim}), got {points.shape}")
        batch = getattr(self.rhs, "batch", None)
        if batch is not None:
            out = batch(t, points)
            if out.shape != points.shape:
                raise ValueError(f"rhs batch returned shape {out.shape}, expected {points.shape}")
            return out
        times = np.broadcast_to(t, len(points)).tolist()
        out = [self.eval_rhs(tk, x) for tk, x in zip(times, points)]
        return np.array(out).reshape(len(points), self.dim)

    def eval_rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.rhs(t, x), dtype=float).reshape(-1)
        if out.shape != (self.dim,):
            raise ValueError(
                f"rhs returned shape {out.shape}, expected ({self.dim},)"
            )
        return out


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Convergence metadata for one implicit step."""

    index: int
    iterations: int
    residual: float
    method: str


@dataclass(frozen=True)
class Trajectory:
    """A solved trajectory on {a, a+h, ...} with per-step solve metadata."""

    system: SystemDef
    states: GridFunction
    steps: tuple[StepRecord, ...] = field(repr=False)

    @property
    def n_steps(self) -> int:
        return self.states.grid.n_points - 1

    def state(self, n: int) -> np.ndarray:
        return self.states.values[n]


def _inf_norm(v: list) -> float:
    """max |v_i|, or inf if any entry is not finite (max alone can skip a NaN)."""
    return max(map(abs, v)) if math.isfinite(sum(v)) else math.inf


def _check_finite(step: int, t: float, x: list, fx: list) -> None:
    """Fail at a non-finite rhs value taken at a finite state."""
    if all(map(math.isfinite, x)) and not all(map(math.isfinite, fx)):
        msg = f"rhs returned a non-finite value {np.array(fx)} at step {step} (t = {t!r})"
        raise SolverDivergenceError(step, math.nan, msg)


FloatRhs = Callable[[float, list], list]


def _float_rhs(sys: SystemDef) -> FloatRhs:
    """f as a map of float lists: a compiled rhs's ``floats`` form, or else
    :meth:`SystemDef.eval_rhs` (with its shape check) on an array."""
    floats = getattr(sys.rhs, "floats", None)
    if floats is not None:
        return floats
    return lambda t, x: sys.eval_rhs(t, np.array(x)).tolist()


def _iteration_matrix(f: FloatRhs, step: int, t: float, x: list, fx: list,
                      scale: float) -> np.ndarray:
    """(I - scale*J)^-1, J by forward differences of step 1e-7*max(1, |x_j|)."""
    dim = len(x)
    jac = np.empty((dim, dim))
    for j in range(dim):
        xj = list(x)
        xj[j] += 1e-7 * max(1.0, abs(x[j]))
        fj = f(t, xj)
        _check_finite(step, t, xj, fj)
        dx = xj[j] - x[j]
        jac[:, j] = [(a - b) / dx for a, b in zip(fj, fx)]
    try:
        return np.linalg.inv(np.eye(dim) - scale * jac)
    except np.linalg.LinAlgError:
        msg = f"singular iteration matrix I - h^nu J at step {step} (t = {t!r})"
        raise SolverDivergenceError(step, math.nan, msg) from None


def _implicit_step(
    f: FloatRhs, step: int, t: float, known: list, scale: float,
    x: list, inv: np.ndarray | None, tol: float,
) -> tuple[list, list, np.ndarray | None, StepRecord]:
    """Solve x = known + scale * f(t, x) to residual <= tol by chord Newton.

    Steps x <- x - inv @ g(x) from `x`, with inv = (I - scale*J)^-1 from an
    earlier step (None builds one).  An iterate that cuts the residual by less
    than _CONTRACTION is kept only if it lowers it; then a matrix built
    elsewhere is rebuilt at the better point, and one built here halves its
    step.  Returns the root, f there, the matrix and the step record, which
    counts each iterate tried (one rhs evaluation) as an iteration.  States
    are float lists and `f` maps them to float lists (see `_float_rhs`);
    only inv @ g and the matrix build run in numpy.
    """
    fx = f(t, x)
    g = [xi - ki - scale * fi for xi, ki, fi in zip(x, known, fx)]
    gn = _inf_norm(g)
    if not math.isfinite(gn):
        _check_finite(step, t, x, fx)
    fresh, p, iters = False, None, 0
    while gn > tol:
        if iters == _NEWTON_CAP:
            raise SolverDivergenceError(step, gn)
        iters += 1
        if inv is None:
            inv, fresh = _iteration_matrix(f, step, t, x, fx, scale), True
        if p is None:
            p = (inv @ np.array(g)).tolist()
        x_new = [xi - pi for xi, pi in zip(x, p)]
        f_new = f(t, x_new)
        g_new = [xi - ki - scale * fi for xi, ki, fi in zip(x_new, known, f_new)]
        gn_new = _inf_norm(g_new)
        if gn_new <= tol or gn_new <= _CONTRACTION * gn or (fresh and gn_new < gn):
            x, fx, g, gn, fresh, p = x_new, f_new, g_new, gn_new, False, None
            continue
        _check_finite(step, t, x_new, f_new)
        if fresh:
            p = [0.5 * pi for pi in p]
            continue
        if gn_new < gn:
            x, fx, g, gn = x_new, f_new, g_new, gn_new
        inv = p = None
    return x, fx, inv, StepRecord(step, iters, gn, "newton")


def solve(sys: SystemDef, n_steps: int, tol: float = DEFAULT_STEP_TOL) -> Trajectory:
    """March the convolution-quadrature recursion n_steps points forward."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got tol = {tol!r}")
    weights = binomial_weights(sys.nu, max(n_steps, 1))
    # Reversed once, so the direct sum over a step's block [b, n-1) is a dot
    # product: rev[n_steps-n+1+b : n_steps] = weights[n-1-b], ..., weights[1].
    rev = weights[::-1].copy()
    block, _ = _tiling(n_steps)
    scale = float(sys.h**sys.nu)
    states = np.zeros((n_steps + 1, sys.dim))  # unsolved rows collect the squares
    states[0] = sys.x0
    history = np.empty((n_steps, sys.dim))
    records: list[StepRecord] = []
    coef = sys.kind.x0_weights(weights)
    f = _float_rhs(sys)
    x0 = prev = x = sys.x0.tolist()
    inv = None
    try:
        for n in range(1, n_steps + 1):
            c = float(coef[n])
            b = (n - 1) // block * block
            memory = rev[n_steps - n + 1 + b : n_steps] @ history[b : n - 1]
            if b:
                memory += states[n]
            known = [c * u + scale * m for u, m in zip(x0, memory.tolist())]
            # Linear extrapolation of the last two states starts the iteration.
            start = [2.0 * u - v for u, v in zip(x, prev)] if n >= 2 else x0
            prev = x
            x, fx, inv, record = _implicit_step(
                f, n, sys.shifted_time(n - 1), known, scale, start, inv, tol
            )
            states[n] = x
            history[n - 1] = fx
            records.append(record)
            if n % block == 0 and n < n_steps:
                # Sample n-1 ends the square of samples [n-w, n), with w block
                # times the lowest set bit of n // block.
                width = block * (n // block & -(n // block))
                spectrum = _square_spectrum(weights, width)
                tails = _square(spectrum, history[n - width : n].T, width)
                states[n + 1 : n + 1 + width] += tails.T[: n_steps - n]
    except ArithmeticError as err:  # overflow or division by zero in the rhs
        t = sys.shifted_time(n - 1)
        msg = f"rhs raised {type(err).__name__}: {err} at step {n} (t = {t!r})"
        raise SolverDivergenceError(n, math.nan, msg) from err
    grid = HGrid(sys.a, sys.h, n_steps + 1)
    return Trajectory(sys, GridFunction(grid, states), tuple(records))


def residual_check(traj: Trajectory) -> float:
    """Substitute the trajectory back into its defining operator.

    The fractional difference of the states is evaluated by the operator
    module's single-sum forms (``caputo_difference_direct`` and
    ``rl_difference_direct``, gamma-ratio kernels: a code path independent
    of the solver's weight recurrence) and compared with f(t, x(t + nu*h))
    at every admissible point; the worst infinity-norm defect is returned.
    """
    sys = traj.system
    if traj.n_steps < 1:
        return 0.0
    g = sys.kind.direct(traj.states, sys.nu)
    times = sys.shifted_time(np.arange(g.n_points))
    rhs = sys.eval_rhs_batch(times, traj.states.values[1:])
    return float(np.max(np.abs(g.values - rhs)))


def reconstruct_from_difference(
    g: ShiftedGridFunction, x0, kind: OperatorKind, nu: float
) -> GridFunction:
    """Rebuild x from its own fractional difference.

    Given g = (D^nu x) sampled on the displaced scale and the initial state,
    the convolution inversion produces x on the original scale; composing
    with the matching difference operator is the identity.  The memory term
    is the order-nu sum of g.
    """
    _require_frac_order(nu)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (g.dim,):
        raise ValueError(f"x0 must have length {g.dim}, got {x0.shape}")
    m = g.n_points
    grid = g.base_grid
    memory = fractional_sum(GridFunction(HGrid(grid.a, grid.h, m), g.values), nu)
    # In place, as a temporary costs as much as the sums; w[0] = 1 makes row 0 x0.
    states = np.empty((m + 1, g.dim))
    np.multiply(kind.x0_weights(binomial_weights(nu, m))[:, None], x0, out=states)
    states[1:] += memory.values
    return GridFunction(HGrid(grid.a, grid.h, m + 1), states)


def write_step_csv(traj: Trajectory, path) -> None:
    """Sidecar `step,iters,residual` metadata for a solved trajectory."""
    rows = ((rec.index, rec.iterations, rec.residual) for rec in traj.steps)
    _write_csv(path, ["step", "iters", "residual"], rows, "%d,%d,%.17g\n")
