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

The newest term has weight w[0] = 1, so every step is an implicit equation
solved by fixed-point iteration with a damped-Newton fallback.
"""

from __future__ import annotations

import csv
import math
import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import (
    GridFunction,
    HGrid,
    ShiftedGridFunction,
    caputo_difference_direct,
    fractional_sum,
    rl_difference_direct,
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
    "caputo_solve",
    "rl_solve",
    "residual_check",
    "reconstruct_from_difference",
    "write_step_csv",
]

DEFAULT_STEP_TOL = 1e-12
_FIXED_POINT_CAP = 100
_NEWTON_CAP = 50
_JACOBIAN_STEP = 1e-7


class OperatorKind(enum.Enum):
    CAPUTO = "caputo"
    RIEMANN_LIOUVILLE = "rl"


class SolverDivergenceError(RuntimeError):
    """The implicit step solve failed to converge."""

    def __init__(self, step: int, residual: float):
        super().__init__(
            f"inner solve diverged at step {step} (residual {residual:.3e})"
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
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"order must lie in (0, 1], got nu = {self.nu!r}")
        if self.h <= 0.0:
            raise ValueError(f"step must be positive, got h = {self.h!r}")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 must have length {self.dim}, got {x0.shape}")
        object.__setattr__(self, "x0", x0)
        zero = np.zeros(self.dim)
        for t in (self.shifted_time(0), self.shifted_time(7)):
            fz = self.eval_rhs(t, zero)
            if np.max(np.abs(fz)) > 1e-12:
                raise EquilibriumError(
                    f"rhs(t, 0) = {fz} at t = {t}; the origin must be an equilibrium"
                )

    def shifted_time(self, s: int) -> float:
        """The s-th point of the displaced scale, a + (1-nu)h + s*h."""
        return self.a + (1.0 - self.nu) * self.h + s * self.h

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


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _fd_jacobian(sys: SystemDef, t: float, x: np.ndarray) -> np.ndarray:
    fx = sys.eval_rhs(t, x)
    jac = np.empty((sys.dim, sys.dim))
    for j in range(sys.dim):
        xj = x.copy()
        xj[j] += _JACOBIAN_STEP
        jac[:, j] = (sys.eval_rhs(t, xj) - fx) / _JACOBIAN_STEP
    return jac


def _implicit_step(
    sys: SystemDef,
    step_index: int,
    t: float,
    known: np.ndarray,
    scale: float,
    x_start: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, StepRecord]:
    """Solve x = known + scale * rhs(t, x) to residual <= tol."""

    def residual(x: np.ndarray) -> np.ndarray:
        return x - known - scale * sys.eval_rhs(t, x)

    x = x_start.copy()
    iters = 0
    prev_delta = math.inf
    stalled = 0
    for iters in range(1, _FIXED_POINT_CAP + 1):
        x_next = known + scale * sys.eval_rhs(t, x)
        delta = _inf_norm(x_next - x)
        x = x_next
        if delta <= tol:
            break
        # Bail out early when the iteration is not contracting; the Newton
        # fallback handles those steps far more cheaply than the full cap.
        stalled = stalled + 1 if delta >= 0.7 * prev_delta else 0
        if stalled >= 3:
            break
        prev_delta = delta
    res = _inf_norm(residual(x))
    if res <= tol:
        return x, StepRecord(step_index, iters, res, "fixed-point")

    # Damped Newton fallback with a finite-difference Jacobian; damping is
    # halved until the residual decreases.
    for it in range(1, _NEWTON_CAP + 1):
        g = residual(x)
        gn = _inf_norm(g)
        if gn <= tol:
            return x, StepRecord(step_index, iters + it - 1, gn, "newton")
        jac = np.eye(sys.dim) - scale * _fd_jacobian(sys, t, x)
        try:
            p = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            raise SolverDivergenceError(step_index, gn) from None
        lam = 1.0
        while lam >= 1e-8:
            x_try = x + lam * p
            if _inf_norm(residual(x_try)) < gn:
                break
            lam *= 0.5
        else:
            raise SolverDivergenceError(step_index, gn)
        x = x_try
    raise SolverDivergenceError(step_index, _inf_norm(residual(x)))


def solve(sys: SystemDef, n_steps: int, tol: float = DEFAULT_STEP_TOL) -> Trajectory:
    """March the convolution-quadrature recursion n_steps points forward."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    weights = binomial_weights(sys.nu, max(n_steps, 1))
    # Reversed once, so each step's history sum is a contiguous dot product:
    # rev[n_steps-n+1 : n_steps] = weights[n-1], ..., weights[1].
    rev = weights[::-1].copy()
    scale = sys.h**sys.nu
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = sys.x0
    history = np.empty((n_steps, sys.dim))
    records: list[StepRecord] = []
    caputo = sys.kind is OperatorKind.CAPUTO
    for n in range(1, n_steps + 1):
        base = states[0] if caputo else weights[n] * states[0]
        if n >= 2:
            memory = scale * (rev[n_steps - n + 1 : n_steps] @ history[: n - 1])
        else:
            memory = np.zeros(sys.dim)
        t = sys.shifted_time(n - 1)
        x, record = _implicit_step(
            sys, n, t, base + memory, scale, states[n - 1], tol
        )
        states[n] = x
        history[n - 1] = sys.eval_rhs(t, x)
        records.append(record)
    grid = HGrid(sys.a, sys.h, n_steps + 1)
    return Trajectory(sys, GridFunction(grid, states), tuple(records))


def caputo_solve(sys: SystemDef, n_steps: int, tol: float = DEFAULT_STEP_TOL) -> Trajectory:
    if sys.kind is not OperatorKind.CAPUTO:
        raise ValueError("caputo_solve requires a Caputo system")
    return solve(sys, n_steps, tol)


def rl_solve(sys: SystemDef, n_steps: int, tol: float = DEFAULT_STEP_TOL) -> Trajectory:
    if sys.kind is not OperatorKind.RIEMANN_LIOUVILLE:
        raise ValueError("rl_solve requires a Riemann-Liouville system")
    return solve(sys, n_steps, tol)


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
    op = caputo_difference_direct if sys.kind is OperatorKind.CAPUTO else rl_difference_direct
    g = op(traj.states, sys.nu)
    rhs = np.empty_like(g.values)
    for k in range(g.n_points):
        rhs[k] = sys.eval_rhs(sys.shifted_time(k), traj.states.values[k + 1])
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
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got nu = {nu!r}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (g.dim,):
        raise ValueError(f"x0 must have length {g.dim}, got {x0.shape}")
    m = g.n_points
    grid = g.base_grid
    memory = fractional_sum(GridFunction(HGrid(grid.a, grid.h, m), g.values), nu)
    if kind is OperatorKind.CAPUTO:
        base = x0
    else:
        base = binomial_weights(nu, m)[1:, None] * x0
    states = np.vstack([x0, base + memory.values])
    return GridFunction(HGrid(grid.a, grid.h, m + 1), states)


def write_step_csv(traj: Trajectory, path) -> None:
    """Sidecar `step,iters,residual` metadata for a solved trajectory."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "iters", "residual"])
        for rec in traj.steps:
            writer.writerow([rec.index, rec.iterations, f"{rec.residual:.17g}"])
