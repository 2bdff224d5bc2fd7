"""The implicit step on numpy arrays: an oracle for the solver's float step.

`hfrac.solver` runs each step on lists of Python floats and leaves to numpy
only the history sum, the chord product inv @ g and the Jacobian.  This is
the same chord-Newton march written on arrays, every state and residual an
ndarray, so a test can demand that both routes produce the same bits: the
elementwise operations are the same IEEE operations in the same order, and
the two matrix products are the same BLAS calls on operands laid out alike.
"""

import math
from collections import Counter

import numpy as np

from hfrac import GridFunction, HGrid, OperatorKind, SolverDivergenceError, binomial_weights
from hfrac.solver import _CONTRACTION, _NEWTON_CAP, StepRecord, Trajectory


def _inf_norm(v):
    vals = v.tolist()
    return max(map(abs, vals)) if math.isfinite(sum(vals)) else math.inf


def _check_finite(step, t, x, fx):
    if np.all(np.isfinite(x)) and not np.all(np.isfinite(fx)):
        msg = f"rhs returned a non-finite value {fx} at step {step} (t = {t!r})"
        raise SolverDivergenceError(step, math.nan, msg)


def _iteration_matrix(sys, step, t, x, fx, scale):
    jac = np.empty((sys.dim, sys.dim))
    for j in range(sys.dim):
        xj = x.copy()
        xj[j] += 1e-7 * max(1.0, abs(x[j]))
        fj = sys.eval_rhs(t, xj)
        _check_finite(step, t, xj, fj)
        jac[:, j] = (fj - fx) / (xj[j] - x[j])
    try:
        return np.linalg.inv(np.eye(sys.dim) - scale * jac)
    except np.linalg.LinAlgError:
        msg = f"singular iteration matrix I - h^nu J at step {step} (t = {t!r})"
        raise SolverDivergenceError(step, math.nan, msg) from None


def _implicit_step(sys, step, t, known, scale, x, inv, tol, counts):
    fx = sys.eval_rhs(t, x)
    g = x - known - scale * fx
    gn = _inf_norm(g)
    if not math.isfinite(gn):
        _check_finite(step, t, x, fx)
    fresh, p, iters = False, None, 0
    while gn > tol:
        if iters == _NEWTON_CAP:
            raise SolverDivergenceError(step, gn)
        iters += 1
        if inv is None:
            counts["builds"] += 1
            inv, fresh = _iteration_matrix(sys, step, t, x, fx, scale), True
        if p is None:
            p = inv @ g
        x_new = x - p
        f_new = sys.eval_rhs(t, x_new)
        g_new = x_new - known - scale * f_new
        gn_new = _inf_norm(g_new)
        if gn_new <= tol or gn_new <= _CONTRACTION * gn or (fresh and gn_new < gn):
            x, fx, g, gn, fresh, p = x_new, f_new, g_new, gn_new, False, None
            continue
        _check_finite(step, t, x_new, f_new)
        if fresh:
            counts["halvings"] += 1
            p = 0.5 * p
            continue
        if gn_new < gn:
            x, fx, g, gn = x_new, f_new, g_new, gn_new
        inv = p = None
    return x, fx, inv, StepRecord(step, iters, gn, "newton")


def solve(sys, n_steps, tol=1e-12, counts=None):
    """`hfrac.solve` with every state an array (no argument checks).

    Adds to `counts` (a Counter) the iteration matrices built ("builds") and
    the steps halved ("halvings"), so that a test can show that its systems
    reach both branches.
    """
    counts = Counter() if counts is None else counts
    weights = binomial_weights(sys.nu, max(n_steps, 1))
    rev = weights[::-1].copy()
    scale = sys.h**sys.nu
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = sys.x0
    history = np.empty((n_steps, sys.dim))
    records = []
    caputo = sys.kind is OperatorKind.CAPUTO
    inv = None
    try:
        for n in range(1, n_steps + 1):
            base = states[0] if caputo else weights[n] * states[0]
            memory = scale * (rev[n_steps - n + 1 : n_steps] @ history[: n - 1])
            start = 2.0 * states[n - 1] - states[n - 2] if n >= 2 else states[0]
            states[n], history[n - 1], inv, record = _implicit_step(
                sys, n, sys.shifted_time(n - 1), base + memory, scale, start, inv, tol,
                counts,
            )
            records.append(record)
    except ArithmeticError as err:
        t = sys.shifted_time(n - 1)
        msg = f"rhs raised {type(err).__name__}: {err} at step {n} (t = {t!r})"
        raise SolverDivergenceError(n, math.nan, msg) from err
    grid = HGrid(sys.a, sys.h, n_steps + 1)
    return Trajectory(sys, GridFunction(grid, states), tuple(records))
