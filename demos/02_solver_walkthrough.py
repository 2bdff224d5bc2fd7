"""Solving fractional initial value problems by convolution quadrature.

Walks through the implicit stepper on the built-in demo systems: the
recursion, the per-step convergence metadata, and the independent residual
check that substitutes the trajectory back into the defining operator.
"""

import numpy as np

from hfrac import (
    OperatorKind,
    SystemDef,
    binomial_weights,
    decay_report,
    get_builtin,
    residual_check,
    solve,
    write_grid_csv,
    write_step_csv,
)

# ---------------------------------------------------------------------------
# The first demo system: two decoupled linear components, Caputo kind.
# Its first step can be solved by hand: x_1 = x_0 - x_1, so x_1 = x_0 / 2.
builtin = get_builtin("ex5.1")
traj = solve(builtin.system, 40)
print(builtin.key, "-", builtin.description)
print("x(0) =", traj.state(0))
print("x(1) =", traj.state(1), " (half the initial state)")

# Each implicit step records how its chord-Newton solve went: the iterates
# tried (one rhs evaluation each) and the final residual.  Step 1 builds the
# iteration matrix (I - h^nu J)^-1 that later steps reuse, so on this linear
# system every step converges in a single iterate.
rec = traj.steps[0]
print(f"step 1 solved by {rec.method} in {rec.iterations} iterations, "
      f"residual {rec.residual:.1e}")

# The residual check applies the binomial-sum form of the Caputo difference
# to the states, a code path independent of the solver (gamma-ratio kernels
# rather than the weight recurrence), and compares against f(t, x(t + nu*h)).
print("operator residual over the whole trajectory:", residual_check(traj))

# ---------------------------------------------------------------------------
# A Riemann-Liouville system with zero right-hand side follows the binomial
# weight sequence exactly: x_n = w_n * x_0.
sys0 = SystemDef(
    dim=1, kind=OperatorKind.RIEMANN_LIOUVILLE, nu=0.5, a=0.0, h=1.0,
    x0=np.array([1.0]), rhs=lambda t, x: np.zeros(1),
)
unforced = solve(sys0, 8)
print("\nunforced RL states:", unforced.states.values[:, 0])
print("binomial weights:  ", binomial_weights(0.5, 8))

# ---------------------------------------------------------------------------
# All four demo systems decay; the decay report summarizes the norm history
# and the Lyapunov values V = 0.5 x^T x along the way.
print()
for key in ("ex5.1", "ex5.2", "ex5.3", "ex5.4"):
    t = solve(get_builtin(key).system, 40)
    print(key, decay_report(t).summary())

write_grid_csv(traj.states, "solver_walkthrough.csv")
write_step_csv(traj, "solver_walkthrough.steps.csv")
print("\nwrote solver_walkthrough.csv and solver_walkthrough.steps.csv")
