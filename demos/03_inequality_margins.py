"""The operator inequalities behind polynomial Lyapunov candidates.

For a scalar function y and power p the inequality

    (D^nu y^p)(t)  <=  p * y^(p-1)(t + nu*h) * (D^nu y)(t)

holds for every integer p >= 2, for both operator kinds: even p for any y,
odd p for nonnegative y.  One rule, and it is exact.  Write output k of
either difference as sum_j a_kj y_j with centre c = k+1.  Every off-centre
a_kj is <= 0 and the row sum is 0 (Caputo) or positive (RL), so with B the
Bregman divergence of the convex y^p the margin is

    sum_{j != c} (-a_kj) B(y_j, y_c)  +  (sum_j a_kj) (p-1) y_c^p  >=  0.

The margin checkers evaluate both sides numerically; a nonnegative margin
confirms the inequality at that point.
"""

import numpy as np

from hfrac import (
    GridFunction,
    HGrid,
    OperatorKind,
    power_inequality_margins,
    power_margin_suite,
    quadratic_form_margins,
    random_spd_matrix,
)

rng = np.random.default_rng(42)
grid = HGrid(0.0, 1.0, 24)

# A single randomized check, margin at every admissible grid point:
y = GridFunction(grid, rng.uniform(-1.0, 1.0, 24))
margins = power_inequality_margins(y, nu=0.5, power=2, kind=OperatorKind.CAPUTO)
print("square margins (first 6):", np.round(margins[:6], 6))
print("worst:", margins.min())

# Odd powers need a nonnegative function; the hypothesis is enforced.
y_pos = GridFunction(grid, rng.uniform(0.0, 1.0, 24))
margins = power_inequality_margins(y_pos, nu=0.5, power=5, kind=OperatorKind.RIEMANN_LIOUVILLE)
print("\nodd-power-5 RL margins, worst:", margins.min())

# The matrix-weighted quadratic form version, with a random SPD weight:
p = random_spd_matrix(3, rng)
yv = GridFunction(grid, rng.uniform(-1.0, 1.0, (24, 3)))
margins = quadratic_form_margins(yv, p, nu=0.7, kind=OperatorKind.CAPUTO)
print("\nquadratic-form margins with a random SPD weight, worst:", margins.min())

# The randomized suites sweep trials x orders and report the worst margin
# seen anywhere; the CLI `hfrac props` command runs all of them.
print("\nsuite sweeps (100 trials x 10 orders each):")
for kind in (OperatorKind.CAPUTO, OperatorKind.RIEMANN_LIOUVILLE):
    for power in (2, 3, 6, 8):
        worst = power_margin_suite(kind, power, trials=100,
                                   rng=np.random.default_rng(1))
        print(f"  {kind.value:>6} power {power}: worst margin {worst:+.3e}")
