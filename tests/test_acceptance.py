"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]/[FAIL] criterion N` line (visible with
`pytest -s` or in captured output on failure).
"""

import numpy as np
import pytest

from hfrac import (
    GridFunction,
    HGrid,
    LatticeSampler,
    OperatorKind,
    ShiftedGridFunction,
    binomial_weights,
    caputo_difference,
    caputo_difference_direct,
    certify_theorem,
    decay_report,
    get_builtin,
    h_factorial,
    power_margin_suite,
    quadratic_margin_suite,
    reciprocal_gamma,
    reconstruct_from_difference,
    residual_check,
    rl_difference,
    rl_difference_direct,
    solve,
    summation_by_parts_residual,
)
from hfrac.special import _h_factorial_array

NU_GRID_9 = tuple(np.round(np.arange(0.1, 1.0, 0.1), 10))
NU_GRID_10 = NU_GRID_9 + (1.0,)
EXAMPLES = ("ex5.1", "ex5.2", "ex5.3", "ex5.4")


def report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_functions(seed: int, count: int = 200, dim: int = 1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(16, 33))
        h = float(rng.choice([0.25, 0.5, 1.0]))
        a = float(rng.uniform(-1.0, 1.0))
        out.append(GridFunction(HGrid(a, h, n), rng.uniform(-1, 1, (n, dim))))
    return out


def test_criterion_1_definitional_equivalence():
    # relative 1e-9 with a 1e-12 absolute floor: err / max(1e-3, scale) <= 1e-9
    worst = 0.0
    functions = random_functions(101)
    for f in functions:
        for nu in NU_GRID_9:
            pairs = (
                (rl_difference(f, nu).values, rl_difference_direct(f, nu).values),
                (caputo_difference(f, nu).values, caputo_difference_direct(f, nu).values),
            )
            for ref, alt in pairs:
                scale = np.maximum(np.abs(ref), np.abs(alt))
                err = np.abs(ref - alt) / np.maximum(1e-3, scale)
                worst = max(worst, float(np.max(err)))
    report(1, "two-form equivalence of both fractional differences",
           worst <= 1e-9, f"worst relative gap {worst:.2e}")


def test_criterion_2_bridge_and_summation_identities():
    # bridge between the Caputo and RL differences
    worst_bridge = 0.0
    rgamma = {nu: reciprocal_gamma(1 - nu) for nu in NU_GRID_9}
    for f in random_functions(202):
        h, a = f.grid.h, f.grid.a
        for nu in NU_GRID_9:
            c = caputo_difference(f, nu)
            r = rl_difference(f, nu)
            # h_factorial(t - a, -nu, h) at every point at once; the
            # arguments t/h + 1 > 1 avoid its pole and zero conventions.
            fact = _h_factorial_array((c.points - a) / h + 1.0, -nu, h)
            term = f.values[0, 0] * fact * rgamma[nu]
            expected = r.values[:, 0] - term
            scale = np.maximum(np.abs(c.values[:, 0]), np.abs(expected))
            err = np.abs(c.values[:, 0] - expected) / np.maximum(1e-3, scale)
            worst_bridge = max(worst_bridge, float(np.max(err)))

    # stepwise difference identity of the falling factorial
    rng = np.random.default_rng(203)
    worst_fact = 0.0
    checked = 0
    while checked < 500:
        u = rng.integers(0, 8)
        delta = rng.uniform(0.1, 0.9)
        s = rng.integers(-2, 3)
        h = float(rng.choice([0.25, 0.5, 1.0]))
        nu = rng.uniform(-1.0, 1.0)
        tau = (u + delta - s) * h
        args = (tau / h, tau / h - 1.0, tau / h + 1.0 - nu, tau / h - nu)
        if any(abs(v - round(v)) < 1e-6 and round(v) <= 0 for v in args):
            continue
        lhs = (h_factorial(tau - h, nu, h) - h_factorial(tau, nu, h)) / h
        rhs = -nu * h_factorial(tau - h, nu - 1.0, h)
        worst_fact = max(
            worst_fact, abs(lhs - rhs) / max(1e-3, abs(lhs), abs(rhs))
        )
        checked += 1

    # summation by parts
    rng = np.random.default_rng(204)
    worst_sbp = 0.0
    for _ in range(200):
        n = int(rng.integers(16, 33))
        grid = HGrid(0.0, float(rng.choice([0.5, 1.0])), n)
        x = GridFunction(grid, rng.uniform(-1, 1, n))
        y = GridFunction(grid, rng.uniform(-1, 1, n))
        worst_sbp = max(worst_sbp, summation_by_parts_residual(x, y))

    ok = worst_bridge <= 1e-9 and worst_fact <= 1e-9 and worst_sbp <= 1e-9
    report(2, "bridge, factorial-difference and summation-by-parts identities",
           ok, f"bridge {worst_bridge:.2e}, factorial {worst_fact:.2e}, sbp {worst_sbp:.2e}")


def test_criterion_3_solver_consistency_and_round_trip():
    worst_res = 0.0
    for key in EXAMPLES:
        traj = solve(get_builtin(key).system, 64)
        worst_res = max(worst_res, residual_check(traj))

    rng = np.random.default_rng(303)
    worst_rt = 0.0
    for kind, op in (
        (OperatorKind.CAPUTO, caputo_difference),
        (OperatorKind.RIEMANN_LIOUVILLE, rl_difference),
    ):
        for _ in range(100):
            grid = HGrid(0.0, float(rng.choice([0.5, 1.0])), 16)
            x = GridFunction(grid, rng.uniform(-1, 1, 16))
            nu = float(rng.uniform(0.05, 1.0))
            rebuilt = reconstruct_from_difference(op(x, nu), x.values[0], kind, nu)
            worst_rt = max(worst_rt, float(np.max(np.abs(rebuilt.values - x.values))))

    ok = worst_res <= 1e-8 and worst_rt <= 1e-9
    report(3, "solver residuals (64 steps) and reconstruction round trip",
           ok, f"residual {worst_res:.2e}, round trip {worst_rt:.2e}")


def test_criterion_4_derived_step_values():
    traj1 = solve(get_builtin("ex5.1").system, 2)
    err_linear = float(np.max(np.abs(traj1.state(1) - [0.05, 0.10])))

    # independent oracle: bisection root of u^3 + u - 0.4
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid**3 + mid - 0.4 > 0:
            hi = mid
        else:
            lo = mid
    traj3 = solve(get_builtin("ex5.3").system, 2)
    err_cubic = abs(traj3.state(1)[0] - 0.5 * (lo + hi))

    import hfrac

    err_weights = 0.0
    for nu in (0.3, 0.5, 0.8):
        sys = hfrac.SystemDef(
            dim=1, kind=OperatorKind.RIEMANN_LIOUVILLE, nu=nu, a=0.0, h=1.0,
            x0=np.array([1.0]), rhs=lambda t, x: np.zeros(1),
        )
        traj = solve(sys, 24)
        expected = binomial_weights(nu, 24)
        err_weights = max(err_weights, float(np.max(np.abs(traj.states.values[:, 0] - expected))))

    ok = err_linear <= 1e-12 and err_cubic <= 1e-9 and err_weights <= 1e-12
    report(4, "first-step values against independent oracles",
           ok, f"linear {err_linear:.2e}, cubic {err_cubic:.2e}, unforced weights {err_weights:.2e}")


def test_criterion_5_inequality_suites():
    details = []
    ok = True
    for kind, name in (
        (OperatorKind.CAPUTO, "caputo"),
        (OperatorKind.RIEMANN_LIOUVILLE, "rl"),
    ):
        rng = np.random.default_rng(5050)
        worst = power_margin_suite(kind, 2, nu_values=NU_GRID_10, trials=200, rng=rng)
        ok = ok and worst >= -1e-10
        details.append(f"{name}-square {worst:.1e}")
        for power in (3, 5, 7):
            worst = power_margin_suite(kind, power, nu_values=NU_GRID_10, trials=200, rng=rng)
            ok = ok and worst >= -1e-10
            details.append(f"{name}-odd{power} {worst:.1e}")
        for power in (2, 4, 8):
            worst = power_margin_suite(kind, power, nu_values=NU_GRID_10, trials=200, rng=rng)
            ok = ok and worst >= -1e-10
            details.append(f"{name}-dyadic{power} {worst:.1e}")
        worst = quadratic_margin_suite(
            kind, dims=(2, 3, 4), nu_values=NU_GRID_10, trials=200, rng=rng
        )
        ok = ok and worst >= -1e-10
        details.append(f"{name}-quadform {worst:.1e}")
    report(5, "randomized operator inequality suites", ok, "; ".join(details))


def test_criterion_6_comparison_ordering():
    rng = np.random.default_rng(606)
    worst_c = 0.0
    worst_r = 0.0
    for _ in range(100):
        nu = float(rng.uniform(0.05, 1.0))
        m = rng.uniform(0.0, 1.0, size=12)
        g = ShiftedGridFunction(HGrid(0.0, 1.0, 13), 1 - nu, m)
        zero = ShiftedGridFunction(HGrid(0.0, 1.0, 13), 1 - nu, np.zeros(12))

        x0 = float(rng.uniform(-1, 1))
        y0 = float(rng.uniform(-1, 1))
        x = reconstruct_from_difference(g, [x0], OperatorKind.CAPUTO, nu)
        y = reconstruct_from_difference(zero, [y0], OperatorKind.CAPUTO, nu)
        worst_c = min(worst_c, float(np.min((x.values - y.values) - (x0 - y0))))

        y0 = float(rng.uniform(-1, 1))
        x0 = y0 - float(rng.uniform(0.0, 1.0))
        x = reconstruct_from_difference(g, [x0], OperatorKind.RIEMANN_LIOUVILLE, nu)
        y = reconstruct_from_difference(zero, [y0], OperatorKind.RIEMANN_LIOUVILLE, nu)
        worst_r = min(worst_r, float(np.min((x.values - y.values) - (x0 - y0))))

    ok = worst_c >= -1e-12 and worst_r >= -1e-12
    report(6, "comparison ordering under nonnegative forcing",
           ok, f"caputo {worst_c:.2e}, rl {worst_r:.2e}")


def test_criterion_7_example_certificates():
    verdicts = {}
    for key in EXAMPLES:
        builtin = get_builtin(key)
        cert = certify_theorem(builtin.system, builtin.condition, LatticeSampler())
        verdicts[key] = cert.verdict
    ok = all(v == "stable-certified" for v in verdicts.values())
    report(7, "built-in systems certified stable over the default lattice",
           ok, ", ".join(f"{k}={v}" for k, v in verdicts.items()))


def test_criterion_8_trajectory_decay():
    details = []
    ok = True
    for key in EXAMPLES:
        traj = solve(get_builtin(key).system, 40)
        rep = decay_report(traj)
        v0 = rep.v_values[0]
        v_ok = bool(np.all(rep.v_values <= v0 + 1e-10))
        n_ok = rep.final_norm < rep.initial_norm
        ok = ok and v_ok and n_ok
        details.append(f"{key}: V-monotone={v_ok}, decayed={n_ok}")
    report(8, "40-step trajectories keep V below V(0) and shrink in norm",
           ok, "; ".join(details))
