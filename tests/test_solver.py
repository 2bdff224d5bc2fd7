"""Tests for the convolution-quadrature solver and its inversion helpers."""

import numpy as np
import pytest

from hfrac import (
    EquilibriumError,
    GridFunction,
    HGrid,
    OperatorKind,
    ShiftedGridFunction,
    SolverDivergenceError,
    SystemDef,
    binomial_weights,
    caputo_difference,
    get_builtin,
    reconstruct_from_difference,
    residual_check,
    rl_difference,
    solve,
    write_step_csv,
)


def bisect_root(fn, lo, hi, tol=1e-12):
    """Plain bisection; independent of the solver's inner iterations."""
    flo = fn(lo)
    assert flo * fn(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def scalar_system(kind, nu, fn, x0=1.0, h=1.0, a=0.0):
    return SystemDef(
        dim=1, kind=kind, nu=nu, a=a, h=h, x0=np.array([x0]),
        rhs=lambda t, x: np.array([fn(t, x[0])]),
    )


def tampered(traj, index):
    """The trajectory with 0.1 added to the first component of state `index`."""
    values = traj.states.values.copy()
    values[index, 0] += 0.1
    return type(traj)(
        system=traj.system,
        states=GridFunction(traj.states.grid, values),
        steps=traj.steps,
    )


class TestFirstSteps:
    def test_linear_first_step(self):
        # componentwise x1 = x0 - x1, solved by hand
        traj = solve(get_builtin("ex5.1").system, 3)
        assert abs(traj.state(1)[0] - 0.05) <= 1e-12
        assert abs(traj.state(1)[1] - 0.10) <= 1e-12

    def test_cubic_first_step_vs_bisection(self):
        traj = solve(get_builtin("ex5.3").system, 2)
        root = bisect_root(lambda u: u**3 + u - 0.4, 0.0, 1.0, tol=1e-14)
        assert abs(traj.state(1)[0] - root) <= 1e-10

    def test_coupled_first_step_vs_damped_fixed_point(self):
        traj = solve(get_builtin("ex5.2").system, 2)
        u, v = 0.05, 0.10
        for _ in range(400):
            u = 0.5 * u + 0.5 * (0.05 - 0.5 * v**16 * u)
            v = 0.5 * v + 0.5 * (0.10 - 0.5 * u**2 * v)
        assert np.max(np.abs(traj.state(1) - [u, v])) <= 1e-12

    def test_initial_state_never_recomputed(self):
        sys = get_builtin("ex5.4").system
        traj = solve(sys, 5)
        np.testing.assert_array_equal(traj.state(0), sys.x0)


class TestDegenerateOrders:
    def test_order_one_is_implicit_euler(self):
        # x_{n+1} = x_n + h f(x_{n+1}); for f = -x that is x_n / (1 + h)
        sys = scalar_system(OperatorKind.CAPUTO, 1.0, lambda t, x: -x, x0=1.0, h=0.5)
        traj = solve(sys, 10)
        expected = (1.0 / 1.5) ** np.arange(11)
        np.testing.assert_allclose(traj.states.values[:, 0], expected, atol=1e-12)

    def test_rl_order_one_zero_rhs_constant(self):
        sys = scalar_system(
            OperatorKind.RIEMANN_LIOUVILLE, 1.0, lambda t, x: 0.0, x0=2.0
        )
        traj = solve(sys, 8)
        np.testing.assert_array_equal(traj.states.values[:, 0], np.full(9, 2.0))

    def test_rl_zero_rhs_follows_weights(self):
        for nu in (0.3, 0.5, 0.8):
            sys = scalar_system(
                OperatorKind.RIEMANN_LIOUVILLE, nu, lambda t, x: 0.0, x0=1.5
            )
            traj = solve(sys, 12)
            expected = 1.5 * binomial_weights(nu, 12)
            assert np.max(np.abs(traj.states.values[:, 0] - expected)) <= 1e-12


class TestResidualCheck:
    @pytest.mark.parametrize("key", ["ex5.1", "ex5.2", "ex5.3", "ex5.4"])
    def test_examples_within_tolerance(self, key):
        traj = solve(get_builtin(key).system, 64)
        assert residual_check(traj) <= 1e-8

    def test_zero_trajectory(self):
        sys = scalar_system(OperatorKind.CAPUTO, 0.5, lambda t, x: -x, x0=0.0)
        traj = solve(sys, 16)
        assert residual_check(traj) <= 1e-14

    def test_perturbation_detected(self):
        assert residual_check(tampered(solve(get_builtin("ex5.1").system, 16), 8)) > 1e-3

    # 3000 states reach the oracles' blocked direct sum (from _FFT_MIN points on).
    @pytest.mark.parametrize("key", ["ex5.1", "ex5.2"])
    def test_long_examples_within_tolerance(self, key):
        assert residual_check(solve(get_builtin(key).system, 3000)) <= 1e-8

    def test_long_perturbation_detected(self):
        traj = solve(get_builtin("ex5.1").system, 3000)
        assert residual_check(tampered(traj, 2500)) > 1e-3

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("nu", [1.0 - 1e-8, 1.0 - 1e-10])
    def test_order_next_to_one(self, kind, nu):
        # The oracle's 1/Gamma(1 - nu) and 1/Gamma(-nu) once snapped to 0
        # within 1e-9 of a pole, so a correct solve read as off by 0.5.
        sys = SystemDef(1, kind, nu, 0.0, 1.0, [1.0], lambda t, x: -x)
        assert residual_check(solve(sys, 10)) <= 1e-12

    def test_step_records(self):
        traj = solve(get_builtin("ex5.2").system, 12)
        assert len(traj.steps) == 12
        assert all(rec.residual <= 1e-12 for rec in traj.steps)


class TestReconstruction:
    @pytest.mark.parametrize(
        "kind,op",
        [(OperatorKind.CAPUTO, caputo_difference),
         (OperatorKind.RIEMANN_LIOUVILLE, rl_difference)],
        ids=["caputo", "rl"],
    )
    def test_round_trip(self, kind, op):
        rng = np.random.default_rng(17)
        for _ in range(100):
            grid = HGrid(0.0, float(rng.choice([0.5, 1.0])), 16)
            x = GridFunction(grid, rng.uniform(-1.0, 1.0, 16))
            nu = float(rng.uniform(0.05, 1.0))
            g = op(x, nu)
            rebuilt = reconstruct_from_difference(g, x.values[0], kind, nu)
            assert np.max(np.abs(rebuilt.values - x.values)) <= 1e-9

    def test_zero_difference_caputo_constant(self):
        g = ShiftedGridFunction(HGrid(0.0, 1.0, 9), 0.5, np.zeros(8))
        x = reconstruct_from_difference(g, [0.7], OperatorKind.CAPUTO, 0.5)
        np.testing.assert_array_equal(x.values[:, 0], np.full(9, 0.7))

    def test_zero_difference_rl_weights(self):
        g = ShiftedGridFunction(HGrid(0.0, 1.0, 9), 0.5, np.zeros(8))
        x = reconstruct_from_difference(g, [0.7], OperatorKind.RIEMANN_LIOUVILLE, 0.5)
        np.testing.assert_allclose(
            x.values[:, 0], 0.7 * binomial_weights(0.5, 8), atol=1e-14
        )


class TestComparisonOrdering:
    def test_caputo_ordering(self):
        # a trajectory driven by a nonnegative forcing stays above the
        # unforced one by at least the gap of the initial states
        rng = np.random.default_rng(23)
        for _ in range(100):
            nu = float(rng.uniform(0.05, 1.0))
            m = rng.uniform(0.0, 1.0, size=12)
            x0 = float(rng.uniform(-1, 1))
            y0 = float(rng.uniform(-1, 1))
            g = ShiftedGridFunction(HGrid(0.0, 1.0, 13), (1 - nu), m)
            zero = ShiftedGridFunction(HGrid(0.0, 1.0, 13), (1 - nu), np.zeros(12))
            x = reconstruct_from_difference(g, [x0], OperatorKind.CAPUTO, nu)
            y = reconstruct_from_difference(zero, [y0], OperatorKind.CAPUTO, nu)
            gap = (x.values - y.values) - (x0 - y0)
            assert np.min(gap) >= -1e-12

    def test_rl_ordering_needs_initial_order(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            nu = float(rng.uniform(0.05, 1.0))
            m = rng.uniform(0.0, 1.0, size=12)
            y0 = float(rng.uniform(-1, 1))
            x0 = y0 - float(rng.uniform(0.0, 1.0))
            g = ShiftedGridFunction(HGrid(0.0, 1.0, 13), (1 - nu), m)
            zero = ShiftedGridFunction(HGrid(0.0, 1.0, 13), (1 - nu), np.zeros(12))
            x = reconstruct_from_difference(g, [x0], OperatorKind.RIEMANN_LIOUVILLE, nu)
            y = reconstruct_from_difference(zero, [y0], OperatorKind.RIEMANN_LIOUVILLE, nu)
            gap = (x.values - y.values) - (x0 - y0)
            assert np.min(gap) >= -1e-12

    def test_weights_stay_at_most_one(self):
        # the RL ordering argument leans on this bound
        for nu in np.linspace(0.05, 1.0, 20):
            assert np.max(binomial_weights(float(nu), 256)) <= 1.0


class TestValidationAndFailure:
    def test_equilibrium_enforced(self):
        with pytest.raises(EquilibriumError):
            scalar_system(OperatorKind.CAPUTO, 0.5, lambda t, x: x + 1.0)

    def test_non_finite_equilibrium_rejected(self):
        with pytest.raises(EquilibriumError):
            scalar_system(OperatorKind.CAPUTO, 0.5, lambda t, x: x + np.nan)

    def test_divergence_reported_with_step(self):
        # x = 1 + x + x^2 has no real solution, so the first step must fail
        sys = scalar_system(OperatorKind.CAPUTO, 1.0, lambda t, x: x + x * x, x0=1.0)
        with pytest.raises(SolverDivergenceError) as err:
            solve(sys, 4)
        assert err.value.step == 1

    def test_rhs_arithmetic_error_reported_with_step(self):
        # The float division 1 / (t - 2.5) raises at the third step, t = 2.5.
        sys = scalar_system(OperatorKind.RIEMANN_LIOUVILLE, 0.5,
                            lambda t, x: 1.0 / (t - 2.5) * 0.0 - x)
        with pytest.raises(SolverDivergenceError, match=r"ZeroDivisionError: .* \(t = 2.5\)") as err:
            solve(sys, 6)
        assert err.value.step == 3
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            scalar_system(OperatorKind.CAPUTO, 1.5, lambda t, x: -x)
        with pytest.raises(ValueError):
            scalar_system(OperatorKind.CAPUTO, 0.5, lambda t, x: -x, h=-1.0)
        with pytest.raises(ValueError):
            SystemDef(
                dim=2, kind=OperatorKind.CAPUTO, nu=0.5, a=0.0, h=1.0,
                x0=np.array([1.0]), rhs=lambda t, x: -x,
            )

    @pytest.mark.parametrize("field", ["a", "h", "x0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        # a = nan once gave an all-NaN time column and a "solved" trajectory.
        params = {"a": 0.0, "h": 1.0, "x0": 1.0, field: value}
        with pytest.raises(ValueError, match=f"got {field} = "):
            scalar_system(OperatorKind.CAPUTO, 0.5, lambda t, x: -x, **params)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_invalid_tolerance_rejected(self, tol):
        # tol = nan once returned x0 unchanged at every step; tol = -1
        # reported a divergence at step 1.
        sys = scalar_system(OperatorKind.CAPUTO, 0.5, lambda t, x: -x)
        with pytest.raises(ValueError, match="tol"):
            solve(sys, 4, tol)


class TestImplicitStep:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("c", [1e3, 1e6])
    def test_stiff_scalar_linear(self, kind, c):
        # Fixed-point iteration diverged here before Newton began, and the
        # absolute finite-difference step then gave a zero Jacobian.
        sys = SystemDef(1, kind, 0.5, 0.0, 1.0, [1.0], lambda t, x: -c * x)
        assert residual_check(solve(sys, 50)) <= 1e-8

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_stiff_non_normal_pair(self, kind):
        a = np.array([[-1e3, 1e5], [0.0, -10.0]])
        sys = SystemDef(2, kind, 0.5, 0.0, 1.0, [1.0, 1.0], lambda t, x: a @ x)
        traj = solve(sys, 200)
        assert residual_check(traj) <= 1e-8
        # The recursion is linear, so each step is one linear solve.
        w = binomial_weights(0.5, 200)
        expected = np.empty((201, 2))
        expected[0] = sys.x0
        for n in range(1, 201):
            base = sys.x0 if kind is OperatorKind.CAPUTO else w[n] * sys.x0
            known = base + sum(w[n - 1 - s] * (a @ expected[s + 1]) for s in range(n - 1))
            expected[n] = np.linalg.solve(np.eye(2) - a, known)
        np.testing.assert_allclose(traj.states.values, expected, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("key", ["ex5.1", "scalar"])
    def test_linear_rhs_one_iteration_per_step(self, key):
        # The iteration matrix carries over, so a linear rhs is solved by
        # one iterate on every step after the one that builds the matrix.
        if key == "scalar":
            sys = scalar_system(OperatorKind.RIEMANN_LIOUVILLE, 0.5, lambda t, x: -x)
        else:
            sys = get_builtin(key).system
        traj = solve(sys, 2000)
        assert [rec.iterations for rec in traj.steps[1:]] == [1] * 1999

    # States of the fixed-point/Newton stepper that preceded chord Newton.
    REFERENCE_ROWS = {
        "ex5.1": {10: [0.01761970520018681, 0.0352394104003785],
                  100: [0.005634847900925483, 0.011269695801850691],
                  2000: [0.0012614874155835315, 0.0025229748311671597]},
        "ex5.2": {10: [0.017619705200195315, 0.035173788774497165],
                  100: [0.005634847900925644, 0.011247692878907084],
                  2000: [0.0012614874155835332, 0.002518023934336732]},
        "ex5.3": {10: [0.2952333743727073, -0.03892970832602603],
                  100: [0.22847074514288082, -0.038929318592627216],
                  2000: [0.1522605477672189, -0.020497896653132907]},
        "ex5.4": {10: [0.006361913475568683, 0.032363306209868874],
                  100: [0.00022139595973322173, 0.010430339529036358],
                  2000: [2.5014977311728845e-06, 0.002336854870779718]},
    }

    @pytest.mark.parametrize("key", sorted(REFERENCE_ROWS))
    def test_examples_match_reference_rows(self, key):
        traj = solve(get_builtin(key).system, 2000)
        for n, row in self.REFERENCE_ROWS[key].items():
            assert np.max(np.abs(traj.state(n) - row)) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_named(self, bad):
        def rhs(t, x):
            return -x if t < 2.0 else np.where(x == 0.0, 0.0, bad)

        sys = scalar_system(OperatorKind.CAPUTO, 0.5, rhs)
        message = r"non-finite value .* at step 3 \(t = 2\.5\)"
        with pytest.raises(SolverDivergenceError, match=message) as err:
            solve(sys, 10)
        assert err.value.step == 3


class TestStepCsv:
    def test_sidecar_schema(self, tmp_path):
        traj = solve(get_builtin("ex5.1").system, 6)
        path = tmp_path / "meta.csv"
        write_step_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,iters,residual"
        assert len(lines) == 7
        step, iters, residual = lines[1].split(",")
        assert int(step) == 1 and int(iters) >= 1 and float(residual) <= 1e-12
