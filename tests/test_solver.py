"""Tests for the convolution-quadrature solver and its inversion helpers."""

import functools
from collections import Counter

import numpy as np
import pytest

import solver_oracle
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
from hfrac.expr import build_system
from hfrac.operators import _FFT_MIN, _tiling


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


def _outcome(solver, sys, n_steps):
    """A solve's states and step records as bytes, or its failure."""
    try:
        traj = solver(sys, n_steps)
    except SolverDivergenceError as err:
        cause = type(err.__cause__).__name__ if err.__cause__ is not None else None
        return ("raised", err.step, str(err), np.float64(err.residual).tobytes(), cause)
    records = [(r.index, r.iterations, np.float64(r.residual).tobytes(), r.method)
               for r in traj.steps]
    return ("solved", traj.states.values.tobytes(), records)


def _linear_systems(kind):
    """Diagonal and non-normal f = A x of dimensions 1-4, with diagonals
    spread from -1e6 to -1, as expression systems and numpy callables."""
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 4):
        for non_normal in (False, True):
            a = -np.diag(np.geomspace(1e6, 1.0, dim))
            if non_normal:
                a += np.triu(rng.normal(size=(dim, dim)) * 1e4, 1)
            x0 = rng.uniform(-1.0, 1.0, dim)
            nu = float(rng.uniform(0.2, 1.0))
            sources = ["+".join(f"({float(a[i, j])!r})*x{j + 1}" for j in range(dim))
                       for i in range(dim)]
            yield build_system(kind, nu, 0.0, 1.0, x0, sources)
            yield SystemDef(dim, kind, nu, 0.0, 1.0, x0, lambda t, x, a=a: a @ x)


class TestFloatStep:
    """The step on Python floats against the array step it replaced
    (tests/solver_oracle.py): the same states, step records and failures,
    bit for bit.  numpy's @ may fuse multiply-adds, so this holds because
    both routes leave the history sum and inv @ g to the same BLAS calls."""

    @pytest.mark.parametrize("key", ["ex5.1", "ex5.2", "ex5.3", "ex5.4"])
    def test_builtins(self, key):
        sys = get_builtin(key).system
        assert _outcome(solve, sys, 1000) == _outcome(solver_oracle.solve, sys, 1000)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_linear_and_stiff_systems(self, kind):
        stiff = [
            build_system(kind, 0.6, 0.0, 1.0, [2.0, -1.0], ["-1000*x1^3+x2", "-x2^5-50*x1"]),
            build_system(kind, 0.5, 0.0, 1.0, [1.0], ["-1000000*x1^3"]),
        ]
        counts = Counter()
        oracle = functools.partial(solver_oracle.solve, counts=counts)
        for sys in [*_linear_systems(kind), *stiff]:
            assert _outcome(solve, sys, 150) == _outcome(oracle, sys, 150)
        # Both systems of stiff cubics rebuild the matrix and halve steps.
        assert counts["builds"] > 100
        assert counts["halvings"] > 0

    def test_time_dependent_expression(self):
        sys = build_system(OperatorKind.CAPUTO, 0.7, 0.3, 0.5, [0.3, -0.2],
                           ["-(1+t/(1+t))*x1+0.1*t*x2^3", "-x2*(2+x1^2)"])
        assert sys.time_dependent
        assert _outcome(solve, sys, 300) == _outcome(solver_oracle.solve, sys, 300)

    def test_plain_numpy_callable(self):
        sys = SystemDef(2, OperatorKind.RIEMANN_LIOUVILLE, 0.4, 0.0, 0.7, [0.5, 0.5],
                        lambda t, x: -x**3 - 3.0 * np.array([x[1], -x[0]]))
        assert _outcome(solve, sys, 300) == _outcome(solver_oracle.solve, sys, 300)

    @pytest.mark.parametrize("case", [
        "non-finite", "non-finite-callable", "newton-cap", "newton-cap-callable",
        "singular", "singular-callable", "zero-division", "zero-division-callable",
        "overflow",
    ])
    def test_same_failure(self, case):
        kind = OperatorKind.CAPUTO
        systems = {
            "non-finite": build_system(kind, 0.5, 0.0, 1.0, [0.1], ["-x1*1e308*1e308"]),
            "non-finite-callable": scalar_system(
                kind, 0.5, lambda t, x: -x if t < 2.0 else np.where(x == 0.0, 0.0, np.nan)),
            "newton-cap": build_system(kind, 1.0, 0.0, 1.0, [1.0], ["x1+x1^2"]),
            "newton-cap-callable": scalar_system(kind, 1.0, lambda t, x: x + x * x),
            # I - h^nu J = 0: the forward difference of f = x is exactly 1.
            "singular": build_system(kind, 1.0, 0.0, 1.0, [1.0, 2.0], ["x1", "x2"]),
            "singular-callable": scalar_system(kind, 1.0, lambda t, x: x),
            "zero-division": build_system(kind, 0.5, 0.0, 1.0, [1.0], ["x1/(t-2.5)-x1"]),
            "zero-division-callable": scalar_system(
                kind, 0.5, lambda t, x: 1.0 / (t - 2.5) * 0.0 - x),
            "overflow": build_system(kind, 0.5, 0.0, 1.0, [1e300], ["-x1^3"]),
        }
        sys = systems[case]
        outcome = _outcome(solve, sys, 8)
        assert outcome[0] == "raised"
        assert outcome == _outcome(solver_oracle.solve, sys, 8)


class TestBlockedHistory:
    """From _FFT_MIN steps on, each step sums its history directly only over
    its own diagonal block and takes the rest from FFT squares, tiled as in
    operators._convolve_columns; tests/solver_oracle.py sums the whole
    history directly at every step.  Below _FFT_MIN the block is the whole
    history, so the two routes agree bit for bit."""

    BUILTINS = ("ex5.1", "ex5.2", "ex5.3", "ex5.4")
    # A plain numpy callable: the adapter route.
    CALLABLE = SystemDef(2, OperatorKind.RIEMANN_LIOUVILLE, 0.4, 0.0, 0.7, [0.5, 0.5],
                         lambda t, x: -x**3 - 0.1 * np.array([x[1], -x[0]]))

    def test_bitwise_below_fft_min(self):
        n = _FFT_MIN - 1
        for sys in [*(get_builtin(key).system for key in self.BUILTINS), self.CALLABLE]:
            assert _outcome(solve, sys, n) == _outcome(solver_oracle.solve, sys, n)

    @staticmethod
    def _assert_close(sys, n):
        assert _tiling(n)[1] > 0
        # At the default tol = 1e-12 a last-bit difference can flip whether
        # a step stops at its extrapolation, which moves a state by up to tol:
        # ex5.3 at 2e4 steps deviates by 2.3e-12 of its largest value there,
        # and by 7e-15 at tol = 1e-14, where such a flip moves it by 1e-14.
        states = solve(sys, n, tol=1e-14).states.values
        ref = solver_oracle.solve(sys, n, tol=1e-14).states.values
        # Per component, against its largest value: measured at most
        # 2.7e-15.  Elementwise the deviation follows the sums' rounding,
        # not the state: 1.6e-11 relative on ex5.4's tail (6.3e-7) at 5000
        # steps, 1.2e-10 on its 7.9e-8 tail at 2e4.
        dev = np.max(np.abs(states - ref), axis=0)
        assert np.all(dev <= 1e-12 * np.max(np.abs(ref), axis=0)), dev

    # _FFT_MIN = 128 << 4 and 3072 = 96 << 5 fill their tilings exactly;
    # _FFT_MIN + 1 and 5000 end inside the last square.
    @pytest.mark.parametrize("n", [_FFT_MIN, _FFT_MIN + 1, 3072, 5000])
    @pytest.mark.parametrize("key", BUILTINS)
    def test_builtins_close_to_direct_history(self, key, n):
        self._assert_close(get_builtin(key).system, n)

    def test_plain_callable_close_to_direct_history(self):
        self._assert_close(self.CALLABLE, 5000)
