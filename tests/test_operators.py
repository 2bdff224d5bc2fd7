"""Tests for the grid types and the fractional operators."""

import csv
import math

import numpy as np
import pytest

from hfrac import (
    GridFunction,
    GridMismatchError,
    HGrid,
    InsufficientPointsError,
    OperatorKind,
    ShiftedGridFunction,
    binomial_weights,
    caputo_difference,
    caputo_difference_direct,
    forward_difference,
    fractional_sum,
    h_factorial,
    read_grid_csv,
    reciprocal_gamma,
    reconstruct_from_difference,
    rl_difference,
    rl_difference_direct,
    summation_by_parts_residual,
    write_grid_csv,
)
from hfrac.operators import _BLOCK_MAX, _FFT_MIN, _convolve_direct, _kernel, _write_csv

NU_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def random_function(rng, n=None, dim=1, h=None, a=None):
    n = int(rng.integers(16, 33)) if n is None else n
    h = float(rng.choice([0.25, 0.5, 1.0])) if h is None else h
    a = float(rng.uniform(-1.0, 1.0)) if a is None else a
    values = rng.uniform(-1.0, 1.0, size=(n, dim))
    return GridFunction(HGrid(a, h, n), values)


def assert_close(actual, expected, rel=1e-9, floor=1e-12):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(np.abs(actual), np.abs(expected))
    assert np.all(np.abs(actual - expected) <= np.maximum(floor, rel * scale))


class TestGrid:
    def test_points_are_exact(self):
        grid = HGrid(0.3, 0.1, 5)
        for k in range(5):
            assert grid.point(k) == 0.3 + k * 0.1
        np.testing.assert_array_equal(grid.points, [grid.point(k) for k in range(5)])

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            HGrid(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            HGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("a,h", [
        (0.0, np.nan), (0.0, np.inf), (0.0, 0.0), (0.0, -1.0), (np.nan, 1.0), (-np.inf, 1.0),
    ])
    def test_non_finite_grid_rejected(self, a, h):
        # HGrid(0.0, nan, 5) once built, and fractional_sum over it was all NaN.
        with pytest.raises(ValueError, match="finite") as err:
            HGrid(a, h, 5)
        if math.isfinite(a):  # h_factorial shares the step check and its message
            assert str(err.value) == f"step must be finite and positive, got h = {h!r}"

    def test_values_validation(self):
        grid = HGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            GridFunction(grid, np.ones(4))
        with pytest.raises(ValueError):
            GridFunction(grid, np.array([1.0, np.nan, 2.0]))


class TestShiftedGridFunction:
    @pytest.mark.parametrize("offset", [-0.5, np.nan, np.inf])
    def test_bad_offset_rejected(self, offset):
        # offset < 0 is False for NaN, so a NaN offset once passed the check.
        with pytest.raises(ValueError, match="offset"):
            ShiftedGridFunction(HGrid(0.0, 1.0, 3), offset, np.ones(3))


class TestForwardDifference:
    def test_constant_is_zero(self):
        f = GridFunction(HGrid(0.0, 0.5, 8), np.full(8, 4.2))
        np.testing.assert_array_equal(forward_difference(f).values, np.zeros((7, 1)))

    def test_identity_has_unit_slope(self):
        grid = HGrid(0.0, 0.5, 9)
        f = GridFunction(grid, grid.points)
        np.testing.assert_allclose(forward_difference(f).values, np.ones((8, 1)))

    def test_square_by_hand(self):
        grid = HGrid(0.0, 1.0, 6)
        f = GridFunction(grid, grid.points**2)
        d = forward_difference(f)
        # at t = 3: (16 - 9) / 1
        assert d.values[3, 0] == 7.0

    def test_insufficient_points(self):
        f = GridFunction(HGrid(0.0, 1.0, 3), np.zeros(3))
        with pytest.raises(InsufficientPointsError):
            forward_difference(f, order=3)

    def test_second_order(self):
        grid = HGrid(0.0, 1.0, 6)
        f = GridFunction(grid, grid.points**2)
        np.testing.assert_allclose(forward_difference(f, 2).values, np.full((4, 1), 2.0))


class TestFractionalSum:
    def test_order_one_of_constant(self):
        # order-1 sum of a constant c accumulates c*(t - a)
        f = GridFunction(HGrid(1.0, 0.5, 8), np.full(8, 3.0))
        s = fractional_sum(f, 1.0)
        assert s.offset == 0.5
        expected = 3.0 * (s.points - 1.0)
        np.testing.assert_allclose(s.values[:, 0], expected, rtol=1e-14)

    def test_half_order_single_term(self):
        f = GridFunction(HGrid(0.0, 1.0, 4), np.ones(4))
        s = fractional_sum(f, 0.5)
        assert s.point(0) == 0.5
        assert s.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_order_zero_is_identity(self):
        rng = np.random.default_rng(0)
        f = random_function(rng)
        s = fractional_sum(f, 0.0)
        assert s.offset == 0.0
        np.testing.assert_array_equal(s.values, f.values)

    def test_fundamental_pairing(self):
        # differencing the order-1 sum (with its zero start value) gives f back
        rng = np.random.default_rng(5)
        f = random_function(rng, n=12, h=0.5, a=0.0)
        s = fractional_sum(f, 1.0)
        padded = np.concatenate([[0.0], s.values[:, 0]])
        recovered = np.diff(padded) / 0.5
        np.testing.assert_allclose(recovered, f.values[:, 0], atol=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, np.nan, np.inf, -np.inf])
    def test_negative_order_rejected(self, nu):
        # A NaN order once gave [0, nan, nan, ...] with only a RuntimeWarning.
        f = GridFunction(HGrid(0.0, 1.0, 4), np.ones(4))
        with pytest.raises(ValueError, match="nonnegative"):
            fractional_sum(f, nu)


class TestDefinitionalEquivalence:
    @pytest.mark.parametrize("nu", NU_GRID)
    def test_rl_forms_agree(self, nu):
        rng = np.random.default_rng(int(nu * 1000))
        for _ in range(30):
            f = random_function(rng)
            assert_close(
                rl_difference_direct(f, nu).values, rl_difference(f, nu).values
            )

    @pytest.mark.parametrize("nu", NU_GRID)
    def test_caputo_forms_agree(self, nu):
        rng = np.random.default_rng(int(nu * 7000) + 1)
        for _ in range(30):
            f = random_function(rng)
            assert_close(
                caputo_difference_direct(f, nu).values,
                caputo_difference(f, nu).values,
            )

    def test_componentwise(self):
        rng = np.random.default_rng(9)
        f = random_function(rng, dim=2)
        direct = rl_difference_direct(f, 0.3)
        for i in range(2):
            single = GridFunction(f.grid, f.values[:, i])
            assert_close(direct.values[:, i], rl_difference_direct(single, 0.3).values[:, 0])

    def test_zero_function(self):
        f = GridFunction(HGrid(0.0, 1.0, 10), np.zeros(10))
        for op in (rl_difference_direct, caputo_difference_direct):
            np.testing.assert_array_equal(op(f, 0.4).values, np.zeros((9, 1)))

    def test_long_series_small_order(self):
        # 1e4 points at nu = 0.02: a gamma-ratio kernel for the (1-nu)-sum
        # drifted past 1e-9 relative here; the binomial recurrence does not.
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (10000, 1))
        f = GridFunction(HGrid(0.0, 1.0, 10000), x)
        nu = 0.02
        g = caputo_difference(f, nu)
        back = reconstruct_from_difference(g, x[0], OperatorKind.CAPUTO, nu)
        assert_close(back.values, x)
        assert_close(rl_difference(f, nu).values, rl_difference_direct(f, nu).values)

    @pytest.mark.parametrize("nu", [1.0 - 1e-8, 1.0 - 1e-10])
    def test_order_next_to_one(self, nu):
        # The oracles once lost the distance of -nu to the gamma pole at -1
        # and snapped 1/Gamma to 0 within 1e-9 of a pole.
        grid = HGrid(0.0, 1.0, 6)
        square = GridFunction(grid, grid.points**2)
        noise = random_function(np.random.default_rng(11), n=40, dim=2)
        for f in (square, noise):
            assert_close(
                rl_difference_direct(f, nu).values, rl_difference(f, nu).values,
                rel=1e-12,
            )
            assert_close(
                caputo_difference_direct(f, nu).values,
                caputo_difference(f, nu).values,
                rel=1e-12,
            )


class TestDirectConvolution:
    """The direct sum, Toeplitz block products at every size, against np.convolve."""

    @staticmethod
    def check(n, dim, oracle_kernel):
        h, nu = 0.5, 0.3
        # The RL oracle's gamma-ratio kernel has negative entries.
        kernel = _kernel(-nu, -nu - 1.0, h, n) if oracle_kernel else binomial_weights(nu, n - 1)
        t = h * np.arange(n)
        rng = np.random.default_rng(n + dim)
        for values in (rng.uniform(-1.0, 1.0, (n, dim)), np.tile(t[:, None] ** 2, (1, dim))):
            actual = _convolve_direct(kernel, values)
            assert actual.shape == values.shape
            for j in range(dim):
                ref = np.convolve(kernel, values[:, j])[:n]
                scale = np.convolve(np.abs(kernel), np.abs(values[:, j]))[:n]
                assert np.all(np.abs(actual[:, j] - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [
        _FFT_MIN - 1, _FFT_MIN, _FFT_MIN + 1,
        17 * _BLOCK_MAX - 1, 17 * _BLOCK_MAX, 17 * _BLOCK_MAX + 1, 4099, 20000,
        1, 2, 24, _BLOCK_MAX - 1, _BLOCK_MAX, _BLOCK_MAX + 1, 1000,
    ])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("oracle_kernel", [True, False], ids=["rl-oracle", "binomial"])
    def test_matches_np_convolve_elementwise(self, n, dim, oracle_kernel):
        self.check(n, dim, oracle_kernel)

    @pytest.mark.parametrize("oracle_kernel", [True, False], ids=["rl-oracle", "binomial"])
    def test_wide_block(self, oracle_kernel):
        # The shape of one order of a `props` margin suite.
        self.check(24, 400, oracle_kernel)


def _direct_sum(values: np.ndarray, nu: float, h: float) -> np.ndarray:
    """Order-nu sum through the plain O(n^2) convolution, as a reference."""
    kernel = h**nu * binomial_weights(nu, values.shape[0] - 1)
    return _convolve_direct(kernel, values)


class TestFftConvolution:
    """Series from _FFT_MIN points on are convolved through the blocked FFT."""

    @pytest.mark.parametrize("n", [_FFT_MIN - 1, _FFT_MIN, 4099, 20000])
    @pytest.mark.parametrize("nu", [0.001, 0.5, 1.0])
    def test_matches_direct_convolution(self, n, nu):
        rng = np.random.default_rng(n)
        h = 0.5
        f = GridFunction(HGrid(0.0, h, n), rng.uniform(-1.0, 1.0, (n, 2)))
        ref_sum = _direct_sum(f.values, nu, h)
        inner = _direct_sum(f.values, 1.0 - nu, h)
        ref_rl = (inner[1:] - inner[:-1]) / h
        ref_caputo = _direct_sum((f.values[1:] - f.values[:-1]) / h, 1.0 - nu, h)
        for actual, ref in (
            (fractional_sum(f, nu).values, ref_sum),
            (rl_difference(f, nu).values, ref_rl),
            (caputo_difference(f, nu).values, ref_caputo),
        ):
            assert actual.shape == ref.shape
            assert np.max(np.abs(actual - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nu", [0.001, 0.5, 0.999])
    def test_growing_series_elementwise(self, nu):
        # Early outputs of t^2 are up to 1e12 times smaller than the last
        # ones; each must still meet the elementwise contract.
        n = 20000
        grid = HGrid(0.0, 1.0, n)
        f = GridFunction(grid, np.column_stack([grid.points**2, np.ones(n)]))
        inner = _direct_sum(f.values, 1.0 - nu, 1.0)
        diff = f.values[1:] - f.values[:-1]
        assert_close(fractional_sum(f, nu).values, _direct_sum(f.values, nu, 1.0))
        assert_close(rl_difference(f, nu).values, inner[1:] - inner[:-1])
        assert_close(caputo_difference(f, nu).values, _direct_sum(diff, 1.0 - nu, 1.0))


class TestRlDifference:
    def test_order_one_is_forward_difference(self):
        rng = np.random.default_rng(1)
        f = random_function(rng)
        d = rl_difference(f, 1.0)
        assert d.offset == 0.0
        np.testing.assert_array_equal(d.values, forward_difference(f).values)

    def test_constant_formula(self):
        # RL difference of the constant c: c * (t-a)^(-nu) / Gamma(1-nu)
        c, nu, h, a = 2.0, 0.5, 0.5, 1.0
        f = GridFunction(HGrid(a, h, 10), np.full(10, c))
        d = rl_difference(f, nu)
        t = d.points
        expected = np.array(
            [c * h_factorial(tk - a, -nu, h) * reciprocal_gamma(1.0 - nu) for tk in t]
        )
        assert_close(d.values[:, 0], expected)

    def test_order_outside_range(self):
        f = GridFunction(HGrid(0.0, 1.0, 4), np.ones(4))
        for nu in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                rl_difference(f, nu)

    def test_insufficient_points(self):
        f = GridFunction(HGrid(0.0, 1.0, 1), np.ones(1))
        with pytest.raises(InsufficientPointsError):
            rl_difference(f, 0.5)


class TestCaputoDifference:
    def test_constant_annihilated(self):
        f = GridFunction(HGrid(0.0, 0.25, 12), np.full(12, -3.7))
        for nu in (0.2, 0.5, 0.9, 1.0):
            assert np.max(np.abs(caputo_difference(f, nu).values)) <= 1e-13

    def test_order_one_is_forward_difference(self):
        rng = np.random.default_rng(2)
        f = random_function(rng)
        np.testing.assert_array_equal(
            caputo_difference(f, 1.0).values, forward_difference(f).values
        )

    @pytest.mark.parametrize("nu", NU_GRID)
    def test_bridge_to_rl(self, nu):
        # caputo(f) = rl(f) - f(a) (t-a)^(-nu) / Gamma(1-nu)
        rng = np.random.default_rng(int(nu * 100) + 3)
        for _ in range(20):
            f = random_function(rng)
            c = caputo_difference(f, nu)
            r = rl_difference(f, nu)
            h, a = f.grid.h, f.grid.a
            bridge = np.array(
                [
                    f.values[0] * h_factorial(tk - a, -nu, h) * reciprocal_gamma(1.0 - nu)
                    for tk in c.points
                ]
            )
            assert_close(c.values, r.values - bridge)


class TestLinearity:
    @pytest.mark.parametrize(
        "op",
        [
            lambda f: fractional_sum(f, 0.7),
            lambda f: rl_difference(f, 0.4),
            lambda f: rl_difference_direct(f, 0.4),
            lambda f: caputo_difference(f, 0.6),
            lambda f: caputo_difference_direct(f, 0.6),
        ],
        ids=["sum", "rl", "rl-direct", "caputo", "caputo-direct"],
    )
    def test_linear(self, op):
        rng = np.random.default_rng(77)
        grid = HGrid(0.0, 0.5, 20)
        f = GridFunction(grid, rng.uniform(-1, 1, 20))
        g = GridFunction(grid, rng.uniform(-1, 1, 20))
        alpha, beta = 1.7, -0.3
        combo = GridFunction(grid, alpha * f.values + beta * g.values)
        lhs = op(combo).values
        rhs = alpha * op(f).values + beta * op(g).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-11


class TestSummationByParts:
    def test_random_residual_small(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            grid = HGrid(0.0, float(rng.choice([0.5, 1.0])), 16)
            x = GridFunction(grid, rng.uniform(-1, 1, 16))
            y = GridFunction(grid, rng.uniform(-1, 1, 16))
            assert summation_by_parts_residual(x, y) <= 1e-10

    def test_zero_x_exact(self):
        grid = HGrid(0.0, 1.0, 10)
        x = GridFunction(grid, np.zeros(10))
        y = GridFunction(grid, np.arange(10.0))
        assert summation_by_parts_residual(x, y) == 0.0

    def test_constant_y(self):
        rng = np.random.default_rng(3)
        grid = HGrid(0.0, 1.0, 12)
        x = GridFunction(grid, rng.uniform(-1, 1, 12))
        y = GridFunction(grid, np.full(12, 2.5))
        assert summation_by_parts_residual(x, y) <= 1e-12

    def test_grid_mismatch(self):
        x = GridFunction(HGrid(0.0, 1.0, 8), np.zeros(8))
        y = GridFunction(HGrid(0.0, 0.5, 8), np.zeros(8))
        with pytest.raises(GridMismatchError):
            summation_by_parts_residual(x, y)


class TestOperatorKind:
    def test_entries(self):
        assert OperatorKind.CAPUTO.difference is caputo_difference
        assert OperatorKind.CAPUTO.direct is caputo_difference_direct
        assert OperatorKind.RIEMANN_LIOUVILLE.difference is rl_difference
        assert OperatorKind.RIEMANN_LIOUVILLE.direct is rl_difference_direct

    def test_x0_weights(self):
        w = binomial_weights(0.3, 6)
        np.testing.assert_array_equal(OperatorKind.CAPUTO.x0_weights(w), np.ones(7))
        np.testing.assert_array_equal(OperatorKind.RIEMANN_LIOUVILLE.x0_weights(w), w)

    def test_one_enum_everywhere(self):
        from hfrac import operators, solver

        assert solver.OperatorKind is operators.OperatorKind is OperatorKind

    def test_entries_read_module_globals(self, monkeypatch):
        from hfrac import operators

        def wrapped(f, nu):
            return caputo_difference(f, nu)

        monkeypatch.setattr(operators, "caputo_difference", wrapped)
        assert OperatorKind.CAPUTO.difference is wrapped

    @pytest.mark.parametrize("value", ["weird", 1, None])
    def test_unknown_value(self, value):
        with pytest.raises(ValueError, match="kind must be caputo or rl"):
            OperatorKind(value)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        f = random_function(rng, n=9, dim=3, h=0.5, a=-0.25)
        path = tmp_path / "f.csv"
        write_grid_csv(f, path)
        g = read_grid_csv(path)
        # %.17g representations reparse to the identical doubles
        np.testing.assert_array_equal(g.values, f.values)
        assert g.grid == f.grid

    def test_format(self, tmp_path):
        f = GridFunction(HGrid(0.0, 1.0, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
        path = tmp_path / "f.csv"
        write_grid_csv(f, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.splitlines()[0] == b"t,x1,x2"

    def test_writer_matches_csv_module(self, tmp_path):
        # The one writer formats whole chunks with %; the bytes must be those
        # of csv.writer over f"{v:.17g}" fields, across a chunk boundary and
        # for signed zeros, non-finite values and subnormals.
        rng = np.random.default_rng(5)
        table = rng.standard_normal((5000, 2)) * 10.0 ** rng.integers(-300, 300, (5000, 2))
        table[:6, 0] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0]
        _write_csv(tmp_path / "a.csv", ["x", "y"], table)
        _write_csv(tmp_path / "b.csv", ["i", "y"], enumerate(table[:, 1].tolist()),
                   "%d,%.17g\n")
        refs = {
            "a.csv": (["x", "y"], [[f"{x:.17g}", f"{y:.17g}"] for x, y in table]),
            "b.csv": (["i", "y"], [[k, f"{y:.17g}"] for k, y in enumerate(table[:, 1])]),
        }
        for name, (header, rows) in refs.items():
            ref = tmp_path / f"ref_{name}"
            with open(ref, "w", newline="\n") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
            assert (tmp_path / name).read_bytes() == ref.read_bytes()

    def test_rejects_ragged_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0,1\n1,1\n3,1\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)
