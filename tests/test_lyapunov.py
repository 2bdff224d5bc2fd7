"""Tests for diagonalization, inequality margins, and certificates."""

import dataclasses
import math

import numpy as np
import pytest

from hfrac import (
    BUILTIN_SYSTEMS,
    CertificateReport,
    GridFunction,
    HGrid,
    LatticeSampler,
    NonnegativityError,
    NotPositiveDefiniteError,
    OperatorKind,
    PowerCondition,
    QuadraticCondition,
    SystemDef,
    certify_theorem,
    decay_report,
    get_builtin,
    lattice_points,
    parse_system_source,
    power_inequality_margins,
    power_margin_suite,
    quadratic_form_margins,
    quadratic_margin_suite,
    random_spd_matrix,
    residual_check,
    solve,
)
from hfrac import lyapunov, operators
from hfrac.operators import ShiftedGridFunction, caputo_difference, rl_difference
from jacobi_oracle import jacobi_diagonalize

SLACK = 1e-10


class TestJacobi:
    def test_identity(self):
        eig = jacobi_diagonalize(np.eye(3))
        np.testing.assert_array_equal(eig.rotation, np.eye(3))
        np.testing.assert_array_equal(eig.eigenvalues, np.ones(3))

    def test_all_ones_matrix(self):
        eig = jacobi_diagonalize(np.ones((2, 2)))
        assert sorted(np.round(eig.eigenvalues, 12)) == [0.0, 2.0]

    def test_diagonal_untouched(self):
        d = np.diag([3.0, -1.0, 0.5])
        eig = jacobi_diagonalize(d)
        np.testing.assert_array_equal(eig.rotation, np.eye(3))
        np.testing.assert_array_equal(eig.eigenvalues, np.diag(d))

    def test_random_invariants(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            p = rng.normal(size=(n, n))
            p = 0.5 * (p + p.T)
            eig = jacobi_diagonalize(p)
            b = eig.rotation
            assert np.max(np.abs(b @ b.T - np.eye(n))) <= 1e-10
            scale = max(float(np.max(np.abs(p))), 1e-300)
            assert np.max(np.abs(eig.reconstruct() - p)) <= 1e-10 * scale

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_diagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        eig = jacobi_diagonalize(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))


def scalar_gf(rng, n=32, low=-1.0, high=1.0):
    return GridFunction(HGrid(0.0, 1.0, n), rng.uniform(low, high, n))


class TestPowerMargins:
    def test_constant_square_margin_vanishes_caputo(self):
        y = GridFunction(HGrid(0.0, 1.0, 10), np.full(10, 1.3))
        margins = power_inequality_margins(y, 0.5, 2, OperatorKind.CAPUTO)
        assert np.max(np.abs(margins)) <= 1e-12

    def test_constant_square_margin_nonnegative_rl(self):
        y = GridFunction(HGrid(0.0, 1.0, 10), np.full(10, 1.3))
        margins = power_inequality_margins(y, 0.5, 2, OperatorKind.RIEMANN_LIOUVILLE)
        assert np.min(margins) >= 0.0

    def test_random_square_margins(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = scalar_gf(rng)
            margins = power_inequality_margins(y, 0.5, 2, OperatorKind.CAPUTO)
            assert np.min(margins) >= -SLACK

    def test_random_odd_power_margins(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            y = scalar_gf(rng, low=0.0)
            margins = power_inequality_margins(y, 0.5, 5, OperatorKind.CAPUTO)
            assert np.min(margins) >= -SLACK

    def test_odd_power_requires_nonnegative(self):
        y = GridFunction(HGrid(0.0, 1.0, 8), np.linspace(-0.5, 0.5, 8))
        with pytest.raises(NonnegativityError):
            power_inequality_margins(y, 0.5, 3, OperatorKind.CAPUTO)

    def test_invalid_power_rejected(self):
        y = GridFunction(HGrid(0.0, 1.0, 8), np.ones(8))
        with pytest.raises(ValueError):
            power_inequality_margins(y, 0.5, 6, OperatorKind.CAPUTO)

    def test_order_one_square_margin_formula(self):
        # at nu = 1 the square margin telescopes to (y(t+h) - y(t))^2 / h
        rng = np.random.default_rng(14)
        y = scalar_gf(rng, n=12)
        margins = power_inequality_margins(y, 1.0, 2, OperatorKind.CAPUTO)
        expected = np.diff(y.values[:, 0]) ** 2
        np.testing.assert_allclose(margins, expected, atol=1e-12)


class TestQuadraticFormMargins:
    def test_identity_weight_reduces_to_scalar_sum(self):
        rng = np.random.default_rng(21)
        y = GridFunction(HGrid(0.0, 1.0, 16), rng.uniform(-1, 1, (16, 3)))
        total = quadratic_form_margins(y, np.eye(3), 0.5, OperatorKind.CAPUTO)
        per_component = sum(
            power_inequality_margins(
                GridFunction(y.grid, y.values[:, i]), 0.5, 2, OperatorKind.CAPUTO
            )
            for i in range(3)
        )
        np.testing.assert_allclose(total, 0.5 * per_component, atol=1e-12)

    def test_random_spd_margins(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            p = random_spd_matrix(dim, rng)
            y = GridFunction(HGrid(0.0, 1.0, 20), rng.uniform(-1, 1, (20, dim)))
            kind = OperatorKind.CAPUTO if rng.random() < 0.5 else OperatorKind.RIEMANN_LIOUVILLE
            margins = quadratic_form_margins(y, p, 0.5, kind)
            assert np.min(margins) >= -SLACK * float(np.max(np.abs(p)))

    def test_one_step_order_one_formula(self):
        # y(a) = 0, one step, nu = 1: margin equals (h/2) |Dy|_P^2
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        h = 0.5
        y1 = np.array([0.3, -0.7])
        y = GridFunction(HGrid(0.0, h, 2), np.vstack([np.zeros(2), y1]))
        margin = quadratic_form_margins(y, p, 1.0, OperatorKind.CAPUTO)[0]
        dy = y1 / h
        assert margin == pytest.approx(0.5 * h * dy @ p @ dy, rel=1e-12)

    def test_requires_positive_definite(self):
        y = GridFunction(HGrid(0.0, 1.0, 6), np.ones((6, 2)))
        with pytest.raises(NotPositiveDefiniteError):
            quadratic_form_margins(y, np.ones((2, 2)), 0.5, OperatorKind.CAPUTO)

    def test_suite_entry_points(self):
        rng = np.random.default_rng(23)
        worst = power_margin_suite(
            OperatorKind.CAPUTO, 3, nu_values=(0.4, 1.0), trials=10, rng=rng
        )
        assert worst >= -SLACK
        worst = quadratic_margin_suite(
            OperatorKind.RIEMANN_LIOUVILLE, nu_values=(0.4,), trials=10, rng=rng
        )
        assert worst >= -SLACK


# The suites' per-trial route as it was before they were batched: two
# operator calls per trial, margins and P built one trial at a time.  Kept
# as the oracle that the batched suites must match bit for bit.
def _per_trial_power_suite(kind, power, *, nu_values, trials, n_points, rng):
    op = caputo_difference if kind is OperatorKind.CAPUTO else rl_difference
    low = 0.0 if power >= 3 and power % 2 == 1 else -1.0
    worst = math.inf
    for nu in nu_values:
        for _ in range(trials):
            y = GridFunction(HGrid(0.0, 1.0, n_points), rng.uniform(low, 1.0, size=n_points))
            dy = op(y, nu)
            dyp = op(y.map_values(lambda v: v**power), nu)
            yk = y.values[1:, 0]
            margins = power * yk ** (power - 1) * dy.values[:, 0] - dyp.values[:, 0]
            worst = min(worst, float(np.min(margins)))
    return worst


def _per_trial_spd_matrix(dim, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    span = 0.5 * math.log10(1e3)
    eig = 10.0 ** rng.uniform(-span, span, size=dim)
    p = q @ np.diag(eig) @ q.T
    return 0.5 * (p + p.T)


def _per_trial_quadratic_suite(kind, *, dims, nu_values, trials, n_points, rng):
    op = caputo_difference if kind is OperatorKind.CAPUTO else rl_difference
    worst = math.inf
    for nu in nu_values:
        for k in range(trials):
            dim = dims[k % len(dims)]
            p = _per_trial_spd_matrix(dim, rng)
            y = GridFunction(HGrid(0.0, 1.0, n_points), rng.uniform(-1.0, 1.0, size=(n_points, dim)))
            assert np.linalg.eigvalsh(p)[0] > 0.0
            dy = op(y, nu)
            dq = op(GridFunction(y.grid, np.einsum("ki,ij,kj->k", y.values, p, y.values)), nu)
            margins = (np.einsum("ki,ij,kj->k", y.values[1:], p, dy.values)
                       - 0.5 * dq.values[:, 0])
            worst = min(worst, float(np.min(margins)) / float(np.max(np.abs(p))))
    return worst


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


KINDS = (OperatorKind.CAPUTO, OperatorKind.RIEMANN_LIOUVILLE)


class TestBatchedSuites:
    """The batched suites against the per-trial route: the same worst
    margin and the same random stream afterwards, bit for bit."""

    @pytest.mark.parametrize("n_points", [2, 24])
    @pytest.mark.parametrize("power", [2, 3, 5, 8])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("trials", [0, 1, 2, 7])
    def test_power_suite_bitwise(self, trials, kind, power, n_points):
        args = dict(nu_values=lyapunov.DEFAULT_NU_GRID, trials=trials, n_points=n_points)
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        worst = power_margin_suite(kind, power, rng=rng, **args)
        expected = _per_trial_power_suite(kind, power, rng=ref_rng, **args)
        assert _bits(worst) == _bits(expected)
        assert rng.random() == ref_rng.random()
        if trials == 0:
            assert worst == math.inf

    @pytest.mark.parametrize("n_points", [2, 24])
    @pytest.mark.parametrize("dims", [(2, 3, 4), (1, 5)])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("trials", [0, 1, 2, 7])
    def test_quadratic_suite_bitwise(self, trials, kind, dims, n_points, monkeypatch):
        args = dict(dims=dims, nu_values=lyapunov.DEFAULT_NU_GRID, trials=trials,
                    n_points=n_points)
        expected = _per_trial_quadratic_suite(kind, rng=np.random.default_rng(42), **args)
        after = np.random.default_rng(42)
        _per_trial_quadratic_suite(kind, rng=after, **args)
        after = after.random()
        # All orders in one chunk; then chunks of three orders (trials 1)
        # or of one order (trials 2 and 7).
        for chunk_trials in (lyapunov._SUITE_TRIALS, 3):
            monkeypatch.setattr(lyapunov, "_SUITE_TRIALS", chunk_trials)
            rng = np.random.default_rng(42)
            worst = quadratic_margin_suite(kind, rng=rng, **args)
            assert _bits(worst) == _bits(expected)
            assert rng.random() == after
        if trials == 0:
            assert worst == math.inf

    def test_quadratic_suite_takes_any_iterable(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "_SUITE_TRIALS", 4)
        args = dict(trials=2, n_points=6)
        expected = quadratic_margin_suite(
            OperatorKind.CAPUTO, nu_values=(0.2, 0.5, 0.9), rng=np.random.default_rng(5), **args
        )
        worst = quadratic_margin_suite(
            OperatorKind.CAPUTO, nu_values=(nu for nu in (0.2, 0.5, 0.9)),
            rng=np.random.default_rng(5), **args
        )
        assert _bits(worst) == _bits(expected)

    def test_random_spd_matrix_bitwise(self):
        for dim in (1, 2, 3, 4, 5):
            rng, ref_rng = np.random.default_rng(dim), np.random.default_rng(dim)
            for _ in range(5):
                p = random_spd_matrix(dim, rng)
                assert p.tobytes() == _per_trial_spd_matrix(dim, ref_rng).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_nan_margin_fails(self, kind, monkeypatch, capsys):
        # One NaN among an order's finite margins.  Python's min() skipped
        # it, so the suites returned a finite worst and `props` printed ok.
        # The suites reach the differences through OperatorKind.difference,
        # which reads them from the operators module when called.
        def nan_op(real):
            def op(f, nu):
                d = real(f, nu)
                values = d.values.copy()
                values[-1, -1] = np.nan
                return ShiftedGridFunction(d.base_grid, d.offset, values)
            return op

        for name, real in (("caputo_difference", caputo_difference),
                           ("rl_difference", rl_difference)):
            monkeypatch.setattr(operators, name, nan_op(real))
        rng = np.random.default_rng(3)
        assert math.isnan(power_margin_suite(kind, 3, trials=5, rng=rng))
        assert math.isnan(power_margin_suite(kind, 2, trials=5, rng=rng))
        assert math.isnan(quadratic_margin_suite(kind, trials=5, rng=rng))
        from hfrac.cli import EXIT_FAIL, main

        assert main(["props", "--trials", "2"]) == EXIT_FAIL
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 16
        assert all(row.split()[1:] == ["nan", "FAIL"] for row in rows)


class TestMarginColumns:
    """Each margin series of a 400-column call against the same series in a
    call of its own and in a pair, bit for bit.  Like the suite tests above,
    this rests on the BLAS summing each column's Toeplitz block products in
    the same order whatever the number of columns."""

    N_POINTS, COLUMNS = 24, 400

    @pytest.mark.parametrize("power", [2, 3, 8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_power_margins(self, kind, power):
        grid = HGrid(0.0, 1.0, self.N_POINTS)
        low = 0.0 if power % 2 else -1.0
        y = np.random.default_rng(power).uniform(low, 1.0, size=(self.N_POINTS, self.COLUMNS))
        for nu in (0.37, 1.0):
            full = lyapunov._power_margins(grid, y, nu, power, kind)
            for j in range(self.COLUMNS):
                one = lyapunov._power_margins(grid, y[:, j : j + 1], nu, power, kind)
                assert one[:, 0].tobytes() == full[:, j].tobytes()
            for j in range(0, self.COLUMNS, 2):
                two = lyapunov._power_margins(grid, y[:, j : j + 2], nu, power, kind)
                assert two.tobytes() == np.ascontiguousarray(full[:, j : j + 2]).tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_quadratic_margins(self, kind, dim):
        grid = HGrid(0.0, 1.0, self.N_POINTS)
        rng = np.random.default_rng(dim)
        y = rng.uniform(-1.0, 1.0, size=(self.COLUMNS, self.N_POINTS, dim))
        p = np.stack([random_spd_matrix(dim, rng) for _ in range(self.COLUMNS)])
        for nu in (0.37, 1.0):
            (full,) = lyapunov._quadratic_margins(grid, [(y, p)], nu, kind)
            for j in range(self.COLUMNS):
                (one,) = lyapunov._quadratic_margins(grid, [(y[j : j + 1], p[j : j + 1])], nu, kind)
                assert one[0].tobytes() == full[j].tobytes()
            for j in range(0, self.COLUMNS, 2):
                (two,) = lyapunov._quadratic_margins(grid, [(y[j : j + 2], p[j : j + 2])], nu, kind)
                assert two.tobytes() == full[j : j + 2].tobytes()


class TestStackedDefiniteness:
    """The stacked eigvalsh check against Jacobi rotations, matrix by matrix."""

    def test_eigenvalues_match_jacobi(self):
        rng = np.random.default_rng(43)
        for dim in (1, 2, 3, 4, 6):
            normals = rng.normal(size=(9, dim, dim))
            p = lyapunov._spd_matrices(normals, rng.uniform(-1.5, 1.5, size=(9, dim)))
            lam = np.linalg.eigvalsh(p)
            for pi, li in zip(p, lam):
                oracle = np.sort(jacobi_diagonalize(pi).eigenvalues)
                np.testing.assert_allclose(li, oracle, rtol=1e-10, atol=0.0)
                assert oracle[0] > 0.0
            lyapunov._require_definite(p)

    def test_one_indefinite_matrix_in_a_stack_raises(self):
        rng = np.random.default_rng(44)
        p = lyapunov._spd_matrices(rng.normal(size=(6, 3, 3)), rng.uniform(-1.5, 1.5, size=(6, 3)))
        for shift in (2.0, 1.0 + 1e-9):
            bad = p.copy()
            # Push the 5th matrix's smallest eigenvalue to or below zero.
            bad[4] -= shift * np.min(jacobi_diagonalize(bad[4]).eigenvalues) * np.eye(3)
            assert np.min(jacobi_diagonalize(bad[4]).eigenvalues) < 0.0
            with pytest.raises(NotPositiveDefiniteError):
                lyapunov._require_definite(bad)
        with pytest.raises(NotPositiveDefiniteError):
            lyapunov._require_definite(np.array([np.eye(2), np.zeros((2, 2))]))


class TestLattice:
    def test_range_and_determinism(self):
        a = lattice_points(3, 500, seed=4)
        b = lattice_points(3, 500, seed=4)
        c = lattice_points(3, 500, seed=5)
        assert a.shape == (500, 3)
        assert np.all((a >= 0.0) & (a < 1.0))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("field", ["count", "radius", "time_points"])
    def test_sampler_validation(self, field):
        with pytest.raises(ValueError):
            LatticeSampler(**{field: 0})

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_radius_rejected(self, radius):
        # radius = nan or inf once returned `inconclusive` with a worst
        # margin of nan or -inf instead of failing.
        with pytest.raises(ValueError, match="radius"):
            LatticeSampler(radius=radius)


class TestCertificates:
    def test_linear_system_with_ones_weight(self):
        b = get_builtin("ex5.1")
        report = certify_theorem(b.system, b.condition, LatticeSampler(count=4000))
        assert report.verdict == "stable-certified"
        # condition value is -(x1 + x2)^2, never positive
        assert report.worst_margin <= SLACK

    def test_coupled_system_identity_weight(self):
        b = get_builtin("ex5.2")
        report = certify_theorem(b.system, b.condition, LatticeSampler(count=4000))
        assert report.verdict == "stable-certified"

    @pytest.mark.parametrize("key", ["ex5.3", "ex5.4"])
    def test_power_condition_systems(self, key):
        b = get_builtin(key)
        report = certify_theorem(b.system, b.condition, LatticeSampler(count=4000))
        assert report.verdict == "stable-certified"
        assert report.condition_id.endswith("power-3")

    def test_antistable_inconclusive(self):
        sys = SystemDef(
            dim=1, kind=OperatorKind.CAPUTO, nu=0.5, a=0.0, h=1.0,
            x0=np.array([0.1]), rhs=lambda t, x: np.array([x[0]]),
        )
        report = certify_theorem(sys, QuadraticCondition(np.eye(1)), LatticeSampler(count=500))
        assert report.verdict == "inconclusive"
        assert not report.certified

    def test_nan_sample_is_a_violation(self):
        # Every other sample has condition value x^2 > 0; the NaNs once won
        # argmax, compared false with the slack and certified the system.
        sys = SystemDef(
            dim=1, kind=OperatorKind.CAPUTO, nu=0.5, a=0.0, h=1.0, x0=np.array([0.1]),
            rhs=lambda t, x: np.array([x[0] + (np.nan if abs(x[0]) > 0.9 else 0.0)]),
        )
        report = certify_theorem(sys, QuadraticCondition(np.eye(1)), LatticeSampler(count=500))
        assert report.verdict == "inconclusive"
        first = int(np.argmax(np.isnan(report.margins)))
        assert np.isnan(report.worst_margin)
        np.testing.assert_array_equal(report.worst_point, report.points[first])
        assert abs(report.worst_point[0]) > 0.9

    def test_asymptotic_upgrade(self):
        sys = SystemDef(
            dim=1, kind=OperatorKind.CAPUTO, nu=1.0, a=0.0, h=1.0,
            x0=np.array([1.0]), rhs=lambda t, x: np.array([-x[0]]),
        )
        report = certify_theorem(sys, QuadraticCondition(np.eye(1)), LatticeSampler(count=500))
        assert report.verdict == "asymptotically-stable-certified"

    def test_determinism(self):
        b = get_builtin("ex5.3")
        r1 = certify_theorem(b.system, b.condition, LatticeSampler(count=800, seed=3))
        r2 = certify_theorem(b.system, b.condition, LatticeSampler(count=800, seed=3))
        np.testing.assert_array_equal(r1.margins, r2.margins)
        np.testing.assert_array_equal(r1.points, r2.points)

    def test_orthant_sampling_for_odd_powers(self):
        b = get_builtin("ex5.3")
        report = certify_theorem(b.system, b.condition, LatticeSampler(count=300))
        assert np.all(report.points >= 0.0)

    def test_dimension_mismatch(self):
        sys = get_builtin("ex5.1").system
        with pytest.raises(ValueError):
            certify_theorem(sys, QuadraticCondition(np.eye(3)), LatticeSampler(count=10))

    @pytest.mark.parametrize("slack", [np.nan, np.inf, -1.0])
    def test_invalid_slack_rejected(self, slack):
        # slack = nan once certified an antistable system.
        sys = SystemDef(1, OperatorKind.CAPUTO, 0.5, 0.0, 1.0, [0.1], lambda t, x: x)
        with pytest.raises(ValueError, match="slack"):
            certify_theorem(sys, QuadraticCondition(np.eye(1)), LatticeSampler(count=10),
                            slack=slack)

    def test_power_condition_validation(self):
        with pytest.raises(ValueError):
            PowerCondition(2)
        with pytest.raises(ValueError):
            PowerCondition(6)
        assert PowerCondition(3).orthant_only
        assert not PowerCondition(4).orthant_only


def _per_point(sys: SystemDef) -> SystemDef:
    """The same compiled rhs behind a plain function, which has no batch form
    and is therefore evaluated one point at a time."""
    rhs = sys.rhs
    return dataclasses.replace(sys, rhs=lambda t, x: rhs(t, x))


def _system(dim: int, kind: str) -> SystemDef:
    """A time-dependent system with division and powers 2 to 5."""
    lines = [f"kind={kind}", "nu=0.45", "h=0.5", "a=0.25",
             "x0=" + ",".join(["0.2"] * dim)]
    for i in range(1, dim + 1):
        j = i % dim + 1
        lines.append(f"f{i}=-x{i}*(1 + t/4) - x{i}^3/(2 + x{j}^2) + 0.1*t*x{j}^4*x{i}"
                     f" - x{i}^5")
    return parse_system_source("\n".join(lines) + "\n")[0]


class TestBatchedRoutes:
    """Batched evaluation against the per-point route over the same compiled rhs."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("condition", ["quadratic", 3, 4, 5, 8])
    def test_certificate_margins_bitwise(self, dim, condition):
        rng = np.random.default_rng(dim)
        if condition == "quadratic":
            cond = QuadraticCondition(random_spd_matrix(dim, rng))
        else:
            cond = PowerCondition(condition)
        sys = _system(dim, "caputo" if dim % 2 else "rl")
        assert sys.time_dependent
        sampler = LatticeSampler(count=700, seed=dim, time_points=3)
        batched = certify_theorem(sys, cond, sampler)
        per_point = certify_theorem(_per_point(sys), cond, sampler)
        assert batched.margins.tobytes() == per_point.margins.tobytes()
        assert batched.verdict == per_point.verdict
        assert batched.to_text() == per_point.to_text()

    @pytest.mark.parametrize("key", sorted(BUILTIN_SYSTEMS))
    def test_builtin_certificates_bitwise(self, key):
        b = get_builtin(key)
        sampler = LatticeSampler(count=2000)
        batched = certify_theorem(b.system, b.condition, sampler)
        per_point = certify_theorem(_per_point(b.system), b.condition, sampler)
        assert batched.margins.tobytes() == per_point.margins.tobytes()
        assert batched.to_text() == per_point.to_text()

    @pytest.mark.parametrize("route", ["batched", "per-point"])
    def test_sampling_error_names_first_raising_point(self, route):
        # At t = 0.5 nothing overflows; at t = 1.5 the square overflows
        # wherever |x1| > 0.894, so the error names neither the first time
        # nor the first point.
        sys = parse_system_source(
            "kind=caputo\nnu=0.5\nh=1\na=0\nx0=0.1\nf1=-x1-x1*(x1*t*1e154)^2\n")[0]
        if route == "per-point":
            sys = _per_point(sys)
        sampler = LatticeSampler(count=500, seed=2, time_points=3)
        points = 2.0 * lattice_points(1, sampler.count, sampler.seed) - 1.0
        first = next(x for (x,) in points if abs(x * 1.5) * 1e154 > math.sqrt(np.finfo(float).max))
        assert abs(points[0, 0]) < 0.894
        with pytest.raises(ValueError) as err:
            certify_theorem(sys, QuadraticCondition(np.eye(1)), sampler)
        assert str(err.value) == (
            "rhs raised OverflowError: (34, 'Numerical result out of range') "
            f"at sample point [{float(first)!r}] (t = 1.5)"
        )
        assert isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_residual_check_bitwise(self, dim):
        sys = _system(dim, "rl")
        traj = solve(sys, 200)
        per_point = dataclasses.replace(traj, system=_per_point(sys))
        assert residual_check(traj) == residual_check(per_point)
        assert residual_check(traj) <= 1e-8


class TestReportSerialization:
    def _report(self) -> CertificateReport:
        b = get_builtin("ex5.1")
        return certify_theorem(b.system, b.condition, LatticeSampler(count=50))

    def test_text_block(self):
        text = self._report().to_text()
        fields = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert fields["condition"] == "caputo-quadratic"
        assert fields["verdict"] == "stable-certified"
        assert int(fields["samples"]) == 50
        assert len(fields["worst_point"].split(",")) == 2
        float(fields["worst_margin"])

    def test_margins_csv(self, tmp_path):
        report = self._report()
        path = tmp_path / "margins.csv"
        report.write_margins_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,margin"
        assert len(lines) == 51
        worst_from_csv = max(float(line.split(",")[-1]) for line in lines[1:])
        assert worst_from_csv == pytest.approx(report.worst_margin)


class TestDecayReport:
    def test_linear_example_decays(self):
        b = get_builtin("ex5.1")
        traj = solve(b.system, 40)
        report = decay_report(traj, b.condition.matrix + np.eye(2) * 0.0)
        assert report.v_monotone
        assert report.final_norm < report.initial_norm
        assert report.sup_norm == pytest.approx(report.initial_norm)

    def test_zero_trajectory(self):
        sys = SystemDef(
            dim=2, kind=OperatorKind.CAPUTO, nu=0.5, a=0.0, h=1.0,
            x0=np.zeros(2), rhs=lambda t, x: -x,
        )
        report = decay_report(solve(sys, 10))
        assert report.sup_norm == 0.0
        assert report.final_norm == 0.0
        np.testing.assert_array_equal(report.v_ratios, np.zeros(11))
        assert report.v_monotone

    def test_summary_text(self):
        traj = solve(get_builtin("ex5.2").system, 10)
        assert "V<=V(0)" in decay_report(traj).summary()

    @pytest.mark.parametrize("slack", [np.nan, np.inf, -1e-10])
    def test_invalid_slack_rejected(self, slack):
        # slack = nan once reported V<=V(0) False on a decaying trajectory.
        traj = solve(get_builtin("ex5.1").system, 10)
        with pytest.raises(ValueError, match="slack"):
            decay_report(traj, slack=slack)
