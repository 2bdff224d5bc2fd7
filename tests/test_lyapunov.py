"""Tests for diagonalization, inequality margins, and certificates."""

import numpy as np
import pytest

from hfrac import (
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
    jacobi_diagonalize,
    lattice_points,
    power_inequality_margin,
    power_inequality_margins,
    power_margin_suite,
    quadratic_form_margin,
    quadratic_form_margins,
    quadratic_margin_suite,
    random_spd_matrix,
    solve,
)

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

    def test_single_point_accessor(self):
        rng = np.random.default_rng(13)
        y = scalar_gf(rng)
        margins = power_inequality_margins(y, 0.3, 2, OperatorKind.RIEMANN_LIOUVILLE)
        assert power_inequality_margin(
            y, 0.3, 2, OperatorKind.RIEMANN_LIOUVILLE, 4
        ) == margins[4]
        with pytest.raises(IndexError):
            power_inequality_margin(y, 0.3, 2, OperatorKind.RIEMANN_LIOUVILLE, 99)

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
        margin = quadratic_form_margin(y, p, 1.0, OperatorKind.CAPUTO, 0)
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


class TestLattice:
    def test_range_and_determinism(self):
        a = lattice_points(3, 500, seed=4)
        b = lattice_points(3, 500, seed=4)
        c = lattice_points(3, 500, seed=5)
        assert a.shape == (500, 3)
        assert np.all((a >= 0.0) & (a < 1.0))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


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
