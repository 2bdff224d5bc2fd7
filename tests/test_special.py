"""Tests for the scalar special functions."""

import math

import mpmath
import numpy as np
import pytest

from hfrac import (
    GammaPoleError,
    HFactorialPoleError,
    binomial_weights,
    gamma,
    gamma_sign,
    h_factorial,
    log_gamma,
    reciprocal_gamma,
)

mpmath.mp.dps = 40


def _ref_log_abs_gamma(x: float) -> float:
    return float(mpmath.log(abs(mpmath.gamma(x))))


class TestLogGamma:
    def test_trivial_values(self):
        assert abs(log_gamma(1.0)) <= 5e-15
        assert abs(log_gamma(2.0)) <= 5e-15
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    @pytest.mark.parametrize("x", np.geomspace(0.5, 100.0, 37).tolist())
    def test_positive_axis_accuracy(self, x):
        ref = _ref_log_abs_gamma(x)
        err = abs(log_gamma(x) - ref)
        assert err <= max(1e-13 * abs(ref), 1e-14)

    @pytest.mark.parametrize("x", [-0.5, -1.5, -2.3, -7.75, 0.01, 0.2, 0.49])
    def test_reflection_region(self, x):
        ref = _ref_log_abs_gamma(x)
        assert log_gamma(x) == pytest.approx(ref, rel=1e-12, abs=1e-13)
        assert gamma_sign(x) == math.copysign(1.0, float(mpmath.gamma(x)))

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles_raise(self, x):
        with pytest.raises(GammaPoleError):
            log_gamma(x)
        with pytest.raises(GammaPoleError):
            gamma_sign(x)

    @pytest.mark.parametrize("x", [-1.0 + 1e-10, 1e-13, -1e-13, -3.0 + 1e-9, -3.0 - 1e-9])
    def test_finite_next_to_poles(self, x):
        # Gamma is finite off the exact integers; these once raised as poles.
        ref = mpmath.gamma(mpmath.mpf(x))
        assert gamma(x) == pytest.approx(float(ref), rel=1e-13, abs=0.0)
        assert log_gamma(x) == pytest.approx(float(mpmath.log(abs(ref))), rel=1e-14)
        assert gamma_sign(x) == math.copysign(1.0, float(ref))

    def test_gamma_convenience(self):
        assert gamma(0.5) ** 2 == pytest.approx(math.pi, rel=1e-13)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)

    def test_reciprocal_gamma_vanishes_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(2.5) == pytest.approx(1.0 / gamma(2.5), rel=1e-13)

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-13])
    def test_reciprocal_gamma_next_to_poles(self, eps):
        # 1/Gamma(x) = x (x+1) / Gamma(x+2); x + 1 is exact next to -1.
        expected = eps / gamma(1.0 + eps)
        assert reciprocal_gamma(eps) == pytest.approx(expected, rel=1e-13, abs=0.0)
        x = -1.0 + eps
        expected = x * (x + 1.0) * reciprocal_gamma(x + 2.0)
        assert reciprocal_gamma(x) == pytest.approx(expected, rel=1e-13, abs=0.0)
        # 1/Gamma(-eps) = -eps / Gamma(1 - eps); reducing -eps through
        # 1 - eps would round away most of its digits.
        expected = -eps * reciprocal_gamma(1.0 - eps)
        assert reciprocal_gamma(-eps) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestHFactorial:
    def test_zero_exponent_is_one(self):
        assert h_factorial(2.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_integer_ratio(self):
        # Gamma(3)/Gamma(2) = 2, computed by factorial arithmetic.
        assert h_factorial(2.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_zero_convention(self):
        # t/h + 1 - nu lands on a nonpositive integer, t/h + 1 does not.
        assert h_factorial(0.25, 1.25, 1.0) == 0.0
        assert h_factorial(0.5, 3.0, 0.5) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(HFactorialPoleError):
            h_factorial(-1.0, 0.5, 1.0)
        with pytest.raises(HFactorialPoleError):
            h_factorial(-3.0, 0.25, 1.0)

    @pytest.mark.parametrize("h", [-1.0, 0.0, math.inf, math.nan])
    def test_negative_step_rejected(self, h):
        # HGrid's check and message: inf once returned inf, nan a conversion error.
        with pytest.raises(ValueError) as err:
            h_factorial(1.0, 0.5, h)
        assert str(err.value) == f"step must be finite and positive, got h = {h!r}"

    def test_difference_identity(self):
        # ((tau-h)^(nu) - tau^(nu)) / h = -nu * (tau-h)^(nu-1) on random
        # pole-free samples, for exponents across (-1, 1).
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 300:
            u = rng.integers(0, 6)
            delta = rng.uniform(0.1, 0.9)
            s = rng.integers(-2, 3)
            h = rng.choice([0.25, 0.5, 1.0, 2.0])
            nu = rng.uniform(-1.0, 1.0)
            tau = (u + delta - s) * h
            args = (tau / h, tau / h - 1.0, tau / h + 1.0 - nu, tau / h - nu)
            if any(abs(v - round(v)) < 1e-6 and round(v) <= 0 for v in args):
                continue
            lhs = (h_factorial(tau - h, nu, h) - h_factorial(tau, nu, h)) / h
            rhs = -nu * h_factorial(tau - h, nu - 1.0, h)
            assert abs(lhs - rhs) <= max(1e-12, 1e-9 * max(abs(lhs), abs(rhs)))
            checked += 1


class TestBinomialWeights:
    def test_first_values(self):
        w = binomial_weights(0.5, 4)
        assert w[0] == 1.0
        np.testing.assert_allclose(w, [1.0, 0.5, 0.375, 0.3125, 0.2734375])

    def test_order_one_is_all_ones(self):
        np.testing.assert_array_equal(binomial_weights(1.0, 16), np.ones(17))

    def test_order_zero_is_delta(self):
        w = binomial_weights(0.0, 8)
        assert w[0] == 1.0
        np.testing.assert_array_equal(w[1:], np.zeros(8))

    @pytest.mark.parametrize("nu", np.linspace(0.05, 1.0, 20).tolist())
    def test_invariants_up_to_256(self, nu):
        w = binomial_weights(nu, 256)
        assert w[0] == 1.0
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0)
        assert np.all(np.diff(w) <= 0.0)

    @pytest.mark.parametrize("nu", [0.1, 0.37, 0.5, 0.86, 1.0])
    def test_recurrence_matches_gamma_ratio(self, nu):
        # Independent oracle: C(k+nu-1, k) through the stdlib lgamma.
        w = binomial_weights(nu, 64)
        for k in range(1, 65):
            ref = math.exp(
                math.lgamma(k + nu) - math.lgamma(nu) - math.lgamma(k + 1)
            )
            assert w[k] == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("nu", [-0.7, 0.0, 1e-3, 0.3, 0.5, 1.0 - 1e-10, 1.0, 2.6])
    def test_bit_identical_to_plain_cumprod(self, nu):
        for n in (0, 1, 7, 1000):
            k = np.arange(1.0, n + 1.0)
            expected = np.concatenate(([1.0], np.cumprod((k + nu - 1.0) / k)))
            np.testing.assert_array_equal(binomial_weights(nu, n), expected)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            binomial_weights(0.5, -1)

