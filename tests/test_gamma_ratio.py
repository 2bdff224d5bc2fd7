"""The gamma ratio behind h_factorial and the ``*_direct`` oracle kernels.

Checked against mpmath at 40 digits: the two oracle kernels out to 1e7
points, h_factorial at large t/h, and h_factorial over large orders, where
one of the standard library's gammas leaves the double range.
"""

import math

import mpmath
import numpy as np
import pytest

from hfrac import HFactorialPoleError, h_factorial
from hfrac.operators import _kernel
from hfrac.special import _h_factorial_array

NUS = (0.1, 0.3, 0.5, 0.9, 1.0 - 1e-9)
# The kernels' offsets m, about 80 of them from 0 to 1e7.
OFFSETS = np.concatenate(([0.0], np.unique(np.round(np.geomspace(1.0, 1e7, 80)))))
# The (gamma numerator offset, exponent) pairs of the two oracles, as
# rl_difference_direct and caputo_difference_direct pass them to _kernel.
KERNELS = {
    "rl": lambda nu: (-nu, -nu - 1.0),
    "caputo": lambda nu: (1.0 - nu, -nu),
}


def _ref_h_factorial(num: float, nu: float, h: float):
    """h^nu Gamma(num)/Gamma(num - nu) at 40 digits, num and nu as given."""
    with mpmath.workdps(40):
        num, nu = mpmath.mpf(num), mpmath.mpf(nu)
        return mpmath.mpf(h) ** nu * mpmath.gamma(num) / mpmath.gamma(num - nu)


class TestOracleKernels:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    @pytest.mark.parametrize("nu", NUS)
    def test_kernel_matches_mpmath_to_1e7_points(self, kind, nu):
        h = 0.5
        num0, exponent = KERNELS[kind](nu)
        # _kernel evaluates np.arange(n) + num0 elementwise; sampling those
        # arguments avoids building (and caching) a 1e7-point kernel.
        x = OFFSETS + num0
        got = _h_factorial_array(x, exponent, h)
        head = OFFSETS < 64
        np.testing.assert_allclose(
            got[head], _kernel(num0, exponent, h, 64)[OFFSETS[head].astype(int)],
            rtol=1e-15, atol=0.0,
        )
        ref = [_ref_h_factorial(v, exponent, h) for v in x.tolist()]
        err = max(abs(g / r - 1) for g, r in zip(got.tolist(), ref))
        assert err <= 1e-13, (kind, nu, float(err))

    @pytest.mark.parametrize("nu", NUS + (-0.7, -1.3))
    def test_h_factorial_at_large_arguments(self, nu):
        h = 0.5
        for q in (1e3, 1e5, 1e7):
            ref = _ref_h_factorial(q + 1.0, nu, h)
            assert abs(h_factorial(q * h, nu, h) / ref - 1) <= 1e-13, (nu, q)


class TestLargeOrders:
    """h_factorial over nu in [-5, 200] and t/h in [-10, 300], with h = 1.

    Every argument is a multiple of 1/4, so t/h + 1 and t/h + 1 - nu are
    exact and land on the zero and pole conventions.  Near t/h = 172 with
    nu a little below it, Gamma(t/h + 1) reaches the top of the double
    range while the ratio does not: those points take the signed
    difference of the log-gammas.
    """

    @staticmethod
    def _points():
        rng = np.random.default_rng(28)
        sampled = zip(rng.integers(-40, 1201, 500) / 4, rng.integers(-20, 801, 500) / 4)
        negative = [(q, nu) for q in np.arange(-10.0, 0.25, 0.25)
                    for nu in (-5.0, -0.75, 0.5, 1.0, 3.25, 50.5, 200.0)]
        wedge = [(q, nu) for q in np.arange(170.0, 178.0, 0.75)
                 for nu in np.arange(150.0, 180.0, 1.25)]
        return [(float(q), float(nu)) for q, nu in [*sampled, *negative, *wedge]]

    def test_conventions_overflow_and_accuracy(self):
        big = mpmath.mpf(np.finfo(float).max)
        finite = 0
        for q, nu in self._points():
            num, den = q + 1.0, q + 1.0 - nu
            if num <= 0.0 and num == math.floor(num):
                with pytest.raises(HFactorialPoleError):
                    h_factorial(q, nu, 1.0)
            elif den <= 0.0 and den == math.floor(den):
                assert h_factorial(q, nu, 1.0) == 0.0
            else:
                ref = _ref_h_factorial(num, nu, 1.0)
                if abs(ref) > 1.001 * big:
                    with pytest.raises(OverflowError):
                        h_factorial(q, nu, 1.0)
                elif abs(ref) < 0.999 * big:
                    got = h_factorial(q, nu, 1.0)
                    assert math.isfinite(got)
                    assert abs(got / ref - 1) <= 1e-12, (q, nu, got)
                    finite += 1
        assert finite > 500

    @pytest.mark.parametrize("nu", [40.0, -40.0])
    def test_step_power_beyond_double_range(self, nu):
        # h^nu alone is 1e-400 or 1e400 while the value is about t^nu = 1.
        h = 1e-10
        ref = _ref_h_factorial(1.0 / h + 1.0, nu, h)
        assert abs(h_factorial(1.0, nu, h) / ref - 1) <= 1e-13, nu
