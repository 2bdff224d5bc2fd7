"""Special functions underlying the fractional step-h operators.

The standard library's gamma plus the gamma ratio, with no cancellation;
the step-h falling factorial with its zero/pole conventions; and the
binomial weights C(k+nu-1, k), the one production kernel of every operator
and of the solver.  The falling factorial serves the definitions and the
independent ``*_direct`` forms.  All functions are pure.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GammaPoleError",
    "HFactorialPoleError",
    "log_gamma",
    "gamma_sign",
    "gamma",
    "reciprocal_gamma",
    "h_factorial",
    "binomial_weights",
]

# h_factorial's "is t/h + 1 an integer" tests allow for the rounding grid
# points a + k*h pick up; Gamma's own poles are exact nonpositive integers.
INT_TOL = 1e-9


class GammaPoleError(ValueError):
    """Gamma function requested at a nonpositive integer."""


class HFactorialPoleError(ValueError):
    """Falling-factorial numerator pole not covered by the zero convention."""


# Gamma ratios with both arguments this large use Stirling's series (tail S < 1.3e-14).
_STIRLING_MIN = 16.0


def _is_pole(x: float) -> bool:
    """Gamma's poles: exact nonpositive integers, with no rounding snap."""
    return x <= 0.0 and x == math.floor(x)


def _near_pole(x: float) -> bool:
    """Is x within INT_TOL of a nonpositive integer (h_factorial's conventions)?"""
    return abs(x - round(x)) <= INT_TOL and x < 0.5


def _require_step(h: float) -> None:
    """The one check of a step h, shared by ``HGrid`` and :func:`h_factorial`."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be finite and positive, got h = {h!r}")


def _stirling_tail(z):
    """S(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 to z^-7 (DLMF 5.11.1)."""
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z


def log_gamma(x: float) -> float:
    """ln|Gamma(x)|, its sign being :func:`gamma_sign`'s; raises at the poles."""
    if _is_pole(x):
        raise GammaPoleError(f"gamma pole at x = {x!r}")
    return math.lgamma(x)


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x): -1.0 on (-1, 0), (-3, -2), ..., else +1.0; raises at the poles."""
    if _is_pole(x):
        raise GammaPoleError(f"gamma pole at x = {x!r}")
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def gamma(x: float) -> float:
    """Gamma(x) with sign; raises at exact nonpositive integers."""
    if _is_pole(x):
        raise GammaPoleError(f"gamma pole at x = {x!r}")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x); 0.0 exactly at the poles, where 1/Gamma extends smoothly."""
    return 0.0 if _is_pole(x) else gamma_sign(x) * math.exp(-math.lgamma(x))


def h_factorial(t: float, nu: float, h: float) -> float:
    """Falling factorial on the step-h scale: h^nu * Gamma(t/h+1)/Gamma(t/h+1-nu).

    Conventions: the value is 0 when t/h+1-nu is a nonpositive integer while
    t/h+1 is not; when t/h+1 itself is a nonpositive integer the value is
    undefined and :class:`HFactorialPoleError` is raised.  A value beyond
    the double range raises ``OverflowError``.
    """
    _require_step(h)
    num = t / h + 1.0
    if _near_pole(num):
        raise HFactorialPoleError(
            f"undefined: t/h + 1 = {num!r} is a nonpositive integer"
        )
    if _near_pole(num - nu):
        return 0.0
    with np.errstate(over="ignore"):
        value = float(_h_factorial_array(np.array([num]), nu, h)[0])
    if not math.isfinite(value):
        raise OverflowError(f"h_factorial overflows at t/h + 1 = {num!r}, nu = {nu!r}")
    return value


def _h_factorial_array(num: np.ndarray, nu: float, h: float) -> np.ndarray:
    """h^nu Gamma(num)/Gamma(num-nu) elementwise, num = t/h + 1: the one gamma ratio.

    With num and num - nu both at least ``_STIRLING_MIN`` the log of the
    value is nu ln(num h) - (num-nu-1/2) log1p(-nu/num) - nu + S(num) - S(num-nu),
    whose terms do not cancel the way ln Gamma(num) - ln Gamma(num-nu) does
    (losing eps*num*ln(num)), and in which h^nu cannot leave the double
    range on its own.  Below, the standard library's gammas, or their signed
    logs where a gamma or the product could leave the double range.  Callers
    keep off the poles and zeros, and pass num itself so that it can be exact.
    """
    x = np.asarray(num, dtype=float)
    y = x - nu
    log_h = math.log(h)
    big = np.minimum(x, y) >= _STIRLING_MIN
    xb, yb = x[big], y[big]
    out = np.empty_like(x)
    out[big] = np.exp(
        nu * np.log(xb * h) - (yb - 0.5) * np.log1p(-nu / xb) - nu
        + (_stirling_tail(xb) - _stirling_tail(yb))
    )
    for i in np.flatnonzero(~big):
        a, b = float(x[i]), float(y[i])
        value = 0.0
        if max(abs(a), abs(b)) < 170.0 and abs(nu * log_h) < 600.0:  # finite factors
            value = h**nu * (math.gamma(a) / math.gamma(b))
        if not 0.0 < abs(value) < math.inf:  # not tried, or the product left the range
            log_value = math.lgamma(a) - math.lgamma(b) + nu * log_h
            value = gamma_sign(a) * gamma_sign(b) * math.exp(log_value)
        out[i] = value
    return out


def binomial_weights(nu: float, n: int) -> np.ndarray:
    """Weights C(k+nu-1, k) for k = 0..n via the multiplicative recurrence.

    w[0] = 1 and w[k] = w[k-1] * (k+nu-1)/k, which avoids gamma-ratio
    overflow and drift for large k.  Scaled by h^nu they are the kernel of
    the order-nu summation operator.  Any real nu is accepted; for nu in
    (0, 1] the values start at 1, stay in (0, 1] and are non-increasing.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    # One preallocated array; the operation order ((k + nu) - 1) / k keeps
    # the values bit-identical to np.cumprod((k + nu - 1.0) / k).
    k = np.arange(1.0, n + 1.0)
    w = np.empty(n + 1)
    w[0] = 1.0
    tail = w[1:]
    np.add(k, nu, out=tail)
    tail -= 1.0
    tail /= k
    tail.cumprod(out=tail)
    return w
