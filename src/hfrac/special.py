"""Scalar special functions underlying the fractional step-h operators.

Three ingredients live here: a self-contained log-gamma (Lanczos
approximation plus reflection), the step-h falling factorial with its
zero/pole conventions, and the binomial weights C(k+nu-1, k).  The weights
are the one production kernel: every operator and the solver build their
convolutions from :func:`binomial_weights`.  The gamma-ratio falling
factorial is kept for the definitions and for the independent ``*_direct``
operator forms that tests and ``residual_check`` compare against.  All
functions are pure and safe to call concurrently.
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

# Grid points are constructed as a + k*h and pick up rounding on the way in,
# so h_factorial's "is t/h + 1 an integer" decisions use a small absolute
# tolerance.  Gamma itself has poles only at exact nonpositive integers.
INT_TOL = 1e-9


class GammaPoleError(ValueError):
    """Gamma function requested at a nonpositive integer."""


class HFactorialPoleError(ValueError):
    """Falling-factorial numerator pole not covered by the zero convention."""


# Lanczos approximation with g = 7 and 9 coefficients.  After reflection the
# relative error of exp(log_gamma) stays below ~1e-14 in double precision.
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)
_LN_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)


def _is_pole(x: float) -> bool:
    """Gamma's poles: exact nonpositive integers, with no rounding snap."""
    return x <= 0.0 and x == math.floor(x)


def _nearest_int(x: float) -> tuple[bool, int]:
    """Classify x as an integer within INT_TOL; returns (is_int, rounded)."""
    k = round(x)
    return abs(x - k) <= INT_TOL, int(k)


def _log_abs_sin_pi(x):
    """log|sin(pi*x)|, elementwise.

    The sine is taken of the distance to the nearest integer, x - round(x),
    which is exact in floating point, so the relative accuracy holds however
    close x is to an integer.
    """
    x = np.asarray(x, dtype=float)
    return np.log(np.sin(np.pi * np.abs(x - np.round(x))))


def _sign_sin_pi(x):
    """Sign of sin(pi*x) for non-integer x, elementwise."""
    x = np.asarray(x, dtype=float)
    n = np.floor(x).astype(np.int64)
    return np.where(n % 2 == 0, 1.0, -1.0)


def _log_abs_gamma(x):
    """log|Gamma(x)| for scalar or array input; poles are the caller's problem."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    x1 = np.atleast_1d(arr)
    reflect = x1 < 0.5
    xr = np.where(reflect, 1.0 - x1, x1)

    z = xr - 1.0
    series = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _LN_SQRT_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(series)

    if np.any(reflect):
        out[reflect] = _LN_PI - _log_abs_sin_pi(x1[reflect]) - out[reflect]
    return out[0] if scalar else out


def _sign_gamma(x):
    """Sign of Gamma(x) for non-pole scalar or array input."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.5, 1.0, _sign_sin_pi(x))


def log_gamma(x: float) -> float:
    """Natural log of |Gamma(x)|.

    For x >= 0.5 this is ln Gamma(x) directly; below 0.5 the reflection
    formula is applied, and for negative non-integer x (where Gamma may be
    negative) the sign is reported separately by :func:`gamma_sign`.

    Raises :class:`GammaPoleError` at exact nonpositive integers only; next
    to one the reflection keeps full relative accuracy.
    """
    if _is_pole(x):
        raise GammaPoleError(f"gamma pole at x = {x!r}")
    return float(_log_abs_gamma(x))


def gamma_sign(x: float) -> float:
    """Sign (+1.0 or -1.0) of Gamma(x); raises at exact nonpositive integers."""
    if _is_pole(x):
        raise GammaPoleError(f"gamma pole at x = {x!r}")
    return float(_sign_gamma(x))


def gamma(x: float) -> float:
    """Gamma(x) with sign, via exp(log_gamma)."""
    return gamma_sign(x) * math.exp(log_gamma(x))


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x); 0.0 exactly at the poles, where 1/Gamma extends smoothly.

    Only exact nonpositive integers count as poles.  Arguments below 0.5
    go through the reflection formula 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi,
    whose sine is evaluated on the exact distance to the nearest integer, so
    the relative accuracy does not degrade however close x is to a pole,
    from either side.
    """
    if _is_pole(x):
        return 0.0
    return float(_sign_gamma(x)) * math.exp(-float(_log_abs_gamma(x)))


def h_factorial(t: float, nu: float, h: float) -> float:
    """Falling factorial on the step-h scale: h^nu * Gamma(t/h+1)/Gamma(t/h+1-nu).

    Conventions: the value is 0 when t/h+1-nu is a nonpositive integer while
    t/h+1 is not; when t/h+1 itself is a nonpositive integer the value is
    undefined and :class:`HFactorialPoleError` is raised.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got h = {h!r}")
    num = t / h + 1.0
    den = num - nu
    num_is_int, num_k = _nearest_int(num)
    den_is_int, den_k = _nearest_int(den)
    if num_is_int and num_k <= 0:
        raise HFactorialPoleError(
            f"undefined: t/h + 1 = {num!r} is a nonpositive integer"
        )
    if den_is_int and den_k <= 0:
        return 0.0
    sign = float(_sign_gamma(num)) * float(_sign_gamma(den))
    return h**nu * sign * math.exp(float(_log_abs_gamma(num) - _log_abs_gamma(den)))


def _h_factorial_array(num: np.ndarray, nu: float, h: float) -> np.ndarray:
    """Vectorized falling factorial h^nu Gamma(num)/Gamma(num-nu), num = t/h + 1.

    Builds the gamma-ratio kernels of the ``*_direct`` operator forms only;
    their arguments are known to avoid both the pole and the
    zero-convention cases.  It takes the numerator argument itself rather
    than t/h, so a caller can pass one whose distance to a gamma pole is
    exact.  Production kernels come from :func:`binomial_weights`.
    """
    num = np.asarray(num, dtype=float)
    den = num - nu
    sign = _sign_gamma(num) * _sign_gamma(den)
    return h**nu * sign * np.exp(_log_abs_gamma(num) - _log_abs_gamma(den))


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
