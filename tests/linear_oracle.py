"""The solver's states for f = lam * x from their generating function.

For a linear right-hand side the recurrence that `hfrac.solve` marches,

    x_n = c_n x_0 + s * sum_{j<n} w[n-1-j] * lam * x_{j+1},   s = h^nu,

with w the order-nu binomial weights, W(z) = (1-z)^-nu, and c_n = 1
(Caputo) or w[n] (Riemann-Liouville), has a closed generating function
X(z) = sum_{n>=1} x_n z^n (Lubich, SIAM J. Math. Anal. 17, 1986):

    Caputo: X(z) = x_0 z (1-z)^(nu-1)  / ((1-z)^nu - s lam)
    RL:     X(z) = x_0 (1 - (1-z)^nu)  / ((1-z)^nu - s lam)

The coefficients of (1-z)^nu and (1-z)^(nu-1) are the binomial weights of
orders -nu and 1-nu; the reciprocal of the denominator comes from Newton's
iteration g <- g (2 - d g) on power series, with FFT products, doubling
the length each time.  All of it is O(N log N), and none of it is a step
of the solver or one of its blocked convolutions, so it checks solves far
longer than the O(N^2) extended-precision recurrence (`longdouble_solve`)
can.  A diagonal A is one scalar problem per component.

An FFT product's error follows its largest coefficient, so the oracle's
error is bounded relative to |x_0|, not to each x_n: tests state their
bounds elementwise relative with a floor tied to |x_0|.
"""

import numpy as np

from hfrac import OperatorKind, binomial_weights


def _product(a, b, n):
    """First n coefficients of the product of two power series."""
    size = 1 << (2 * n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a[:n], size) * np.fft.rfft(b[:n], size), size)[:n]


def _reciprocal(d, n):
    """First n coefficients of 1 / d(z), d[0] != 0."""
    g = np.array([1.0 / d[0]])
    while len(g) < n:
        m = min(2 * len(g), n)
        e = -_product(d, g, m)
        e[0] += 2.0
        g = _product(g, e, m)
    return g


def linear_solve(kind, nu, h, lam, x0, n_steps):
    """States x_0 .. x_n_steps, shape (n_steps + 1, dim), of the solver's
    recurrence for f = diag(lam) x."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = n_steps + 1
    power = binomial_weights(-nu, n_steps)  # (1-z)^nu
    if kind is OperatorKind.CAPUTO:
        numerator = np.concatenate(([0.0], binomial_weights(1.0 - nu, n_steps - 1)))
    else:
        numerator = -power
        numerator[0] = 0.0
    states = np.empty((n, len(x0)))
    for i, (li, xi) in enumerate(zip(lam, x0)):
        d = power.copy()
        d[0] -= h**nu * li
        states[:, i] = xi * _product(numerator, _reciprocal(d, n), n)
    states[0] = x0
    return states


def longdouble_solve(kind, nu, h, lam, x0, n_steps):
    """The same recurrence for scalar lam and x_0, solved step by step in
    np.longdouble: the O(N^2) reference for `linear_solve`."""
    one = np.longdouble(1)
    nu, s = np.longdouble(nu), np.longdouble(h) ** np.longdouble(nu)
    lam, x0 = np.longdouble(lam), np.longdouble(x0)
    k = np.arange(1, n_steps + 1, dtype=np.longdouble)
    w = np.concatenate(([one], np.cumprod((k + nu - one) / k)))
    rev = w[::-1]
    x = np.empty(n_steps + 1, dtype=np.longdouble)
    x[0] = x0
    for n in range(1, n_steps + 1):
        c = one if kind is OperatorKind.CAPUTO else w[n]
        # Weights w[n-1] .. w[1] against x_1 .. x_{n-1}.
        memory = np.dot(rev[n_steps - n + 1 : n_steps], x[1:n])
        x[n] = (c * x0 + s * lam * memory) / (one - s * lam)
    return x
