"""The generating-function oracle for f = lam * x, and the long solves it checks."""

import numpy as np
import pytest

from hfrac import OperatorKind, solve
from hfrac.expr import build_system
from linear_oracle import linear_solve, longdouble_solve

LAMS = (-1.0, -1000.0)  # one diagonal system, one component each
X0 = (0.2, -0.1)  # small enough that tol = 1e-16 lies above the rounding floor

# Deviations are taken per component, against the component's largest state
# after x_0: an FFT product's error follows its largest coefficient.
BOUND = 1e-12


def _deviation(states, reference):
    dev = np.abs(states - reference).astype(float)
    return np.max(dev, axis=0) / np.max(np.abs(reference[1:]), axis=0).astype(float)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("nu", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("h", [1.0, 0.5])
def test_oracle_against_longdouble_recurrence(kind, nu, h):
    n = 2000
    oracle = linear_solve(kind, nu, h, LAMS, X0, n)
    reference = np.stack(
        [longdouble_solve(kind, nu, h, lam, x0, n) for lam, x0 in zip(LAMS, X0)], axis=1
    )
    # Measured at most 1.7e-14 here.  The worst case, Caputo with nu = 0.2
    # and lam = -1, read 8.9e-14 at 2e4 steps and 3.8e-13 at 1e5.
    assert np.all(_deviation(oracle, reference) <= BOUND)


def _linear_system(kind, nu, h):
    sources = [f"({lam!r})*x{i + 1}" for i, lam in enumerate(LAMS)]
    return build_system(kind, nu, 0.0, h, X0, sources)


# Both kinds run at tol = 1e-16.  At the default absolute tolerance of
# 1e-12 a step stops at the linear extrapolation once the states are small,
# which leaves RL tails about 3e-5 relative off at 2e4 steps (and Caputo
# states up to 1e-12 absolute off): that error belongs to the stopping test,
# and these tests are about the history sum.
@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("nu", [0.2, 0.5, 0.9])
def test_solve_at_2e4_steps(kind, nu):
    n = 20_000
    states = solve(_linear_system(kind, nu, 1.0), n, tol=1e-16).states.values
    # Measured at most 8.3e-14 (Caputo, nu = 0.2), most of it the oracle's
    # own error; at most 5e-15 for the other orders.
    assert np.all(_deviation(states, linear_solve(kind, nu, 1.0, LAMS, X0, n)) <= BOUND)


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_solve_at_1e5_steps(kind):
    n = 100_000
    # Measured at most 2.3e-15.
    states = solve(_linear_system(kind, 0.5, 0.5), n, tol=1e-16).states.values
    assert np.all(_deviation(states, linear_solve(kind, 0.5, 0.5, LAMS, X0, n)) <= BOUND)
