"""Numerical stability certification for fractional order-nu systems.

Three layers live here:

* definiteness checks for the weight matrices, by LAPACK's symmetric
  eigenvalue routine (``np.linalg.eigvalsh``), one matrix or a stack;
* margin checkers for the operator inequalities that make Lyapunov
  candidates work, namely  p * y^(p-1)(t+nu*h) (D^nu y)(t) >= (D^nu y^p)(t)
  for every integer power p >= 2 (odd p on y >= 0 only), each for both
  operator kinds, plus the matrix-weighted quadratic form version.  Each
  formula is written once, over a block of series: one series, or all
  trials of a suite's order;
* sampled certificates for the sufficient stability conditions
  x^T P f(t,x) <= 0 (quadratic candidate) and componentwise
  x_i^(p-1) f_i(t,x) <= 0 (power candidates), evaluated over a
  deterministic low-discrepancy lattice.  A certificate is sampled
  evidence, not a proof, and the report says so.  Each condition class
  carries what depends on its family: the sampled `region` and its
  `values` at the points.

The power rule is exact, not sampled.  Write output k of either
difference as sum_j a_kj y_j, with centre c = k+1 (the point t + nu*h).
Every off-centre a_kj is <= 0, because the order-(1-nu) binomial weights
decrease, and the row sum is 0 (Caputo) or a positive weight (RL).  With
B the Bregman divergence of the convex phi = y^p, the margin is

    sum_{j != c} (-a_kj) B(y_j, y_c)  +  (sum_j a_kj) (p-1) y_c^p,

and both terms are >= 0 for even p on any series, and for odd p on y >= 0.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .operators import GridFunction, HGrid, OperatorKind
from .solver import SystemDef, Trajectory, solve

__all__ = [
    "NotPositiveDefiniteError",
    "NonnegativityError",
    "power_inequality_margins",
    "quadratic_form_margins",
    "QuadraticCondition",
    "PowerCondition",
    "LatticeSampler",
    "lattice_points",
    "CertificateReport",
    "certify_theorem",
    "DecayReport",
    "decay_report",
    "power_margin_suite",
    "quadratic_margin_suite",
    "random_spd_matrix",
]

#: Absolute slack granted to inequality verdicts; both sides of every margin
#: are O(1) sums of at most a few dozen double-precision terms.
MARGIN_SLACK = 1e-10


class NotPositiveDefiniteError(ValueError):
    """A positive definite matrix was required."""


class NonnegativityError(ValueError):
    """The odd-power inequalities require a nonnegative function."""


def _check_symmetric(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    scale = max(float(np.max(np.abs(p))), 1.0)
    if float(np.max(np.abs(p - p.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (p + p.T)


def _require_definite(p: np.ndarray) -> None:
    """Raise unless each symmetric matrix of the stack (..., d, d) is definite."""
    lam = np.linalg.eigvalsh(p)[..., 0]
    if not np.all(lam > 0.0):
        raise NotPositiveDefiniteError(
            f"matrix has a nonpositive eigenvalue ({np.min(lam):.3e})"
        )


def _check_psd(p) -> np.ndarray:
    p = _check_symmetric(p)
    lam = np.linalg.eigvalsh(p)
    scale = max(float(np.max(np.abs(lam))), 1.0)
    if lam[0] < -1e-12 * scale:
        raise NotPositiveDefiniteError(
            f"matrix has a negative eigenvalue ({lam[0]:.3e})"
        )
    return p


def _check_slack(slack: float) -> None:
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be finite and >= 0, got slack = {slack!r}")


def _check_power(power: int) -> None:
    """The one rule: any integer p >= 2 (odd p holds on y >= 0 only)."""
    if not (isinstance(power, numbers.Integral) and power >= 2):
        raise ValueError(f"power must be an integer >= 2, got {power!r}")


def _power_margins(
    grid: HGrid, y: np.ndarray, nu: float, power: int, kind: OperatorKind
) -> np.ndarray:
    """p*y^(p-1)(t+nu*h)(D y)(t) - (D y^p)(t) for each column of the (n, B)
    block `y`, from one operator call on the columns [y, y^p]; (n-1, B)."""
    b = y.shape[1]
    values = np.hstack([y, y**power])
    d = kind.difference(GridFunction(grid, values), nu).values
    return power * y[1:] ** (power - 1) * d[:, :b] - d[:, b:]


def _quadratic_margins(grid: HGrid, blocks, nu: float, kind: OperatorKind) -> list:
    """y^T(t+nu*h) P (D y)(t) - (1/2)(D y^T P y)(t) for every block (y, P) of
    stacked series y (B, n, d) and weights P (B, d, d).

    One operator call takes every block's columns, its B*d components
    followed by its B values y^T P y; one (B, n-1) array per block.
    """
    n = grid.n_points
    columns = []
    for y, p in blocks:
        columns.append(y.transpose(1, 0, 2).reshape(n, -1))
        columns.append(np.einsum("bki,bij,bkj->bk", y, p, y).T)
    d = kind.difference(GridFunction(grid, np.hstack(columns)), nu).values
    margins, start = [], 0
    for y, p in blocks:
        b, _, dim = y.shape
        dy = d[:, start : start + b * dim].reshape(n - 1, b, dim).transpose(1, 0, 2)
        dq = d[:, start + b * dim : start + b * (dim + 1)].T
        start += b * (dim + 1)
        # Laid out as for one series, so that einsum sums in the same order.
        dy = np.ascontiguousarray(dy)
        margins.append(np.einsum("bki,bij,bkj->bk", y[:, 1:], p, dy) - 0.5 * dq)
    return margins


def power_inequality_margins(
    y: GridFunction, nu: float, power: int, kind: OperatorKind
) -> np.ndarray:
    """Margins p*y^(p-1)(t+nu*h)(D y)(t) - (D y^p)(t) at every grid point.

    Nonnegative entries confirm the inequality.  Any integer p >= 2 is
    accepted; odd powers require y >= 0 everywhere, and the hypothesis is
    essential, so violations raise instead of being clamped.
    """
    if y.dim != 1:
        raise ValueError("power inequalities are scalar statements")
    _check_power(power)
    if power % 2 and float(np.min(y.values)) < 0.0:
        raise NonnegativityError(f"power {power} requires a nonnegative function")
    return _power_margins(y.grid, y.values, nu, power, kind)[:, 0]


def quadratic_form_margins(
    y: GridFunction, p, nu: float, kind: OperatorKind
) -> np.ndarray:
    """Margins y^T(t+nu*h) P (D y)(t) - (1/2)(D y^T P y)(t) for SPD P."""
    p = _check_symmetric(p)
    _require_definite(p)
    if y.dim != p.shape[0]:
        raise ValueError(
            f"function dimension {y.dim} does not match matrix dimension {p.shape[0]}"
        )
    return _quadratic_margins(y.grid, [(y.values[None], p[None])], nu, kind)[0][0]


# ---------------------------------------------------------------------------
# Randomized margin suites (shared by the CLI `props` command and the tests).
# Each evaluates all trials of one order in one operator call.  The worst
# margin is a NaN as soon as one margin is: np.min propagates it, where
# Python's min() would skip it.

DEFAULT_NU_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def power_margin_suite(
    kind: OperatorKind,
    power: int,
    *,
    nu_values=DEFAULT_NU_GRID,
    trials: int = 200,
    n_points: int = 24,
    rng=None,
) -> float:
    """Worst margin of the power inequality over randomized functions."""
    _check_power(power)
    rng = np.random.default_rng(0) if rng is None else rng
    low = 0.0 if power % 2 else -1.0
    grid = HGrid(0.0, 1.0, n_points)
    worst = math.inf
    for nu in nu_values:
        # One row per trial, the numbers of one draw per trial; C-ordered so
        # that the pow loops see contiguous data, as for one series.
        y = np.ascontiguousarray(rng.uniform(low, 1.0, size=(trials, n_points)).T)
        worst = float(np.min(_power_margins(grid, y, nu, power, kind), initial=worst))
    return worst


#: Largest condition number of the random SPD weights.
_COND_MAX = 1e3


def _spd_draws(dim: int, rng) -> tuple:
    """Draws for one random SPD matrix: a normal matrix, then log10-eigenvalues."""
    span = 0.5 * math.log10(_COND_MAX)
    return rng.normal(size=(dim, dim)), rng.uniform(-span, span, size=dim)


def _spd_matrices(normals: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """P = Q diag(10^exponents) Q^T, Q from the QR factorization of the
    normal matrix, for one draw of :func:`_spd_draws` or a stack of them."""
    q, _ = np.linalg.qr(normals)
    eig = 10.0**exponents
    p = q @ (eig[..., None] * np.eye(eig.shape[-1])) @ np.swapaxes(q, -1, -2)
    return 0.5 * (p + np.swapaxes(p, -1, -2))


def random_spd_matrix(dim: int, rng) -> np.ndarray:
    """Random SPD matrix with condition number at most 1e3."""
    return _spd_matrices(*_spd_draws(dim, rng))


# The quadratic suite stacks the trials of as many orders as fit into this
# many trials (at least one order): with few trials the orders still share a
# QR and eigvalsh call per dimension (one order at a time, `props --trials 3`
# scored benchmark work_per_ref 58 instead of 74), and memory stays O(trials).
_SUITE_TRIALS = 2048


def quadratic_margin_suite(
    kind: OperatorKind,
    *,
    dims=(2, 3, 4),
    nu_values=DEFAULT_NU_GRID,
    trials: int = 200,
    n_points: int = 24,
    rng=None,
) -> float:
    """Worst margin / max|P| of the quadratic form inequality, randomized.

    Trial k of each order has dimension dims[k % len(dims)] and draws P, then
    y, trial by trial; the arithmetic runs per chunk of orders and dimension.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = HGrid(0.0, 1.0, n_points)
    orders, worst = iter(nu_values), math.inf
    while chunk := tuple(itertools.islice(orders, max(1, _SUITE_TRIALS // max(trials, 1)))):
        draws = {}
        for _ in chunk:
            for k in range(trials):
                dim = dims[k % len(dims)]
                normal, exponents = _spd_draws(dim, rng)
                y = rng.uniform(-1.0, 1.0, size=(n_points, dim))
                draws.setdefault(dim, []).append((normal, exponents, y))
        stacks = []
        for dim, group in draws.items():
            normals, exponents, y = (np.stack(a) for a in zip(*group))
            p = _spd_matrices(normals, exponents)
            _require_definite(p)
            # Every order has the same trials, so axis 0 can index the order.
            stacks.append((y.reshape(len(chunk), -1, n_points, dim),
                           p.reshape(len(chunk), -1, dim, dim)))
        if not stacks:
            continue
        for i, nu in enumerate(chunk):
            blocks = [(y[i], p[i]) for y, p in stacks]
            for (_, p), margins in zip(blocks, _quadratic_margins(grid, blocks, nu, kind)):
                scaled = np.min(margins, axis=1) / np.max(np.abs(p), axis=(1, 2))
                worst = float(np.min(scaled, initial=worst))
    return worst


# ---------------------------------------------------------------------------
# Sampled theorem certificates.


@dataclass(frozen=True)
class QuadraticCondition:
    """Sufficient condition x^T P f(t, x) <= 0 with symmetric PSD weight P.

    A semidefinite weight still defines a meaningful sampled condition;
    strict definiteness is required only by the operator inequality margin
    checkers, where it is part of the hypothesis.
    """

    matrix: np.ndarray
    region = "box"
    ident = "quadratic"

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_psd(self.matrix))

    def values(self, points: np.ndarray, f: np.ndarray) -> np.ndarray:
        """x^T P f at each point (rows of `points`, rhs values `f`)."""
        if self.matrix.shape[0] != points.shape[1]:
            raise ValueError("condition matrix dimension does not match the system")
        # Stacked 1xd @ dxd @ dx1: bitwise the per-point x @ (P @ f).
        return np.matmul(points[:, None, :], np.matmul(self.matrix, f[:, :, None]))[:, 0, 0]


@dataclass(frozen=True)
class PowerCondition:
    """Componentwise condition x_i^(p-1) f_i(t, x) <= 0, for any integer p >= 3.

    It rests on the power inequality, which holds for every integer p >= 2
    by the Bregman identity of the module docstring: for even p on any
    series, for odd p on y >= 0.  So odd p samples the nonnegative orthant,
    even p the full box.  (p = 2 is the quadratic condition with P = I.)
    """

    power: int

    def __post_init__(self):
        _check_power(self.power)
        if self.power == 2:
            raise ValueError("power 2 is the quadratic condition; use that form")

    @property
    def region(self) -> str:
        return "orthant" if self.power % 2 else "box"

    @property
    def ident(self) -> str:
        return f"power-{self.power}"

    def values(self, points: np.ndarray, f: np.ndarray) -> np.ndarray:
        """max_i x_i^(p-1) f_i at each point (rows of `points`, rhs values `f`)."""
        return np.max(points ** (self.power - 1) * f, axis=1)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def lattice_points(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^dim.

    An additive lattice u_k = frac(k * sqrt(prime) + shift) per coordinate;
    the shift derives from the seed, so certificates are reproducible.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"lattice supports at most {len(_PRIMES)} dimensions")
    alpha = np.sqrt(np.array(_PRIMES[:dim], dtype=float))
    alpha -= np.floor(alpha)
    shift = np.random.default_rng(seed).random(dim)
    k = np.arange(1, count + 1, dtype=float)[:, None]
    u = k * alpha[None, :] + shift[None, :]
    return u - np.floor(u)


@dataclass(frozen=True)
class LatticeSampler:
    """Sampling plan for certificates: a box around the origin plus a time grid."""

    count: int = 10_000
    seed: int = 0
    radius: float = 1.0
    time_points: int = 8

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"need at least one sample, got {self.count}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")
        if self.time_points < 1:
            raise ValueError(f"need at least one time point, got {self.time_points}")


@dataclass
class CertificateReport:
    """Outcome of a sampled sufficient-condition check.

    `worst_margin` is the largest condition value seen (<= 0 required);
    verdicts are `stable-certified`, `asymptotically-stable-certified`, or
    `inconclusive`.  The check is sampled and explicitly non-exhaustive.
    """

    condition_id: str
    sample_count: int
    worst_margin: float
    worst_point: np.ndarray
    verdict: str
    slack: float
    note: str
    points: np.ndarray = field(repr=False)
    margins: np.ndarray = field(repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict.endswith("certified")

    def to_text(self) -> str:
        lines = [
            f"condition={self.condition_id}",
            f"samples={self.sample_count}",
            f"worst_margin={self.worst_margin:.17g}",
            "worst_point=" + ",".join(f"{v:.17g}" for v in self.worst_point),
            f"verdict={self.verdict}",
            f"slack={self.slack:.17g}",
            f"note={self.note}",
        ]
        return "\n".join(lines) + "\n"

    def write_margins_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            dim = self.points.shape[1]
            writer.writerow([f"x{i + 1}" for i in range(dim)] + ["margin"])
            for point, margin in zip(self.points, self.margins):
                writer.writerow(
                    [f"{v:.17g}" for v in point] + [f"{margin:.17g}"]
                )


def _condition_values(sys: SystemDef, condition, points: np.ndarray, times) -> np.ndarray:
    """The condition value at each point, maximised over `times` as Python's
    max() would, except that a NaN at any time stays NaN; one batch rhs call
    per time."""
    values = None
    for t in times:
        try:
            f = sys.eval_rhs_batch(t, points)
        except ArithmeticError as err:  # overflow or division by zero in the rhs
            raise _sampling_error(sys, t, points, err) from err
        v = condition.values(points, f)
        values = v if values is None else np.where((v > values) | np.isnan(v), v, values)
    return values


def _sampling_error(sys: SystemDef, t, points: np.ndarray, err: ArithmeticError) -> ValueError:
    """A ValueError naming the first point whose own evaluation at `t` raises
    (`err` came from a call over all of `points`)."""
    for point in points:
        try:
            sys.eval_rhs(t, point)
        except ArithmeticError as one:
            err, where = one, f"sample point {point.tolist()}"
            break
    else:
        where = "a sample point"
    return ValueError(f"rhs raised {type(err).__name__}: {err} at {where} (t = {t!r})")


#: Length of the trajectory that confirms an asymptotic verdict.
_CONFIRM_STEPS = 256


def certify_theorem(
    sys: SystemDef,
    condition,
    sampler: LatticeSampler | None = None,
    *,
    slack: float = MARGIN_SLACK,
) -> CertificateReport:
    """Sample the sufficient stability condition around the origin.

    The condition value must be <= 0 (within `slack`) at every sample for
    the stable verdict.  The asymptotic verdict additionally requires strict
    negativity at every nonzero sample and a confirming trajectory whose
    final norm drops below 1e-2 of the initial norm after _CONFIRM_STEPS
    steps.  The condition says where to sample (its `region`) and what to
    score there (its `values`).
    """
    _check_slack(slack)
    sampler = LatticeSampler() if sampler is None else sampler
    unit = lattice_points(sys.dim, sampler.count, sampler.seed)
    region = condition.region
    points = sampler.radius * (unit if region == "orthant" else 2.0 * unit - 1.0)
    n_times = sampler.time_points if sys.time_dependent else 1
    times = [sys.shifted_time(s) for s in range(n_times)]

    margins = _condition_values(sys, condition, points, times)
    # A non-finite value is a violation (NaN compares false with any slack);
    # the worst point is then the first such sample.
    finite = np.isfinite(margins)
    worst_idx = int(np.argmin(finite) if not finite.all() else np.argmax(margins))
    worst = float(margins[worst_idx])

    condition_id = f"{sys.kind.value}-{condition.ident}"
    note = (
        f"sampled evidence over {region} of radius {sampler.radius} "
        f"({sampler.count} lattice points, seed {sampler.seed}); not exhaustive"
    )

    if not finite.all() or worst > slack:
        verdict = "inconclusive"
    else:
        verdict = "stable-certified"
        nonzero = np.linalg.norm(points, axis=1) > 0.0
        if np.all(margins[nonzero] < -slack) and np.any(nonzero):
            traj = solve(sys, _CONFIRM_STEPS)
            x0n = float(np.linalg.norm(traj.state(0)))
            xfn = float(np.linalg.norm(traj.state(_CONFIRM_STEPS)))
            if x0n > 0.0 and xfn < 1e-2 * x0n:
                verdict = "asymptotically-stable-certified"

    return CertificateReport(
        condition_id=condition_id,
        sample_count=sampler.count,
        worst_margin=worst,
        worst_point=points[worst_idx].copy(),
        verdict=verdict,
        slack=slack,
        note=note,
        points=points,
        margins=margins,
    )


@dataclass(frozen=True)
class DecayReport:
    """Empirical decay summary of a trajectory under V = (1/2) x^T P x."""

    sup_norm: float
    initial_norm: float
    final_norm: float
    v_values: np.ndarray
    v_ratios: np.ndarray
    v_monotone: bool

    def summary(self) -> str:
        return (
            f"sup|x|={self.sup_norm:.6g}  |x(0)|={self.initial_norm:.6g}  "
            f"|x(end)|={self.final_norm:.6g}  V<=V(0): {self.v_monotone}"
        )


def decay_report(traj: Trajectory, p=None, *, slack: float = MARGIN_SLACK) -> DecayReport:
    """Norm and Lyapunov-value history of a solved trajectory (P defaults to I)."""
    _check_slack(slack)
    states = traj.states.values
    if p is None:
        p = np.eye(states.shape[1])
    else:
        p = _check_psd(p)
    norms = np.linalg.norm(states, axis=1)
    v = 0.5 * np.einsum("ki,ij,kj->k", states, p, states)
    v0 = float(v[0])
    ratios = v / v0 if v0 > 0.0 else np.zeros_like(v)
    return DecayReport(
        sup_norm=float(np.max(norms)),
        initial_norm=float(norms[0]),
        final_norm=float(norms[-1]),
        v_values=v,
        v_ratios=ratios,
        v_monotone=bool(np.all(v <= v0 + slack)),
    )
