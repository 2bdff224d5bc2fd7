"""Numerical stability certification for fractional order-nu systems.

Three layers live here, plus a cross-check:

* definiteness checks for the weight matrices, by LAPACK's symmetric
  eigenvalue routine (``np.linalg.eigvalsh``);
* margin checkers for the operator inequalities that make Lyapunov
  candidates work, namely  p * y^(p-1)(t+nu*h) (D^nu y)(t) >= (D^nu y^p)(t)
  for the quadratic (p=2), odd-power (p = 3, 5, ..., with y >= 0) and
  dyadic-power (p = 2^m) families, each for both operator kinds, plus the
  matrix-weighted quadratic form version;
* sampled certificates for the sufficient stability conditions
  x^T P f(t,x) <= 0 (quadratic candidate) and componentwise
  x_i^(p-1) f_i(t,x) <= 0 (power candidates), evaluated over a
  deterministic low-discrepancy lattice.  A certificate is sampled
  evidence, not a proof, and the report says so.

The cyclic Jacobi eigensolver (``jacobi_diagonalize``) gives the explicit
diagonalization P = B diag(lam) B^T that every quadratic-form argument rests
on.  It is public as an independent oracle for tests; no function here
calls it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import GridFunction, caputo_difference, rl_difference
from .solver import OperatorKind, SystemDef, Trajectory, solve

__all__ = [
    "JacobiConvergenceError",
    "NotPositiveDefiniteError",
    "NonnegativityError",
    "EigenDecomposition",
    "jacobi_diagonalize",
    "power_inequality_margin",
    "power_inequality_margins",
    "quadratic_form_margin",
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


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reduce the off-diagonal within the sweep cap."""


class NotPositiveDefiniteError(ValueError):
    """A positive definite matrix was required."""


class NonnegativityError(ValueError):
    """The odd-power inequalities require a nonnegative function."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Orthogonal B and eigenvalues lam with P = B diag(lam) B^T."""

    rotation: np.ndarray
    eigenvalues: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.rotation @ np.diag(self.eigenvalues) @ self.rotation.T


def _check_symmetric(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    scale = max(float(np.max(np.abs(p))), 1.0)
    if float(np.max(np.abs(p - p.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (p + p.T)


def jacobi_diagonalize(
    p, *, rel_tol: float = 1e-12, max_sweeps: int = 100
) -> EigenDecomposition:
    """Diagonalize a real symmetric matrix by cyclic Jacobi rotations.

    Rotations are applied pairwise until every off-diagonal entry is at most
    rel_tol times the largest absolute entry of the input.
    """
    a = _check_symmetric(p)
    n = a.shape[0]
    b = np.eye(n)
    norm = float(np.max(np.abs(a)))
    thresh = rel_tol * norm
    if n == 1 or norm == 0.0:
        return EigenDecomposition(b, np.diag(a).copy())
    for _ in range(max_sweeps):
        off = float(np.max(np.abs(a - np.diag(np.diag(a)))))
        if off <= thresh:
            return EigenDecomposition(b, np.diag(a).copy())
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = a[i, j]
                if abs(aij) <= thresh:
                    continue
                theta = (a[j, j] - a[i, i]) / (2.0 * aij)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.hypot(theta, 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_i = c * a[:, i] - s * a[:, j]
                rot_j = s * a[:, i] + c * a[:, j]
                a[:, i], a[:, j] = rot_i, rot_j
                rot_i = c * a[i, :] - s * a[j, :]
                rot_j = s * a[i, :] + c * a[j, :]
                a[i, :], a[j, :] = rot_i, rot_j
                a[i, j] = a[j, i] = 0.0
                rot_i = c * b[:, i] - s * b[:, j]
                rot_j = s * b[:, i] + c * b[:, j]
                b[:, i], b[:, j] = rot_i, rot_j
    raise JacobiConvergenceError(f"no convergence after {max_sweeps} sweeps")


def _check_spd(p) -> np.ndarray:
    p = _check_symmetric(p)
    lam = np.linalg.eigvalsh(p)
    if lam[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix has a nonpositive eigenvalue ({lam[0]:.3e})"
        )
    return p


def _check_psd(p) -> np.ndarray:
    p = _check_symmetric(p)
    lam = np.linalg.eigvalsh(p)
    scale = max(float(np.max(np.abs(lam))), 1.0)
    if lam[0] < -1e-12 * scale:
        raise NotPositiveDefiniteError(
            f"matrix has a negative eigenvalue ({lam[0]:.3e})"
        )
    return p


def _difference_op(kind: OperatorKind):
    return caputo_difference if kind is OperatorKind.CAPUTO else rl_difference


def _check_power(power: int) -> None:
    if power == 2:
        return
    if power >= 3 and power % 2 == 1:
        return
    if power >= 2 and power & (power - 1) == 0:
        return
    raise ValueError(
        f"power must be 2, an odd integer >= 3, or a power of two, got {power}"
    )


def _power_needs_nonneg(power: int) -> bool:
    return power >= 3 and power % 2 == 1


def power_inequality_margins(
    y: GridFunction, nu: float, power: int, kind: OperatorKind
) -> np.ndarray:
    """Margins p*y^(p-1)(t+nu*h)(D y)(t) - (D y^p)(t) at every grid point.

    Nonnegative entries confirm the inequality.  Odd powers require
    y >= 0 everywhere; the hypothesis is essential, so violations raise
    instead of being clamped.
    """
    if y.dim != 1:
        raise ValueError("power inequalities are scalar statements")
    _check_power(power)
    if _power_needs_nonneg(power) and float(np.min(y.values)) < 0.0:
        raise NonnegativityError(
            f"power {power} requires a nonnegative function"
        )
    op = _difference_op(kind)
    dy = op(y, nu)
    dyp = op(y.map_values(lambda v: v**power), nu)
    yk = y.values[1:, 0]
    return power * yk ** (power - 1) * dy.values[:, 0] - dyp.values[:, 0]


def power_inequality_margin(
    y: GridFunction, nu: float, power: int, kind: OperatorKind, t_index: int
) -> float:
    """Single-point version of :func:`power_inequality_margins`."""
    margins = power_inequality_margins(y, nu, power, kind)
    if not 0 <= t_index < len(margins):
        raise IndexError(f"t_index {t_index} out of range 0..{len(margins) - 1}")
    return float(margins[t_index])


def quadratic_form_margins(
    y: GridFunction, p, nu: float, kind: OperatorKind
) -> np.ndarray:
    """Margins y^T(t+nu*h) P (D y)(t) - (1/2)(D y^T P y)(t) for SPD P."""
    p = _check_spd(p)
    if y.dim != p.shape[0]:
        raise ValueError(
            f"function dimension {y.dim} does not match matrix dimension {p.shape[0]}"
        )
    op = _difference_op(kind)
    dy = op(y, nu)
    quad = GridFunction(y.grid, np.einsum("ki,ij,kj->k", y.values, p, y.values))
    dq = op(quad, nu)
    yk = y.values[1:]
    return np.einsum("ki,ij,kj->k", yk, p, dy.values) - 0.5 * dq.values[:, 0]


def quadratic_form_margin(
    y: GridFunction, p, nu: float, kind: OperatorKind, t_index: int
) -> float:
    """Single-point version of :func:`quadratic_form_margins`."""
    margins = quadratic_form_margins(y, p, nu, kind)
    if not 0 <= t_index < len(margins):
        raise IndexError(f"t_index {t_index} out of range 0..{len(margins) - 1}")
    return float(margins[t_index])


# ---------------------------------------------------------------------------
# Randomized margin suites (shared by the CLI `props` command and the tests).

DEFAULT_NU_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _random_scalar_function(rng, n_points: int, low: float, high: float) -> GridFunction:
    from .operators import HGrid

    grid = HGrid(0.0, 1.0, n_points)
    return GridFunction(grid, rng.uniform(low, high, size=n_points))


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
    rng = np.random.default_rng(0) if rng is None else rng
    low = 0.0 if _power_needs_nonneg(power) else -1.0
    worst = math.inf
    for nu in nu_values:
        for _ in range(trials):
            y = _random_scalar_function(rng, n_points, low, 1.0)
            margins = power_inequality_margins(y, nu, power, kind)
            worst = min(worst, float(np.min(margins)))
    return worst


def random_spd_matrix(dim: int, rng, cond_max: float = 1e3) -> np.ndarray:
    """Random SPD matrix with condition number at most cond_max."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    span = 0.5 * math.log10(cond_max)
    eig = 10.0 ** rng.uniform(-span, span, size=dim)
    p = q @ np.diag(eig) @ q.T
    return 0.5 * (p + p.T)


def quadratic_margin_suite(
    kind: OperatorKind,
    *,
    dims=(2, 3, 4),
    nu_values=DEFAULT_NU_GRID,
    trials: int = 200,
    n_points: int = 24,
    rng=None,
) -> float:
    """Worst margin / max|P| of the quadratic form inequality, randomized."""
    from .operators import HGrid

    rng = np.random.default_rng(0) if rng is None else rng
    worst = math.inf
    for nu in nu_values:
        for k in range(trials):
            dim = dims[k % len(dims)]
            p = random_spd_matrix(dim, rng)
            grid = HGrid(0.0, 1.0, n_points)
            y = GridFunction(grid, rng.uniform(-1.0, 1.0, size=(n_points, dim)))
            margins = quadratic_form_margins(y, p, nu, kind)
            worst = min(worst, float(np.min(margins)) / float(np.max(np.abs(p))))
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

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_psd(self.matrix))

    @property
    def ident(self) -> str:
        return "quadratic"


@dataclass(frozen=True)
class PowerCondition:
    """Componentwise condition x_i^(p-1) f_i(t, x) <= 0.

    Odd p restricts sampling to the nonnegative orthant (the hypothesis of
    the odd-power inequality); dyadic p samples the full box.
    """

    power: int

    def __post_init__(self):
        _check_power(self.power)
        if self.power == 2:
            raise ValueError("power 2 is the quadratic condition; use that form")

    @property
    def orthant_only(self) -> bool:
        return _power_needs_nonneg(self.power)

    @property
    def ident(self) -> str:
        return f"power-{self.power}"


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
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")


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


def _condition_values(
    sys: SystemDef, condition, points: np.ndarray, times
) -> np.ndarray:
    values = np.full(len(points), -math.inf)
    if isinstance(condition, QuadraticCondition):
        p = condition.matrix
        for i, x in enumerate(points):
            values[i] = max(float(x @ (p @ sys.eval_rhs(t, x))) for t in times)
    elif isinstance(condition, PowerCondition):
        e = condition.power - 1
        for i, x in enumerate(points):
            values[i] = max(
                float(np.max(x**e * sys.eval_rhs(t, x))) for t in times
            )
    else:
        raise TypeError(f"unsupported condition {condition!r}")
    return values


def certify_theorem(
    sys: SystemDef,
    condition,
    sampler: LatticeSampler | None = None,
    *,
    slack: float = MARGIN_SLACK,
    confirm_steps: int = 256,
) -> CertificateReport:
    """Sample the sufficient stability condition over a box around the origin.

    The condition value must be <= 0 (within `slack`) at every sample for
    the stable verdict.  The asymptotic verdict additionally requires strict
    negativity at every nonzero sample and a confirming trajectory whose
    final norm drops below 1e-2 of the initial norm.
    """
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be finite and >= 0, got slack = {slack!r}")
    sampler = LatticeSampler() if sampler is None else sampler
    if isinstance(condition, QuadraticCondition) and condition.matrix.shape[0] != sys.dim:
        raise ValueError("condition matrix dimension does not match the system")
    unit = lattice_points(sys.dim, sampler.count, sampler.seed)
    if isinstance(condition, PowerCondition) and condition.orthant_only:
        points = sampler.radius * unit
        region = "orthant"
    else:
        points = sampler.radius * (2.0 * unit - 1.0)
        region = "box"
    n_times = sampler.time_points if sys.time_dependent else 1
    times = [sys.shifted_time(s) for s in range(n_times)]

    margins = _condition_values(sys, condition, points, times)
    worst_idx = int(np.argmax(margins))
    worst = float(margins[worst_idx])

    condition_id = f"{sys.kind.value}-{condition.ident}"
    note = (
        f"sampled evidence over {region} of radius {sampler.radius} "
        f"({sampler.count} lattice points, seed {sampler.seed}); not exhaustive"
    )

    if worst > slack:
        verdict = "inconclusive"
    else:
        verdict = "stable-certified"
        nonzero = np.linalg.norm(points, axis=1) > 0.0
        if np.all(margins[nonzero] < -slack) and np.any(nonzero):
            traj = solve(sys, confirm_steps)
            x0n = float(np.linalg.norm(traj.state(0)))
            xfn = float(np.linalg.norm(traj.state(confirm_steps)))
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
