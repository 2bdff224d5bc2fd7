"""Cyclic Jacobi eigensolver: an independent oracle for the definiteness checks.

It gives the explicit diagonalization P = B diag(lam) B^T that every
quadratic-form argument rests on, by plane rotations alone, so it shares no
code with LAPACK's ``eigvalsh`` that the library uses.
"""

import math
from dataclasses import dataclass

import numpy as np


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reduce the off-diagonal within the sweep cap."""


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
