"""Built-in demonstration systems ex5.1 to ex5.4.

Four small stable systems at nu = 0.5, a = 0, h = 1, each paired with the
stability condition that certifies it.  Each right-hand side is written once,
as expression-language source, and compiled by ``hfrac.expr.build_system``
like a definition file's, so a built-in and its definition-file round trip
evaluate bit-identically, one point at a time or in batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import build_system
from .lyapunov import PowerCondition, QuadraticCondition
from .solver import OperatorKind, SystemDef

__all__ = ["BuiltinSystem", "BUILTIN_SYSTEMS", "get_builtin"]


@dataclass(frozen=True)
class BuiltinSystem:
    key: str
    description: str
    system: SystemDef
    sources: tuple[str, ...]
    condition: QuadraticCondition | PowerCondition


def _builtin(key, description, kind, x0, sources, condition) -> BuiltinSystem:
    system = build_system(kind, 0.5, 0.0, 1.0, x0, sources)
    return BuiltinSystem(key, description, system, sources, condition)


BUILTIN_SYSTEMS: dict[str, BuiltinSystem] = {
    b.key: b
    for b in (
        _builtin(
            "ex5.1",
            "Caputo linear decay, certified by the quadratic condition "
            "with the all-ones weight matrix",
            OperatorKind.CAPUTO, (0.1, 0.2), ("-x1", "-x2"),
            QuadraticCondition(np.ones((2, 2))),
        ),
        _builtin(
            "ex5.2",
            "Riemann-Liouville coupled polynomial decay, certified by "
            "the quadratic condition with the identity weight",
            OperatorKind.RIEMANN_LIOUVILLE, (0.1, 0.2), ("-0.5*x2^16*x1", "-0.5*x1^2*x2"),
            QuadraticCondition(np.eye(2)),
        ),
        _builtin(
            "ex5.3",
            "Caputo cubic decay with one-way coupling, certified by "
            "the componentwise cubic-power condition on the nonnegative orthant",
            OperatorKind.CAPUTO, (0.4, 0.2), ("-x1^3", "-x1^2-x2"),
            PowerCondition(3),
        ),
        _builtin(
            "ex5.4",
            "Riemann-Liouville mixed polynomial system, certified by "
            "the componentwise cubic-power condition on the nonnegative orthant",
            OperatorKind.RIEMANN_LIOUVILLE, (0.4, 0.2), ("-x1-x2^3", "-x1^2"),
            PowerCondition(3),
        ),
    )
}


def get_builtin(key: str) -> BuiltinSystem:
    try:
        return BUILTIN_SYSTEMS[key]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SYSTEMS))
        raise KeyError(f"unknown built-in system {key!r}; known: {known}") from None
