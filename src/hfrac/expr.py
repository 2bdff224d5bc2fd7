"""Tiny arithmetic expression language for right-hand sides f(t, x).

Grammar (recursive descent, standard precedence):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?          # right associative
    atom    := NUMBER | "t" | "x<K>" | "(" expr ")"

Exponents must fold to nonnegative integer constants (so `2^3^2` is fine
and equals 512, while `x1^x2` or `x1^-2` are rejected); this keeps powers of
negative bases well defined.  Function calls are deliberately absent.

A system definition file is plain text:

    kind=caputo            # or rl
    nu=0.5
    h=1
    a=0
    x0=0.1,0.2
    f1=-x1
    f2=-x2
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .operators import OperatorKind
from .solver import SystemDef

__all__ = [
    "ExprSyntaxError",
    "ExprEvalError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Expr",
    "parse",
    "evaluate",
    "to_source",
    "uses_time",
    "compile_rhs",
    "build_system",
    "parse_system_source",
    "load_system_file",
]

MAX_DEPTH = 64


class ExprSyntaxError(ValueError):
    """Parse failure; `offset` is the byte position in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ArithmeticError):
    """Evaluation failure (division by zero)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "x1".."xn"
    index: int | None  # 0-based component index, None for t


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Num, Var, Neg, BinOp, Pow]

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        tree = self.expr(0)
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r}", pos)
        return tree

    def _deeper(self, depth: int) -> int:
        if depth >= MAX_DEPTH:
            raise ExprSyntaxError("expression nests too deeply", self.peek()[2])
        return depth + 1

    def expr(self, depth: int) -> Expr:
        depth = self._deeper(depth)
        node = self.term(depth)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term(depth))
            else:
                return node

    def term(self, depth: int) -> Expr:
        depth = self._deeper(depth)
        node = self.factor(depth)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor(depth))
            else:
                return node

    def factor(self, depth: int) -> Expr:
        depth = self._deeper(depth)
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor(depth))
        return self.power(depth)

    def power(self, depth: int) -> Expr:
        depth = self._deeper(depth)
        base = self.atom(depth)
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent_expr = self.factor(depth)
            exponent = _fold_exponent(exponent_expr, pos)
            return Pow(base, exponent)
        return base

    def atom(self, depth: int) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if value == "t":
                return Var("t", None)
            m = re.fullmatch(r"x(\d+)", value)
            if m is None:
                raise ExprSyntaxError(f"unknown variable {value!r}", pos)
            index = int(m.group(1))
            if not 1 <= index <= self.dim:
                raise ExprSyntaxError(
                    f"unknown variable {value!r} (dimension is {self.dim})", pos
                )
            return Var(value, index - 1)
        if kind == "op" and value == "(":
            node = self.expr(depth)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, got {value or 'end of input'!r}", pos)


def _fold_exponent(e: Expr, pos: int) -> int:
    """Reduce an exponent subtree to a nonnegative integer constant."""
    if isinstance(e, Num):
        value = e.value
    elif isinstance(e, Pow):
        try:
            value = float(_fold_exponent(e.base, pos)) ** e.exponent
        except OverflowError:
            raise ExprSyntaxError("exponent is too large", pos) from None
    elif isinstance(e, Neg):
        value = -float(_fold_exponent(e.operand, pos))
    else:
        raise ExprSyntaxError("exponent must be an integer constant", pos)
    if not math.isfinite(value) or value != int(value) or value < 0:
        raise ExprSyntaxError(
            f"exponent must be a nonnegative integer, got {value!r}", pos
        )
    return int(value)


def parse(src: str, dim: int) -> Expr:
    """Parse an expression over t, x1..x<dim>; raises :class:`ExprSyntaxError`."""
    if not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return _Parser(src, dim).parse()


def evaluate(e: Expr, t: float, x) -> float:
    """Evaluate over reals; division by zero raises :class:`ExprEvalError`."""
    x = np.asarray(x, dtype=float)
    return _eval(e, t, x)


def _eval(e: Expr, t: float, x: np.ndarray) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t if e.index is None else float(x[e.index])
    if isinstance(e, Neg):
        return -_eval(e.operand, t, x)
    if isinstance(e, Pow):
        return _eval(e.base, t, x) ** e.exponent
    if isinstance(e, BinOp):
        left = _eval(e.left, t, x)
        right = _eval(e.right, t, x)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        return _div(left, right)
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expr) -> str:
    """Print an expression; reparsing a tree that :func:`parse` built yields a
    structurally identical tree."""
    if isinstance(e, Num):
        return "1e999" if e.value == math.inf else repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_source(e.operand)})"
    if isinstance(e, Pow):
        return f"({to_source(e.base)}^{e.exponent})"
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    raise TypeError(f"not an expression node: {e!r}")


def uses_time(e: Expr) -> bool:
    if isinstance(e, Var):
        return e.index is None
    if isinstance(e, Neg):
        return uses_time(e.operand)
    if isinstance(e, Pow):
        return uses_time(e.base)
    if isinstance(e, BinOp):
        return uses_time(e.left) or uses_time(e.right)
    return False


def _div(left: float, right: float) -> float:
    if right == 0.0:
        raise ExprEvalError("division by zero")
    return left / right


def _div_batch(left, right):
    if np.any(right == 0.0):
        raise ExprEvalError("division by zero")
    return left / right


def _pow_batch(base, exponent: float):
    # np.float_power is libm pow, as Python's float ** int; numpy's array
    # ** takes a SIMD route that differs in the last bit for some values.
    out = np.float_power(base, exponent)
    inf = np.isinf(out)
    if np.any(inf) and np.any(inf & np.isfinite(base)):
        raise OverflowError("numerical result out of range")  # as float ** int
    return out


class _Emitter:
    """Straight-line code for expressions over t and x0..x<n-1>.

    One assignment per operation node, so no expression nests, in the order
    `_eval` performs the operations.  The text holds only float and int
    literals, the names t, x<i> and v<k>, fixed operator tokens and the
    helper names: nothing is copied from the definition source.
    """

    _OPS = {"+": "+", "-": "-", "*": "*"}  # only these tokens reach the text

    def __init__(self, batch: bool):
        self.batch = batch
        self.lines: list[str] = []

    def _assign(self, text: str) -> str:
        name = f"v{len(self.lines)}"
        self.lines.append(f"    {name} = {text}")
        return name

    def value(self, e: Expr) -> str:
        if isinstance(e, Num):
            v = float(e.value)
            if not math.isfinite(v):
                return f"float({repr(v)!r})"
            return f"({v!r})" if math.copysign(1.0, v) < 0.0 else repr(v)
        if isinstance(e, Var):
            return "t" if e.index is None else f"x{operator.index(e.index)}"
        if isinstance(e, Neg):
            return self._assign(f"-{self.value(e.operand)}")
        if isinstance(e, Pow):
            base, k = self.value(e.base), operator.index(e.exponent)
            if self.batch:
                return self._assign(f"_pow({base}, {float(k)!r})")
            return self._assign(f"{base} ** {k!r}")
        if isinstance(e, BinOp):
            left, right = self.value(e.left), self.value(e.right)
            if e.op == "/":
                return self._assign(f"_div({left}, {right})")
            return self._assign(f"{left} {self._OPS[e.op]} {right}")
        raise TypeError(f"not an expression node: {e!r}")


def _generate(exprs: tuple[Expr, ...], dim: int, batch: bool):
    em = _Emitter(batch)
    outs = [em.value(e) for e in exprs]
    names = "".join(f"x{i}, " for i in range(operator.index(dim)))
    if batch:
        head = ["def f(t, x):", f"    {names}= x.T.copy()"]
        tail = [f"    out = np.empty((x.shape[0], {len(exprs)}))"]
        tail += [f"    out[:, {i}] = {v}" for i, v in enumerate(outs)]
        tail.append("    return out")
    else:
        head = ["def f(t, x):", f"    {names}= x"]
        tail = [f"    return [{', '.join(outs)}]"]
    namespace = {"np": np, "_div": _div_batch if batch else _div, "_pow": _pow_batch}
    exec(compile("\n".join(head + em.lines + tail) + "\n", "<hfrac.expr>", "exec"), namespace)
    return namespace["f"]


def compile_rhs(exprs: tuple[Expr, ...], dim: int):
    """Compile f = (exprs) over t and x1..x<dim> once into generated code.

    Returns the scalar form rhs(t, x) -> (len(exprs),), which performs the
    same IEEE operations in the same order as :func:`evaluate` and so agrees
    with it bit for bit.  It is a thin wrapper around the generated
    attribute ``floats(t, xs)``, which maps a list of `dim` Python floats to
    a list of len(exprs) floats with no numpy call (the solver's step runs
    on it).  The attribute ``batch(t, points)`` maps points (B, dim) to
    (B, len(exprs)), with `t` one time or one per point.  All three forms
    agree bit for bit, and raise the same errors on a zero denominator
    (:class:`ExprEvalError`) or an overflowing power (``OverflowError``).
    """
    exprs = tuple(exprs)
    floats = _generate(exprs, dim, batch=False)
    batch = _generate(exprs, dim, batch=True)

    def rhs(t, x) -> np.ndarray:
        return np.array(floats(t, np.asarray(x, dtype=float).tolist()))

    def rhs_batch(t, points) -> np.ndarray:
        with np.errstate(all="ignore"):  # the scalar form's float ops warn of nothing
            return batch(t, np.asarray(points, dtype=float))

    rhs.floats = floats
    rhs.batch = rhs_batch
    return rhs


def build_system(kind: OperatorKind, nu: float, a: float, h: float, x0,
                 sources) -> SystemDef:
    """A system whose f_i are expression sources over t and x1..x<len(x0)>."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    exprs = tuple(parse(src, len(x0)) for src in sources)
    return SystemDef(
        dim=len(x0),
        kind=kind,
        nu=nu,
        a=a,
        h=h,
        x0=x0,
        rhs=compile_rhs(exprs, len(x0)),
        time_dependent=any(uses_time(e) for e in exprs),
    )


def parse_system_source(text: str) -> tuple[SystemDef, tuple[str, ...]]:
    """Build a system from definition text; returns it with the f_i sources."""
    headers: dict[str, str] = {}
    components: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        m = re.fullmatch(r"f(\d+)", key)
        if m:
            components[int(m.group(1))] = value
        else:
            headers[key.lower()] = value

    for required in ("kind", "nu", "h", "a", "x0"):
        if required not in headers:
            raise ValueError(f"missing header line {required}=")
    kind = OperatorKind(headers["kind"])
    x0 = np.array([float(v) for v in headers["x0"].split(",")])
    dim = len(x0)
    missing = [i for i in range(1, dim + 1) if i not in components]
    if missing:
        raise ValueError(f"missing component lines: {', '.join(f'f{i}' for i in missing)}")
    extra = sorted(set(components) - set(range(1, dim + 1)))
    if extra:
        raise ValueError(f"component lines beyond dimension {dim}: f{extra[0]}")

    sources = tuple(components[i] for i in range(1, dim + 1))
    system = build_system(kind, float(headers["nu"]), float(headers["a"]),
                          float(headers["h"]), x0, sources)
    return system, sources


def load_system_file(path) -> tuple[SystemDef, tuple[str, ...]]:
    with open(path) as fh:
        return parse_system_source(fh.read())
