"""Tests for the expression language and system definition files."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfrac import (
    BUILTIN_SYSTEMS,
    ExprEvalError,
    ExprSyntaxError,
    OperatorKind,
    evaluate,
    get_builtin,
    parse,
    parse_system_source,
    solve,
    to_source,
)
from hfrac.expr import MAX_DEPTH, BinOp, Neg, Num, Pow, Var, compile_rhs


class TestParsing:
    def test_unary_minus_binds_tighter_than_power_argument(self):
        assert parse("-x1^3", 1) == Neg(Pow(Var("x1", 0), 3))

    def test_product_chain(self):
        tree = parse("-0.5*x2^16*x1", 2)
        assert tree == BinOp(
            "*",
            BinOp("*", Neg(Num(0.5)), Pow(Var("x2", 1), 16)),
            Var("x1", 0),
        )

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2", 1), 0.0, [0.0]) == 512.0

    def test_parentheses_and_division(self):
        tree = parse("(x1 + x2) / 2", 2)
        assert evaluate(tree, 0.0, [1.0, 3.0]) == 2.0

    def test_time_variable(self):
        tree = parse("t*x1", 1)
        assert evaluate(tree, 2.0, [3.0]) == 6.0

    def test_scientific_literals(self):
        assert evaluate(parse("1e-2 + .5 + 2.", 1), 0.0, [0.0]) == pytest.approx(2.51)

    def test_unknown_variable(self):
        with pytest.raises(ExprSyntaxError):
            parse("x3", 2)
        with pytest.raises(ExprSyntaxError):
            parse("y1", 2)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + ", 1)
        assert err.value.offset == 5

    def test_exponent_must_be_integer(self):
        for src in ("x1^x1", "x1^0.5", "x1^-2", "x1^(1/2)"):
            with pytest.raises(ExprSyntaxError):
                parse(src, 1)

    @pytest.mark.parametrize("src", ["-x1^1e999", "x1^(2^2000)", "x1^-(1e999)", "x1^(1e999^2)"])
    def test_exponent_too_large(self, src):
        # These once escaped the parser as OverflowError.
        with pytest.raises(ExprSyntaxError):
            parse(src, 1)

    def test_large_finite_exponent_accepted(self):
        assert parse("x1^1e20", 1) == Pow(Var("x1", 0), 10**20)

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", 1)

    def test_depth_limit(self):
        deep = "(" * 70 + "x1" + ")" * 70
        with pytest.raises(ExprSyntaxError):
            parse(deep, 1)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 @ 2", 1)
        assert err.value.offset == 3


class TestEvaluation:
    def test_cube(self):
        assert evaluate(parse("-x1^3", 1), 0.0, [0.4]) == pytest.approx(-0.064)

    def test_linear_pair(self):
        exprs = [parse(src, 2) for src in ("-x1", "-x2")]
        out = [evaluate(e, 0.0, [0.1, 0.2]) for e in exprs]
        assert out == [-0.1, -0.2]

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("1/(x1 - x1)", 1), 0.0, [2.0])


class TestRoundTrip:
    CASES = [
        "-x1^3",
        "-0.5*x2^16*x1",
        "(x1 + x2)*t - 3/x1",
        "2^3^2",
        "x1 - -x2",
        "1e-3*x1 + 2.5",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_print_reparse_identity(self, src):
        tree = parse(src, 2)
        assert parse(to_source(tree), 2) == tree

    def test_random_trees(self):
        rng = np.random.default_rng(31)

        def random_tree(depth):
            roll = rng.random()
            if depth >= 5 or roll < 0.3:
                if rng.random() < 0.5:
                    return Num(float(np.round(rng.uniform(0, 10), 3)))
                return [Var("t", None), Var("x1", 0), Var("x2", 1)][rng.integers(3)]
            if roll < 0.45:
                return Neg(random_tree(depth + 1))
            if roll < 0.6:
                return Pow(random_tree(depth + 1), int(rng.integers(0, 5)))
            op = "+-*/"[rng.integers(4)]
            return BinOp(op, random_tree(depth + 1), random_tree(depth + 1))

        for _ in range(200):
            tree = random_tree(0)
            assert parse(to_source(tree), 2) == tree


# The built-ins' right-hand sides written out by hand in numpy, as an oracle
# independent of the expression compiler.
HAND_WRITTEN = {
    "ex5.1": lambda t, x: np.array([-x[0], -x[1]]),
    "ex5.2": lambda t, x: np.array([-0.5 * x[1] ** 16 * x[0], -0.5 * x[0] ** 2 * x[1]]),
    "ex5.3": lambda t, x: np.array([-(x[0] ** 3), -(x[0] ** 2) - x[1]]),
    "ex5.4": lambda t, x: np.array([(-x[0]) - x[1] ** 3, -(x[0] ** 2)]),
}


class TestBuiltinParity:
    @pytest.mark.parametrize("key", sorted(BUILTIN_SYSTEMS))
    def test_expression_matches_hardcoded_bitwise(self, key):
        builtin = get_builtin(key)
        exprs = [parse(src, builtin.system.dim) for src in builtin.sources]
        rng = np.random.default_rng(sum(map(ord, key)))
        points = rng.uniform(-2.0, 2.0, size=(1000, builtin.system.dim))
        batch = builtin.system.rhs.batch(0.0, points)
        for x, from_batch in zip(points, batch):
            hard = HAND_WRITTEN[key](0.0, x)
            soft = np.array([evaluate(e, 0.0, x) for e in exprs])
            assert np.array_equal(hard, soft)
            assert builtin.system.rhs(0.0, x).tobytes() == soft.tobytes()
            assert from_batch.tobytes() == soft.tobytes()


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestCompiled:
    """The compiled scalar and batch forms against the tree walk `evaluate`."""

    @pytest.mark.parametrize("k", range(34))
    def test_forms_match_tree_walk_bitwise(self, k):
        sources = (
            f"(x1 - 0.3*x2)^{k}*t - x3",
            f"-x3^{k}/(1.5 + x1^2) + t^{min(k, 3)}",
            "2.5",  # a constant component, which the batch form broadcasts
            f"x2^{k} - (x1*x3)^{k}/(2 - t)",
        )
        exprs = tuple(parse(src, 3) for src in sources)
        rhs = compile_rhs(exprs, 3)
        rng = np.random.default_rng(k)
        points = rng.uniform(-1.6, 1.6, size=(300, 3))
        times = rng.uniform(-1.0, 1.9, size=300)
        tree = np.array([[evaluate(e, t, x) for e in exprs] for t, x in zip(times, points)])
        scalar = np.array([rhs(t, x) for t, x in zip(times, points)])
        assert _bits(scalar) == _bits(tree)
        assert _bits(rhs.batch(times, points)) == _bits(tree)
        one_time = np.array([[evaluate(e, 0.7, x) for e in exprs] for x in points])
        assert _bits(rhs.batch(0.7, points)) == _bits(one_time)

    def test_non_finite_literal(self):
        exprs = (parse("x1 + 1e999 - 1e999", 1), parse("1e999*0", 1))
        rhs = compile_rhs(exprs, 1)
        expected = [evaluate(e, 0.0, [0.5]) for e in exprs]
        assert all(map(math.isnan, expected))
        assert _bits(rhs(0.0, [0.5])) == _bits(expected)
        assert _bits(rhs.batch(0.0, [[0.5]])[0]) == _bits(expected)

    def test_batch_division_by_zero(self):
        rhs = compile_rhs((parse("x1/(x2 - 1)", 2),), 2)
        assert rhs.batch(0.0, [[1.0, 2.0], [3.0, 3.0]]).tolist() == [[1.0], [1.5]]
        with pytest.raises(ExprEvalError):
            rhs.batch(0.0, [[1.0, 2.0], [3.0, 1.0]])  # one zero denominator
        with pytest.raises(ExprEvalError):
            rhs(0.0, [3.0, 1.0])

    def test_power_overflow_raises_in_both_forms(self):
        # Python's float ** int raises OverflowError; the batch form follows it.
        e = parse("(10*x1)^400", 1)
        for run in (lambda: evaluate(e, 0.0, [1.0]),
                    lambda: compile_rhs((e,), 1)(0.0, [1.0]),
                    lambda: compile_rhs((e,), 1).batch(0.0, [[0.01], [1.0]])):
            with pytest.raises(OverflowError):
                run()

    def test_deep_chain_compiles(self):
        # One statement per operation: no nesting limit of Python's parser.
        src = " + ".join(["x1"] * 400)
        rhs = compile_rhs((parse(src, 1),), 1)
        assert rhs(0.0, [0.5])[0] == evaluate(parse(src, 1), 0.0, [0.5]) == 200.0
        assert rhs.batch(0.0, [[0.5]])[0, 0] == 200.0

    def test_text_is_not_copied_from_the_tree(self):
        with pytest.raises(KeyError):
            compile_rhs((BinOp("+) or print(1) or (", Var("x1", 0), Num(1.0)),), 1)
        with pytest.raises(TypeError):
            compile_rhs((Pow(Var("x1", 0), "2; import os"),), 1)


# Generated trees for the compiler differential: literals that make zero
# denominators, negative bases and overflow likely, `t`, and exponents up to
# 1e20; a chain of up to MAX_DEPTH negations on top reaches the parser's depth.
_DIM = 3
_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-200, 1e200)
_LEAVES = st.one_of(
    st.sampled_from(_VALUES + (math.inf,)).map(Num),
    st.floats(-1e3, 1e3).map(Num),
    st.just(Var("t", None)),
    st.integers(0, _DIM - 1).map(lambda i: Var(f"x{i + 1}", i)),
)


def _nodes(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.sampled_from((0, 1, 2, 3, 5, 8, 31, 400, 10**20))),
    )


def _negated(tree, depth):
    for _ in range(depth):
        tree = Neg(tree)
    return tree


_TREES = st.builds(_negated, st.recursive(_LEAVES, _nodes, max_leaves=10),
                   st.integers(0, MAX_DEPTH) | st.just(0))
_REALS = st.sampled_from(_VALUES) | st.floats(-10.0, 10.0)


def _outcome(run):
    """The value of run(), or the class of the exception it raises."""
    try:
        return _bits(run())
    except Exception as err:
        return type(err)


class TestCompilerDifferential:
    """compile_rhs's three forms against the tree walk over generated trees:
    the same bits, or the same exception class."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(exprs=st.lists(_TREES, min_size=1, max_size=3),
           points=st.lists(st.lists(_REALS, min_size=_DIM, max_size=_DIM),
                           min_size=1, max_size=4),
           t=_REALS)
    def test_forms_match_tree_walk(self, exprs, points, t):
        rhs = compile_rhs(tuple(exprs), _DIM)
        per_point = []
        for x in points:
            tree = _outcome(lambda: [evaluate(e, t, x) for e in exprs])
            assert _outcome(lambda: rhs(t, x)) == tree
            assert _outcome(lambda: rhs.floats(t, list(x))) == tree
            assert _outcome(lambda: rhs.batch(t, [x])[0]) == tree
            per_point.append(tree)
        batch = _outcome(lambda: rhs.batch(t, points))
        if all(isinstance(o, bytes) for o in per_point):
            assert batch == b"".join(per_point)
        else:
            # The batch stops at the first operation that fails at any point,
            # which is where the tree walk stops at that point.
            assert batch in [o for o in per_point if isinstance(o, type)]


SYSTEM_SRC = """
# a Riemann-Liouville demo system
kind=rl
nu=0.5
h=1
a=0
x0=0.1,0.2
f1=-0.5*x2^16*x1
f2=-0.5*x1^2*x2
"""


class TestSystemFiles:
    def test_parse_and_solve_matches_builtin(self):
        sysdef, sources = parse_system_source(SYSTEM_SRC)
        assert sysdef.kind is OperatorKind.RIEMANN_LIOUVILLE
        assert sysdef.dim == 2
        assert not sysdef.time_dependent
        assert sources == ("-0.5*x2^16*x1", "-0.5*x1^2*x2")
        traj = solve(sysdef, 5)
        ref = solve(get_builtin("ex5.2").system, 5)
        np.testing.assert_array_equal(traj.states.values, ref.states.values)

    def test_time_dependent_flag(self):
        src = "kind=caputo\nnu=0.5\nh=1\na=0\nx0=1\nf1=-t*x1\n"
        sysdef, _ = parse_system_source(src)
        assert sysdef.time_dependent

    def test_missing_header(self):
        with pytest.raises(ValueError, match="nu"):
            parse_system_source("kind=caputo\nh=1\na=0\nx0=1\nf1=-x1\n")

    def test_bad_kind(self):
        with pytest.raises(ValueError) as err:
            parse_system_source("kind=Weird\nnu=0.5\nh=1\na=0\nx0=1\nf1=-x1\n")
        assert str(err.value) == "kind must be caputo or rl, got 'Weird'"

    @pytest.mark.parametrize("text, kind", [("Caputo", OperatorKind.CAPUTO),
                                            ("RL", OperatorKind.RIEMANN_LIOUVILLE)])
    def test_kind_in_any_case(self, text, kind):
        sysdef, _ = parse_system_source(f"kind={text}\nnu=0.5\nh=1\na=0\nx0=1\nf1=-x1\n")
        assert sysdef.kind is kind

    def test_missing_component(self):
        src = "kind=caputo\nnu=0.5\nh=1\na=0\nx0=1,2\nf1=-x1\n"
        with pytest.raises(ValueError, match="f2"):
            parse_system_source(src)

    def test_extra_component(self):
        src = "kind=caputo\nnu=0.5\nh=1\na=0\nx0=1\nf1=-x1\nf2=-x1\n"
        with pytest.raises(ValueError, match="f2"):
            parse_system_source(src)
