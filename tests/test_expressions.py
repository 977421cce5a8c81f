"""Expression AST helpers and the 3VL evaluator."""

import pytest

from repro.errors import ExecutionError, ExpressionError
from repro.expressions.ast import (
    AggCall, Arith, BoolOp, Case, Cast, Col, Comparison, Const, FuncCall,
    IsNull, Like, Neg, Not, NullSafeEq, TRUE, FALSE, and_all,
    collect_columns, collect_sublinks, has_aggregate, or_all, walk,
)
from repro.algebra.trees import transform
from repro.expressions.evaluator import EvalContext, Frame, evaluate
from repro.expressions.functions import call_function, register_function


def ctx(**values):
    names = list(values)
    frame = Frame(Frame.index_for(names), tuple(values[n] for n in names))
    return EvalContext((frame,), None)


def ev(expr, **values):
    return evaluate(expr, ctx(**values))


class TestBuilders:
    def test_and_all_flattens_and_drops_true(self):
        inner = BoolOp("and", (Const(1).eq(Const(1)),))
        combined = and_all([TRUE, inner, Const(2).eq(Const(2))])
        assert isinstance(combined, BoolOp)
        assert len(combined.items) == 2

    def test_and_all_empty_is_true(self):
        assert and_all([]) == TRUE

    def test_and_all_single_unwrapped(self):
        only = Const(1).eq(Const(2))
        assert and_all([only]) is only

    def test_or_all_flattens_and_drops_false(self):
        combined = or_all([FALSE, or_all([TRUE, FALSE])])
        assert combined == TRUE

    def test_or_all_empty_is_false(self):
        assert or_all([]) == FALSE


class TestTreeUtilities:
    def test_walk_visits_all_nodes(self):
        expr = and_all([Col("a").eq(Const(1)), Not(IsNull(Col("b")))])
        kinds = [type(node).__name__ for node in walk(expr)]
        assert "BoolOp" in kinds and "IsNull" in kinds and "Col" in kinds

    def test_transform_bottom_up(self):
        expr = Arith("+", Col("a"), Const(1))

        def rule(node):
            if isinstance(node, Col):
                return Const(41)
            return None

        assert ev(transform(expr, rule)) == 42

    def test_collect_columns_filters_level(self):
        expr = and_all([Col("a").eq(Col("b", level=1))])
        assert [c.name for c in collect_columns(expr, 0)] == ["a"]
        assert [c.name for c in collect_columns(expr, 1)] == ["b"]
        assert collect_sublinks(expr) == []

    def test_has_aggregate(self):
        assert has_aggregate(Arith("+", AggCall("sum", Col("a")), Const(1)))
        assert not has_aggregate(Col("a"))


class TestEvaluator:
    def test_constants_and_columns(self):
        assert ev(Const(7)) == 7
        assert ev(Col("a"), a=3) == 3

    def test_unknown_column_raises(self):
        with pytest.raises(ExpressionError, match="unknown column"):
            ev(Col("missing"), a=1)

    def test_level_out_of_range_raises(self):
        with pytest.raises(ExpressionError, match="exceeds"):
            ev(Col("a", level=3), a=1)

    def test_correlated_lookup(self):
        outer = Frame(Frame.index_for(["x"]), (10,))
        inner = Frame(Frame.index_for(["y"]), (20,))
        context = EvalContext((outer, inner), None)
        assert evaluate(Col("x", level=1), context) == 10
        assert evaluate(Col("y", level=0), context) == 20

    def test_shadowing_uses_innermost(self):
        outer = Frame(Frame.index_for(["x"]), (1,))
        inner = Frame(Frame.index_for(["x"]), (2,))
        context = EvalContext((outer, inner), None)
        assert evaluate(Col("x"), context) == 2
        assert evaluate(Col("x", level=1), context) == 1

    def test_comparison_3vl(self):
        assert ev(Comparison("<", Col("a"), Const(5)), a=None) is None

    def test_null_safe_eq_node(self):
        assert ev(NullSafeEq(Const(None), Const(None))) is True
        assert ev(NullSafeEq(Const(None), Const(1))) is False

    def test_and_short_circuit_false(self):
        expr = and_all([FALSE, Comparison("=", Const(1), Const("boom"))])
        assert ev(expr) is False  # incompatible comparison never evaluated

    def test_or_short_circuit_true(self):
        expr = or_all([TRUE, Comparison("=", Const(1), Const("boom"))])
        assert ev(expr) is True

    def test_and_unknown(self):
        assert ev(and_all([TRUE, Const(None)])) is None

    def test_case_searched(self):
        expr = Case(((Comparison("<", Col("a"), Const(0)), Const("neg")),
                     (Comparison("=", Col("a"), Const(0)), Const("zero"))),
                    Const("pos"))
        assert ev(expr, a=-1) == "neg"
        assert ev(expr, a=0) == "zero"
        assert ev(expr, a=3) == "pos"

    def test_case_unknown_condition_falls_through(self):
        expr = Case(((Comparison("<", Col("a"), Const(0)), Const("neg")),),
                    Const("default"))
        assert ev(expr, a=None) == "default"

    def test_like(self):
        assert ev(Like(Const("forest green"), Const("forest%"))) is True
        assert ev(Like(Const("abc"), Const("a_c"))) is True
        assert ev(Like(Const("abc"), Const("a_d"))) is False
        assert ev(Like(Const(None), Const("a%"))) is None

    def test_like_escapes_regex_metacharacters(self):
        assert ev(Like(Const("a.c"), Const("a.c"))) is True
        assert ev(Like(Const("abc"), Const("a.c"))) is False

    def test_cast(self):
        assert ev(Cast(Const("12"), "int")) == 12
        assert ev(Cast(Const(3), "text")) == "3"
        assert ev(Cast(Const(None), "int")) is None
        with pytest.raises(ExpressionError):
            ev(Cast(Const("xyz"), "int"))

    def test_is_null(self):
        assert ev(IsNull(Const(None))) is True
        assert ev(Not(IsNull(Const(1)))) is True

    def test_neg(self):
        assert ev(Neg(Const(4))) == -4

    def test_function_call(self):
        assert ev(FuncCall("abs", (Const(-3),))) == 3
        assert ev(FuncCall("coalesce",
                           (Const(None), Const(None), Const(9)))) == 9

    def test_aggcall_outside_aggregate_raises(self):
        with pytest.raises(ExpressionError, match="aggregate"):
            ev(AggCall("sum", Col("a")), a=1)

    def test_sublink_without_engine_raises(self):
        from repro.expressions.ast import Sublink, SublinkKind
        from repro.algebra.operators import Values
        from repro.schema import Schema
        sub = Sublink(SublinkKind.EXISTS, Values(Schema.of("x"), [(1,)]))
        with pytest.raises(ExecutionError):
            ev(sub)


class TestScalarFunctions:
    def test_substr_one_based(self):
        assert call_function("substr", ["hello", 2, 3]) == "ell"
        assert call_function("substring", ["13-555", 1, 2]) == "13"

    def test_substr_clamps(self):
        assert call_function("substr", ["ab", 1, 10]) == "ab"
        assert call_function("substr", ["ab", 0, 1]) == "a"

    def test_null_in_null_out(self):
        assert call_function("upper", [None]) is None
        assert call_function("length", [None]) is None

    def test_string_helpers(self):
        assert call_function("upper", ["ab"]) == "AB"
        assert call_function("trim", ["  x "]) == "x"
        assert call_function("replace", ["aaa", "a", "b"]) == "bbb"

    def test_nullif_and_concat(self):
        assert call_function("nullif", [1, 1]) is None
        assert call_function("nullif", [1, 2]) == 1
        assert call_function("concat", ["a", None, "b"]) == "ab"

    def test_unknown_function_raises(self):
        with pytest.raises(ExpressionError, match="unknown function"):
            call_function("frobnicate", [])

    def test_error_wrapped(self):
        with pytest.raises(ExpressionError, match="error in"):
            call_function("sqrt", [-1])

    def test_register_udf(self):
        register_function("double_it", lambda x: x * 2)
        assert call_function("double_it", [21]) == 42
