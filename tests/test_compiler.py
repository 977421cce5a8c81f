"""Expression compiler: semantics identical to the interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from oracle_engine import OracleEngine
from repro.engine import Executor
from repro.expressions.ast import (
    Arith, BoolOp, Case, Cast, Col, Comparison, Const, FuncCall, IsNull,
    Like, Neg, Not, NullSafeEq,
)
from repro.expressions.compiler import compile_expr
from repro.expressions.evaluator import EvalContext, Frame, evaluate
from repro.errors import ExpressionError


def ctx(**values):
    names = list(values)
    frame = Frame(Frame.index_for(names), tuple(values[n] for n in names))
    return EvalContext((frame,), None)


def both(expr, **values):
    context = ctx(**values)
    interpreted = evaluate(expr, context)
    compiled = compile_expr(expr)(context)
    assert compiled == interpreted or (
        compiled is None and interpreted is None)
    return compiled


class TestCompiledNodes:
    def test_constants_and_columns(self):
        assert both(Const(5)) == 5
        assert both(Col("a"), a=7) == 7

    def test_outer_level_column(self):
        outer = Frame(Frame.index_for(["x"]), (10,))
        inner = Frame(Frame.index_for(["y"]), (20,))
        context = EvalContext((outer, inner), None)
        assert compile_expr(Col("x", 1))(context) == 10

    def test_comparison_and_3vl(self):
        assert both(Comparison("<", Col("a"), Const(3)), a=None) is None
        assert both(Comparison("=", Col("a"), Const(3)), a=3) is True

    def test_boolean_short_circuit(self):
        expr = BoolOp("and", (Const(False),
                              Comparison("=", Const(1), Const("boom"))))
        assert compile_expr(expr)(ctx()) is False
        expr = BoolOp("or", (Const(True),
                             Comparison("=", Const(1), Const("boom"))))
        assert compile_expr(expr)(ctx()) is True

    def test_boolean_unknowns(self):
        assert both(BoolOp("and", (Const(True), Const(None)))) is None
        assert both(BoolOp("or", (Const(False), Const(None)))) is None

    def test_not_isnull_neg(self):
        assert both(Not(Const(None))) is None
        assert both(IsNull(Const(None))) is True
        assert both(Neg(Const(4))) == -4

    def test_arith_and_nullsafe(self):
        assert both(Arith("+", Col("a"), Const(1)), a=2) == 3
        assert both(NullSafeEq(Const(None), Const(None))) is True

    def test_func_like_cast_case(self):
        assert both(FuncCall("abs", (Const(-2),))) == 2
        assert both(Like(Const("abc"), Const("a%"))) is True
        assert both(Cast(Const("3"), "int")) == 3
        case = Case(((Comparison(">", Col("a"), Const(0)), Const("pos")),),
                    Const("neg"))
        assert both(case, a=1) == "pos"
        assert both(case, a=-1) == "neg"

    def test_unknown_function_raises_at_compile_time(self):
        with pytest.raises(ExpressionError):
            compile_expr(FuncCall("nope", ()))


# randomized agreement over generated arithmetic/boolean trees -------------

values = st.one_of(st.none(), st.integers(-5, 5))


def exprs(depth=2):
    leaf = st.one_of(
        st.builds(Const, values),
        st.just(Col("a")), st.just(Col("b")))
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda l, r: Arith("+", l, r), sub, sub),
        st.builds(lambda l, r: Comparison("<", l, r), sub, sub),
        st.builds(lambda l, r: BoolOp(
            "and", (Comparison("=", l, r),
                    Comparison("<>", l, r))), sub, sub),
        st.builds(lambda e: IsNull(e), sub),
        st.builds(lambda e: Neg(e), sub),
    )


@settings(max_examples=200, deadline=None)
@given(exprs(3), values, values)
def test_compiled_matches_interpreter(expr, a, b):
    context = ctx(a=a, b=b)
    try:
        interpreted = evaluate(expr, context)
        interpreted_error = None
    except ExpressionError as exc:
        interpreted, interpreted_error = None, type(exc)
    try:
        compiled = compile_expr(expr)(context)
        compiled_error = None
    except ExpressionError as exc:
        compiled, compiled_error = None, type(exc)
    assert compiled_error == interpreted_error
    if interpreted_error is None:
        assert compiled == interpreted or (
            compiled is None and interpreted is None)


class TestExecutorModes:
    """Compiled execution (the engine) and interpreted execution (the
    oracle interpreter, which only ever calls ``evaluate``) produce
    identical relations."""

    @pytest.mark.parametrize("sql", [
        "SELECT a + b AS s FROM r WHERE a >= 2",
        "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)",
        "SELECT b, sum(a) AS t FROM r GROUP BY b",
    ])
    def test_modes_agree(self, figure3_db, sql):
        plan = figure3_db.plan(sql.replace("PROVENANCE ", ""),
                               strategy="gen" if "PROVENANCE" in sql
                               else None)
        fast = Executor(figure3_db.catalog).execute(plan)
        slow = OracleEngine(figure3_db.catalog).execute(plan)
        assert fast.bag_equal(slow)
