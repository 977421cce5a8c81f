"""Expression compiler: semantics identical to the interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from oracle_engine import OracleEngine
from repro.engine import Executor
from repro.expressions.ast import (
    Arith, BoolOp, Case, Cast, Col, Comparison, Const, FuncCall, IsNull,
    Like, Neg, Not, NullSafeEq, Param, Sublink, SublinkKind,
)
from repro.expressions.compiler import compile_batch_values, compile_row
from repro.expressions.evaluator import EvalContext, Frame, evaluate
from repro.expressions.functions import register_function
from repro.errors import ExecutionError, ExpressionError

#: The frame one sublink boundary out: ``Col("x", 1)`` reads it.
OUTER = Frame(Frame.index_for(["x"]), (10,))


class StubRunner:
    """A subquery runner whose "query" is the tuple of rows it returns."""

    def run_subquery(self, query, frames):
        return list(query)


def outcome(run):
    """``("ok", type, value)`` or ``("error", exception type)``."""
    try:
        value = run()
    except Exception as exc:            # parity covers the type too
        return ("error", type(exc))
    return ("ok", type(value), value)


def check(expr, params=(), **values):
    """Interpret *expr* and compile it both ways (one row, one batch) on
    the same row; all three must agree — value, type or error type.
    Returns the interpreted outcome."""
    index = Frame.index_for(list(values))
    row = tuple(values.values())
    runner = StubRunner()
    context = EvalContext((OUTER, Frame(index, row)), runner, params)
    interpreted = outcome(lambda: evaluate(expr, context))
    row_fn = outcome(lambda: compile_row(expr, index)[0](row, context))
    batch = outcome(lambda: compile_batch_values(expr, index)(
        [row], (OUTER,), runner, params)[0])
    assert row_fn == interpreted
    assert batch == interpreted
    return interpreted


def both(expr, params=(), **values):
    result = check(expr, params, **values)
    assert result[0] == "ok", result
    return result[2]


def raises(expr, error, params=(), **values):
    assert check(expr, params, **values) == ("error", error)


def rows(*values):
    return tuple((value,) for value in values)


class TestCompiledNodes:
    def test_constants_and_columns(self):
        assert both(Const(5)) == 5
        assert both(Col("a"), a=7) == 7

    def test_outer_level_column(self):
        assert both(Col("x", 1), y=20) == 10
        fn, needs_ctx = compile_row(Col("x", 1), {"y": 0})
        assert needs_ctx
        assert fn((20,), EvalContext((OUTER, Frame({"y": 0}, (20,))))) == 10

    def test_parameters(self):
        assert both(Arith("*", Param(0), Col("a")), params=(3,), a=2) == 6
        raises(Param(1), ExpressionError, params=(3,))

    def test_comparison_and_3vl(self):
        assert both(Comparison("<", Col("a"), Const(3)), a=None) is None
        assert both(Comparison("=", Col("a"), Const(3)), a=3) is True

    def test_boolean_short_circuit(self):
        expr = BoolOp("and", (Const(False),
                              Comparison("=", Const(1), Const("boom"))))
        assert both(expr) is False
        expr = BoolOp("or", (Const(True),
                             Comparison("=", Const(1), Const("boom"))))
        assert both(expr) is True

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
        assert both(Like(Col("s"), Const("_b%")), s="abc") is True
        assert both(Like(Col("s"), Const("a%")), s=None) is None
        assert both(Cast(Const("3"), "int")) == 3
        assert both(Cast(Col("a"), "text"), a=3) == "3"
        case = Case(((Comparison(">", Col("a"), Const(0)), Const("pos")),),
                    Const("neg"))
        assert both(case, a=1) == "pos"
        assert both(case, a=-1) == "neg"

    def test_sublinks(self):
        assert both(Sublink(SublinkKind.EXISTS, rows(1))) is True
        assert both(Sublink(SublinkKind.EXISTS, ())) is False
        assert both(Sublink(SublinkKind.SCALAR, rows(4))) == 4
        assert both(Sublink(SublinkKind.SCALAR, ())) is None
        assert both(Sublink(SublinkKind.ANY, rows(1, 2), "=",
                            Col("a")), a=2) is True
        assert both(Sublink(SublinkKind.ANY, rows(1, None), "=",
                            Col("a")), a=2) is None
        assert both(Sublink(SublinkKind.ALL, rows(3, 4), "<",
                            Arith("+", Col("a"), Param(0))),
                    params=(1,), a=1) is True

    def test_unknown_function_raises_at_compile_time(self):
        with pytest.raises(ExpressionError, match="unknown function"):
            compile_row(FuncCall("nope", ()), {})
        raises(FuncCall("nope", ()), ExpressionError)

    def test_function_calls_never_fold(self):
        ticks = iter(range(10))
        register_function("compiler_test_tick", lambda: next(ticks))
        fn, _ = compile_row(Arith("+", FuncCall("compiler_test_tick", ()),
                                  Const(1)), {})
        assert [fn((), None), fn((), None)] == [1, 2]

    def test_failing_function(self):
        raises(FuncCall("sqrt", (Const(-1),)), ExpressionError)
        with pytest.raises(ExpressionError, match="error in sqrt: "):
            compile_row(FuncCall("sqrt", (Col("a"),)), {"a": 0})[0](
                (-1,), None)

    def test_scalar_sublink_with_two_rows(self):
        two = Sublink(SublinkKind.SCALAR, rows(1, 2))
        raises(two, ExecutionError)
        # an argument's error is not the function's: never re-wrapped
        raises(FuncCall("abs", (two,)), ExecutionError)

    def test_missing_column(self):
        # not KeyError: the name reaches ctx.lookup like any other miss
        raises(Like(Col("zz"), Const("a%")), ExpressionError, a=1)
        raises(Col("zz"), ExpressionError, a=1)
        raises(Col("zz", 1), ExpressionError, a=1)


# randomized agreement over generated expression trees ---------------------

ints = st.one_of(st.none(), st.integers(-5, 5))
texts = st.one_of(st.none(), st.sampled_from(["", "ab", "abc", "b%"]))
patterns = st.sampled_from(["a%", "_b%", "%", "abc", "b\\%"])
sublink_rows = st.lists(ints, max_size=3).map(lambda values: rows(*values))


def text_exprs():
    return st.one_of(
        st.builds(Const, texts), st.just(Col("s")),
        st.just(FuncCall("upper", (Col("s"),))))


def exprs(depth=2):
    leaf = st.one_of(
        st.builds(Const, ints),
        st.just(Col("a")), st.just(Col("b")), st.just(Col("x", 1)),
        st.just(Param(0)))
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    ops = st.sampled_from(["=", "<>", "<", ">="])
    return st.one_of(
        leaf,
        st.builds(lambda l, r: Arith("+", l, r), sub, sub),
        st.builds(lambda l, r: Comparison("<", l, r), sub, sub),
        st.builds(lambda l, r: BoolOp(
            "and", (Comparison("=", l, r),
                    Comparison("<>", l, r))), sub, sub),
        st.builds(lambda l, r: BoolOp(
            "or", (IsNull(l), Comparison(">", l, r))), sub, sub),
        st.builds(lambda e: IsNull(e), sub),
        st.builds(lambda e: Neg(e), sub),
        st.builds(lambda e: Not(Comparison("=", e, Const(0))), sub),
        st.builds(lambda e, p: Like(e, Const(p)), text_exprs(), patterns),
        st.builds(lambda e, t: Cast(e, t), sub,
                  st.sampled_from(["int", "text", "float", "boolean"])),
        st.builds(lambda c, v, d: Case(((Comparison("<", c, Const(0)), v),),
                                       d), sub, sub, sub),
        st.builds(lambda e: FuncCall("abs", (e,)), sub),
        st.builds(lambda l, r: FuncCall("coalesce", (l, r)), sub, sub),
        st.builds(lambda q: Sublink(SublinkKind.EXISTS, q), sublink_rows),
        st.builds(lambda q: Sublink(SublinkKind.SCALAR, q), sublink_rows),
        st.builds(lambda q, op, t: Sublink(SublinkKind.ANY, q, op, t),
                  sublink_rows, ops, sub),
        st.builds(lambda q, op, t: Sublink(SublinkKind.ALL, q, op, t),
                  sublink_rows, ops, sub),
    )


@settings(max_examples=300, deadline=None)
@given(exprs(3), ints, ints, texts, st.one_of(st.just(()), st.tuples(ints)))
def test_compiled_matches_interpreter(expr, a, b, s, params):
    check(expr, params, a=a, b=b, s=s)


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
