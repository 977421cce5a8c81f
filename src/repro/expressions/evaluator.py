"""The expression evaluator.

Evaluation happens against an :class:`EvalContext`, which is a stack of
:class:`Frame` objects: ``frames[-1]`` is the current operator's input row,
``frames[-1-k]`` the row of the query *k* sublink boundaries out (see
:class:`~repro.expressions.ast.Col`).

Sublink expressions are delegated to a *subquery runner* — the execution
engine passes itself in — so this module stays independent of the engine.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Protocol, Sequence

from ..datatypes import (
    arithmetic, compare, is_true, negate, null_safe_equal, tv_all, tv_and,
    tv_any, tv_not, tv_or,
)
from ..errors import ExecutionError, ExpressionError
from ..datatypes import SQLType
from .ast import (
    AggCall, Arith, BoolOp, Case, Cast, Col, Comparison, Const, Expr,
    FuncCall, IsNull, Like, Neg, Not, NullSafeEq, Param, Sublink,
    SublinkKind,
)
from .functions import call_function
from .probe import SCAN, InitPlanRows


class Frame:
    """One row visible to the evaluator, with a name->position index."""

    __slots__ = ("index", "row")

    def __init__(self, index: dict[str, int], row: Sequence[Any]):
        self.index = index
        self.row = row

    @classmethod
    def index_for(cls, names: Sequence[str]) -> dict[str, int]:
        """Precompute the name index shared by all rows of an operator."""
        return {name: position for position, name in enumerate(names)}


class SubqueryRunner(Protocol):
    """The engine-facing hook used to evaluate sublink queries."""

    def run_subquery(self, query: Any,
                     frames: tuple[Frame, ...]) -> list[tuple]:
        """Execute *query* with *frames* visible as outer rows."""
        ...


class EvalContext:
    """Evaluation state: visible frames, subquery runner, and the values
    bound to ``?`` placeholders of the statement being executed."""

    __slots__ = ("frames", "runner", "params")

    def __init__(self, frames: tuple[Frame, ...],
                 runner: SubqueryRunner | None = None,
                 params: Sequence[Any] = ()):
        self.frames = frames
        self.runner = runner
        self.params = params

    def push(self, frame: Frame) -> "EvalContext":
        """Context with one more (innermost) frame."""
        return EvalContext((*self.frames, frame), self.runner, self.params)

    def param(self, index: int) -> Any:
        """Value bound to the *index*-th ``?`` placeholder."""
        try:
            return self.params[index]
        except IndexError:
            raise ExpressionError(
                f"parameter ?{index + 1} has no bound value "
                f"({len(self.params)} given)") from None

    def lookup(self, name: str, level: int) -> Any:
        """Value of column *name*, *level* frames out."""
        try:
            frame = self.frames[-1 - level]
        except IndexError:
            raise ExpressionError(
                f"column reference {name!r} at level {level} exceeds "
                f"available {len(self.frames)} frame(s)") from None
        try:
            return frame.row[frame.index[name]]
        except KeyError:
            raise ExpressionError(
                f"unknown column {name!r} at level {level}; frame has "
                f"{sorted(frame.index)}") from None


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_regex(pattern: str) -> re.Pattern:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for char in pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        compiled = re.compile("".join(parts), re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def _cast(value: Any, type_name: str) -> Any:
    if value is None:
        return None
    target = SQLType.parse(type_name)
    try:
        if target == SQLType.INTEGER:
            return int(value)
        if target == SQLType.FLOAT:
            return float(value)
        if target in (SQLType.TEXT, SQLType.DATE):
            return str(value)
        if target == SQLType.BOOLEAN:
            if isinstance(value, str):
                return value.strip().lower() in ("t", "true", "1", "yes")
            return bool(value)
    except (TypeError, ValueError) as exc:
        raise ExpressionError(f"cannot cast {value!r} to {type_name}") from exc
    return value


def _eval_sublink(node: Sublink, ctx: EvalContext,
                  test: Callable[[Any, EvalContext], Any] | None,
                  row: Any = None) -> Any:
    """Run *node*'s query through the context's runner and apply its
    kind; an ANY/ALL test value is ``test(row, ctx)`` — the compiled
    test from the row compiler, or the interpreter's.

    ANY/ALL fold :func:`compare` over the first column in 3VL: ANY is
    TRUE on a hit, else NULL if any comparison was NULL, else FALSE (so
    FALSE over an empty result); ALL is its dual.  A cached InitPlan
    result (:class:`~repro.expressions.probe.InitPlanRows`) answers the
    test from its hashed probe instead — a set lookup or a min/max
    comparison with the scan's exact 3VL value — and falls back to the
    scan only where the probe declines (mixed-class column, NaN, or a
    test value of another class), so errors stay the scan's own.
    Correlated SubPlan results are plain lists and always scan."""
    if ctx.runner is None:
        raise ExecutionError(
            "sublink evaluated without an execution engine attached")
    rows = ctx.runner.run_subquery(node.query, ctx.frames)
    if node.kind == SublinkKind.EXISTS:
        return len(rows) > 0
    if node.kind == SublinkKind.SCALAR:
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError(
                f"scalar sublink returned {len(rows)} rows (expected <= 1)")
        return rows[0][0]
    test_value = test(row, ctx)
    if type(rows) is InitPlanRows:
        answer = rows.probe(node.kind is SublinkKind.ALL,
                            node.op)(test_value)
        if answer is not SCAN:
            return answer
    if node.kind == SublinkKind.ANY:
        return tv_any(
            compare(node.op, test_value, found[0]) for found in rows)
    if node.kind == SublinkKind.ALL:
        return tv_all(
            compare(node.op, test_value, found[0]) for found in rows)
    raise ExpressionError(f"unknown sublink kind {node.kind}")


def evaluate(expr: Expr, ctx: EvalContext) -> Any:
    """Evaluate *expr* in *ctx*; boolean results use 3VL (None = unknown)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        return ctx.param(expr.index)
    if isinstance(expr, Col):
        return ctx.lookup(expr.name, expr.level)
    if isinstance(expr, Comparison):
        return compare(expr.op, evaluate(expr.left, ctx),
                       evaluate(expr.right, ctx))
    if isinstance(expr, NullSafeEq):
        return null_safe_equal(evaluate(expr.left, ctx),
                               evaluate(expr.right, ctx))
    if isinstance(expr, BoolOp):
        if expr.op == "and":
            result: Any = True
            for item in expr.items:
                result = tv_and(result, evaluate(item, ctx))
                if result is False:
                    return False
            return result
        result = False
        for item in expr.items:
            result = tv_or(result, evaluate(item, ctx))
            if result is True:
                return True
        return result
    if isinstance(expr, Not):
        return tv_not(evaluate(expr.operand, ctx))
    if isinstance(expr, IsNull):
        return evaluate(expr.operand, ctx) is None
    if isinstance(expr, Arith):
        return arithmetic(expr.op, evaluate(expr.left, ctx),
                          evaluate(expr.right, ctx))
    if isinstance(expr, Neg):
        return negate(evaluate(expr.operand, ctx))
    if isinstance(expr, FuncCall):
        return call_function(
            expr.name, [evaluate(arg, ctx) for arg in expr.args])
    if isinstance(expr, Like):
        operand = evaluate(expr.operand, ctx)
        pattern = evaluate(expr.pattern, ctx)
        if operand is None or pattern is None:
            return None
        return _like_regex(pattern).fullmatch(operand) is not None
    if isinstance(expr, Cast):
        return _cast(evaluate(expr.operand, ctx), expr.type_name)
    if isinstance(expr, Case):
        for condition, value in expr.whens:
            if is_true(evaluate(condition, ctx)):
                return evaluate(value, ctx)
        return evaluate(expr.default, ctx)
    if isinstance(expr, Sublink):
        return _eval_sublink(
            expr, ctx, lambda row, ctx: evaluate(expr.test, ctx))
    if isinstance(expr, AggCall):
        raise ExpressionError(
            "aggregate call evaluated outside an Aggregate operator")
    raise ExpressionError(f"cannot evaluate expression node {expr!r}")
