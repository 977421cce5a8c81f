"""Rendering of expression trees as SQL-ish text (debugging, EXPLAIN)."""

from __future__ import annotations

from ..datatypes import sql_literal
from .ast import (
    AggCall, Arith, BoolOp, Case, Cast, Col, Comparison, Const, Expr,
    FuncCall, IsNull, Like, Neg, Not, NullSafeEq, Param, Sublink,
    SublinkKind,
)


def format_expr(expr: Expr) -> str:
    """Render *expr* as readable text; sublink queries render as a tag."""
    if isinstance(expr, Const):
        return sql_literal(expr.value)
    if isinstance(expr, Param):
        return f"?{expr.index + 1}"
    if isinstance(expr, Col):
        if expr.level:
            return f"{expr.name}^{expr.level}"
        return expr.name
    if isinstance(expr, Comparison):
        return (f"({format_expr(expr.left)} {expr.op} "
                f"{format_expr(expr.right)})")
    if isinstance(expr, NullSafeEq):
        return (f"({format_expr(expr.left)} =n "
                f"{format_expr(expr.right)})")
    if isinstance(expr, BoolOp):
        joiner = f" {expr.op.upper()} "
        return "(" + joiner.join(format_expr(i) for i in expr.items) + ")"
    if isinstance(expr, Not):
        return f"(NOT {format_expr(expr.operand)})"
    if isinstance(expr, IsNull):
        return f"({format_expr(expr.operand)} IS NULL)"
    if isinstance(expr, Arith):
        return (f"({format_expr(expr.left)} {expr.op} "
                f"{format_expr(expr.right)})")
    if isinstance(expr, Neg):
        return f"(-{format_expr(expr.operand)})"
    if isinstance(expr, FuncCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Like):
        return (f"({format_expr(expr.operand)} LIKE "
                f"{format_expr(expr.pattern)})")
    if isinstance(expr, Cast):
        return f"CAST({format_expr(expr.operand)} AS {expr.type_name})"
    if isinstance(expr, Case):
        parts = ["CASE"]
        for condition, value in expr.whens:
            parts.append(
                f"WHEN {format_expr(condition)} THEN {format_expr(value)}")
        parts.append(f"ELSE {format_expr(expr.default)} END")
        return " ".join(parts)
    if isinstance(expr, AggCall):
        if expr.arg is None:
            return f"{expr.name}(*)"
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{format_expr(expr.arg)})"
    if isinstance(expr, Sublink):
        from ..algebra.printer import summarize
        body = summarize(expr.query)
        if expr.kind == SublinkKind.EXISTS:
            return f"EXISTS({body})"
        if expr.kind == SublinkKind.SCALAR:
            return f"SCALAR({body})"
        return (f"({format_expr(expr.test)} {expr.op} "
                f"{expr.kind.name}({body}))")
    return f"<{type(expr).__name__}>"
