"""EXPLAIN-style rendering of algebra trees."""

from __future__ import annotations

from ..expressions.printer import format_expr
from .operators import (
    Aggregate, BaseRelation, Join, Limit, Operator, Project, Select, SetOp,
    Sort, Values,
)


def _label(op: Operator) -> str:
    if isinstance(op, BaseRelation):
        return f"Scan {op.table} as {op.alias} -> {list(op.schema.names)}"
    if isinstance(op, Values):
        return f"Values {len(op.rows)} row(s) -> {list(op.schema.names)}"
    if isinstance(op, Project):
        kind = "Distinct" if op.distinct else "Project"
        items = ", ".join(
            f"{format_expr(expr)} AS {name}" for name, expr in op.items)
        return f"{kind} [{items}]"
    if isinstance(op, Select):
        return f"Select {format_expr(op.condition)}"
    if isinstance(op, Join):
        return f"Join {op.kind.value} ON {format_expr(op.condition)}"
    if isinstance(op, Aggregate):
        aggs = ", ".join(
            f"{format_expr(call)} AS {name}" for name, call in op.aggregates)
        return f"Aggregate group={list(op.group)} [{aggs}]"
    if isinstance(op, SetOp):
        flavor = "ALL" if op.all else "DISTINCT"
        return f"SetOp {op.kind.value.upper()} {flavor}"
    if isinstance(op, Sort):
        keys = ", ".join(
            f"{format_expr(k.expr)} {'ASC' if k.ascending else 'DESC'}"
            for k in op.keys)
        return f"Sort [{keys}]"
    if isinstance(op, Limit):
        return f"Limit {op.count} OFFSET {op.offset}"
    return type(op).__name__


def explain(op: Operator, indent: int = 0) -> str:
    """Multi-line, indented rendering of an operator tree.

    Sublink query trees are rendered inline, further indented, so a Gen
    rewrite's full structure is visible.
    """
    from ..expressions.ast import Sublink

    pad = "  " * indent
    lines = [pad + _label(op)]
    for expr in op.expressions():
        stack = [expr]
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if isinstance(node, Sublink):
                lines.append(pad + f"  [sublink {node.kind.value}]")
                lines.append(explain(node.query, indent + 2))
    for child in op.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)


def summarize(op: Operator) -> str:
    """One-line summary (used by reprs)."""
    parts = []
    for node_count, node in enumerate(_preorder(op)):
        if node_count >= 4:
            parts.append("...")
            break
        parts.append(type(node).__name__)
    return " > ".join(parts)


def _preorder(op: Operator):
    yield op
    for child in op.children():
        yield from _preorder(child)
