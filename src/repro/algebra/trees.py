"""Tree utilities over algebra operators and their expressions.

The central piece is :func:`shift_correlation`: when the Gen strategy
relocates an expression (or a whole rewritten sublink query) *inside a new
sublink boundary*, every column reference escaping the relocated fragment
must point one level further out.  Levels behave like de Bruijn indices:
a ``Col`` at sublink-boundary depth ``b`` within the fragment escapes the
fragment iff ``level >= b``, and exactly those references are shifted.
"""

from __future__ import annotations

import copy
from operator import is_not
from typing import Any, Callable, Iterator, Sequence

from ..expressions.ast import Col, Expr, Sublink, collect_sublinks
from .operators import Operator


def rebuild(node: Any, children: Sequence[Any],
            exprs: Sequence[Expr] = ()) -> Any:
    """*node* — an operator or an expression — over *children* and, for
    an operator, attached *exprs*: *node* itself when each is (``is``)
    the one it already has.  Every rewriting pass rebuilds through here,
    so a pass that changes nothing returns its argument and what is
    keyed on node identity (the estimator's memo) survives the pass."""
    if any(map(is_not, node.children(), children)):
        node = node.replace_children(children)
    if exprs and any(map(is_not, node.expressions(), exprs)):
        node = node.replace_expressions(exprs)
    return node


def transform(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewrite: apply *fn* to every node, keeping nodes where
    *fn* returns None.  Sublink query trees are not entered."""
    expr = rebuild(expr, [transform(child, fn) for child in expr.children()])
    replacement = fn(expr)
    return expr if replacement is None else replacement


def iter_operators(op: Operator, into_sublinks: bool = False
                   ) -> Iterator[Operator]:
    """Pre-order iteration over *op* and its descendants.

    With ``into_sublinks=True`` the iteration also descends into the algebra
    trees of sublink expressions.
    """
    yield op
    for child in op.children():
        yield from iter_operators(child, into_sublinks)
    if into_sublinks:
        for expr in op.expressions():
            for sublink in collect_sublinks(expr):
                yield from iter_operators(sublink.query, True)


def transform_expressions(op: Operator,
                          fn: Callable[[Expr], Expr]) -> Operator:
    """Rebuild *op*'s tree with every attached expression mapped by *fn*.

    *fn* receives whole attached expressions (conditions, projection items);
    it is responsible for any recursion it needs.  Children operators are
    transformed first.
    """
    return rebuild(op, [transform_expressions(c, fn) for c in op.children()],
                   [fn(e) for e in op.expressions()])


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------

def clone(op: Operator) -> Operator:
    """Deep-copy an operator tree.

    Expressions are immutable and shared, *except* sublinks, whose query
    trees are cloned so the copy never aliases operators with the original
    (the executor's sublink cache is keyed by operator identity).
    """
    new_children = [clone(child) for child in op.children()]
    if new_children:
        op = op.replace_children(new_children)
    else:
        op = copy.copy(op)  # leaves (BaseRelation/Values) get fresh nodes
    exprs = op.expressions()
    if exprs:
        op = op.replace_expressions([clone_expr(e) for e in exprs])
    return op


def map_sublink_queries(expr: Expr,
                        fn: Callable[[Operator], Operator]) -> Expr:
    """*expr* with *fn*, which maps a query to an equivalent one,
    applied to the query of every sublink in it (*expr* itself when it
    holds none, or *fn* changes none)."""
    if not expr.has_sublink:
        return expr
    expr = rebuild(expr, [map_sublink_queries(child, fn)
                          for child in expr.children()])
    if isinstance(expr, Sublink):
        expr = expr.with_query(fn(expr.query), equivalent=True)
    return expr


def clone_expr(expr: Expr) -> Expr:
    """Copy *expr*, deep-cloning any sublink query trees inside it."""
    return map_sublink_queries(expr, clone)


# ---------------------------------------------------------------------------
# Correlation-level shifting
# ---------------------------------------------------------------------------

def shift_correlation_expr(expr: Expr, delta: int, boundary: int = 0) -> Expr:
    """Shift escaping column references of an expression fragment.

    A ``Col`` at sublink depth ``b`` (relative to the fragment root, where
    the fragment itself starts at depth *boundary*) escapes the fragment iff
    ``level >= b``; escaping references get ``level += delta``.
    """
    if isinstance(expr, Col):
        if expr.level >= boundary:
            return Col(expr.name, expr.level + delta)
        return expr
    expr = rebuild(expr, [shift_correlation_expr(child, delta, boundary)
                          for child in expr.children()])
    if isinstance(expr, Sublink):
        expr = expr.with_query(
            shift_correlation(expr.query, delta, boundary + 1))
    return expr


def shift_correlation(op: Operator, delta: int, boundary: int = 1
                      ) -> Operator:
    """Shift escaping references of a whole (sub)query operator tree.

    For a sublink query being relocated, expressions attached directly to
    its operators live at depth 1 relative to the construct that hosts the
    sublink — hence the default ``boundary=1``.
    """
    if delta == 0:
        return op
    return rebuild(
        op, [shift_correlation(c, delta, boundary) for c in op.children()],
        [shift_correlation_expr(e, delta, boundary)
         for e in op.expressions()])
