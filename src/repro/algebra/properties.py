"""Static properties of algebra trees used by the rewriter and planner.

* :func:`is_correlated` — does a sublink query reference enclosing scopes?
  (decides Gen vs Left/Move applicability, Section 3.6)
* :func:`collect_base_relations` — the ``Base(Tsub)`` list used to build
  the Gen strategy's CrossBase.
"""

from __future__ import annotations

from ..expressions.ast import Col, Expr, Sublink
from .operators import BaseRelation, Operator
from .trees import iter_operators


def _collect_escapes(expr: Expr, refs: set[tuple[str, int]]) -> None:
    """Add to *refs* what *expr*, attached to an operator of a sublink
    query, reads outside that query (see :func:`outer_references`)."""
    if isinstance(expr, Col):
        if expr.level >= 1:
            refs.add((expr.name, expr.level - 1))
        return
    for child in expr.children():
        _collect_escapes(child, refs)
    if isinstance(expr, Sublink):
        # a nested sublink has walked its own query already
        refs.update((name, level - 1)
                    for name, level in expr.outer_refs if level >= 1)


def outer_references(query: Operator) -> frozenset[tuple[str, int]]:
    """The columns sublink query *query* reads outside itself, as
    ``(name, level)`` with levels counted from the scope hosting the
    sublink (0 = the hosting operator's own input row).  One walk."""
    refs: set[tuple[str, int]] = set()
    for node in iter_operators(query):
        for expr in node.expressions():
            _collect_escapes(expr, refs)
    return frozenset(refs)


def correlation_depth(query: Operator) -> int:
    """How many enclosing scopes *query* reaches into (0 = uncorrelated)."""
    return max((level + 1 for _, level in outer_references(query)),
               default=0)


def is_correlated(query: Operator) -> bool:
    """True iff the sublink query *query* references an enclosing scope."""
    return bool(outer_references(query))


def collect_base_relations(op: Operator) -> list[BaseRelation]:
    """All base-relation accesses of *op*'s tree, in depth-first order,
    including those inside nested sublink queries (``Base(T)``)."""
    return [node for node in iter_operators(op, into_sublinks=True)
            if isinstance(node, BaseRelation)]
