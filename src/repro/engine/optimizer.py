"""The planner's first phase — a *logical* optimizer: selection
pushdown, join-condition extraction and (given a catalog) greedy
cost-based join ordering.  The second phase
(:mod:`repro.engine.lowering`) lowers the rewritten logical tree into
the physical plan the pipelined engine executes.

Perm relies on PostgreSQL's planner to turn ``σ_C(A × B × C)`` — the shape
both the SQL analyzer (comma FROM lists) and the provenance rewrite rules
produce — into selective joins.  Without an equivalent pass, every
benchmark would measure cross-product materialization instead of the
strategies under study.  This pass implements exactly the subset of
planning the experiments need, deliberately nothing more:

* flatten ``Select(Select(x))`` chains,
* push conjuncts of a selection into the side of a join that covers all
  the columns they need (left side only for LEFT joins),
* fold conjuncts spanning both sides of an inner/cross join into the join
  condition (enabling the executor's hash-join fast path),
* push sublink-free conjuncts through pure-rename projections,
* recurse into sublink query trees.

When :func:`optimize` is handed a catalog, a second pass re-orders
maximal inner/cross join chains greedily by estimated cardinality
(:mod:`repro.engine.cost`): starting from the smallest relation, each
step joins the relation whose (condition-covered) result is estimated
smallest, attaching pooled conjuncts as soon as both sides cover their
columns.  The chain's original column order is restored with a final
projection, so the rewrite is invisible to everything above it.

Correlated references *inside* sublinks are handled precisely: a conjunct
is pushable iff every column it reads **at the selection's own scope**
(level == boundary depth) is covered — levels further out are enclosing
query scopes and do not constrain pushdown; levels further in are the
sublink's own columns.
"""

from __future__ import annotations

from ..expressions.ast import (
    Col, Expr, Sublink, TRUE, and_all, conjuncts_of,
)
from ..algebra.operators import (
    Join, JoinKind, Operator, Project, Select,
)
from ..algebra.trees import map_sublink_queries, rebuild
from ..catalog import Catalog
from .cost import CardinalityEstimator

from typing import AbstractSet, Sequence


def scope_column_names(expr: Expr, boundary: int = 0) -> set[str]:
    """Column names *expr* reads at its own scope (see module docstring)."""
    names: set[str] = set()
    _collect_scope_names(expr, boundary, names)
    return names


def _collect_scope_names(expr: Expr, boundary: int,
                         names: set[str]) -> None:
    if isinstance(expr, Col):
        if expr.level == boundary:
            names.add(expr.name)
        return
    for child in expr.children():
        _collect_scope_names(child, boundary, names)
    if isinstance(expr, Sublink):
        names.update(name for name, level in expr.outer_refs
                     if level == boundary)


def _substitute_renames(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite the level-0 column references of a sublink-free
    expression through a rename map."""
    if isinstance(expr, Col):
        if expr.level == 0 and expr.name in mapping:
            return Col(mapping[expr.name])
        return expr
    return rebuild(expr, [_substitute_renames(child, mapping)
                          for child in expr.children()])


def _push_conjunct(op: Operator, conjunct: Expr,
                   needed: AbstractSet[str]) -> Operator | None:
    """Try to absorb *conjunct*, which reads the (non-empty set of)
    columns *needed* at its own scope, into *op*'s subtree; None if
    impossible."""
    if isinstance(op, Select):
        pushed = _push_conjunct(op.input, conjunct, needed)
        if pushed is not None:
            return Select(pushed, op.condition)
        return Select(op.input, and_all([op.condition, conjunct]))

    if isinstance(op, Join):
        left_names = op.left.schema.index.keys()
        right_names = op.right.schema.index.keys()
        if needed <= left_names:
            pushed = _push_conjunct(op.left, conjunct, needed) \
                or Select(op.left, conjunct)
            return op.replace_children([pushed, op.right])
        if needed <= right_names and op.kind != JoinKind.LEFT:
            pushed = _push_conjunct(op.right, conjunct, needed) \
                or Select(op.right, conjunct)
            return op.replace_children([op.left, pushed])
        if op.kind in (JoinKind.INNER, JoinKind.CROSS) and \
                needed <= left_names | right_names:
            condition = and_all([op.condition, conjunct]) \
                if op.condition != TRUE else conjunct
            return Join(op.left, op.right, condition, JoinKind.INNER)
        return None

    if isinstance(op, Project) and not op.distinct \
            and not conjunct.has_sublink:
        mapping: dict[str, str] = {}
        positions = op.schema.index
        for name in needed:
            expr = op.exprs[positions[name]] if name in positions \
                else None
            if not (isinstance(expr, Col) and expr.level == 0):
                return None
            mapping[name] = expr.name
        rewritten = _substitute_renames(conjunct, mapping)
        renamed = set(mapping.values())
        pushed = _push_conjunct(op.input, rewritten, renamed) \
            or Select(op.input, rewritten)
        return op.replace_children([pushed])

    return None


def _optimize_node(op: Operator) -> Operator:
    if isinstance(op, Select):
        input_op = op.input
        # flatten nested selections so all conjuncts are considered together
        conjuncts: list[Expr] = list(conjuncts_of(op.condition))
        while isinstance(input_op, Select):
            conjuncts.extend(conjuncts_of(input_op.condition))
            input_op = input_op.input
        remaining: list[Expr] = []
        for conjunct in conjuncts:
            needed = scope_column_names(conjunct)
            # constant predicates stay put
            pushed = _push_conjunct(input_op, conjunct, needed) \
                if needed else None
            if pushed is None:
                remaining.append(conjunct)
            else:
                input_op = pushed
        if not remaining:
            return input_op
        condition = and_all(remaining)
        if input_op is op.input and condition == op.condition:
            return op       # nothing moved
        return Select(input_op, condition)
    return op


def optimize(op: Operator, catalog: Catalog | None = None,
             estimator: CardinalityEstimator | None = None) -> Operator:
    """Optimize an operator tree (bottom-up, including sublink queries);
    *op* itself comes back when no rule applies.

    With *catalog*, a cost-based join-ordering pass runs after the
    rule-based rewrites (see the module docstring), pricing with
    *estimator* when the caller already has one for this statement."""
    op = _optimize_tree(op)
    if catalog is not None:
        op = _reorder_joins(op, estimator or CardinalityEstimator(catalog))
    return op


def _optimize_tree(op: Operator) -> Operator:
    return _optimize_node(rebuild(
        op, [_optimize_tree(child) for child in op.children()],
        [map_sublink_queries(e, _optimize_tree) for e in op.expressions()]))


# ---------------------------------------------------------------------------
# Greedy cost-based join ordering
# ---------------------------------------------------------------------------

#: Chains shorter than this are left alone: with two relations the only
#: freedom is the build/probe side, which lowering already prices.
_MIN_CHAIN = 3


def _reorder_joins(op: Operator, estimator: CardinalityEstimator) -> Operator:
    """Top-down pass: re-order every maximal inner/cross join chain."""
    if isinstance(op, Join) and op.kind in (JoinKind.INNER, JoinKind.CROSS):
        relations, conjuncts = _flatten_chain(op)
        relations = [_reorder_joins(relation, estimator)
                     for relation in relations]
        if len(relations) >= _MIN_CHAIN:
            return _greedy_chain(relations, conjuncts, estimator,
                                 op.schema.names)
        rebuilt = relations[0]
        for relation in relations[1:]:
            rebuilt = Join(rebuilt, relation, TRUE, JoinKind.CROSS)
        if conjuncts:
            rebuilt = Select(rebuilt, and_all(conjuncts))
            rebuilt = _optimize_node(rebuilt)   # refold join conditions
        if isinstance(rebuilt, Join) and rebuilt.kind == op.kind \
                and rebuilt.left is op.left and rebuilt.right is op.right \
                and rebuilt.condition == op.condition:
            return op       # refolded into the join it was
        return rebuilt

    def reorder(query: Operator) -> Operator:
        return _reorder_joins(query, estimator)
    return rebuild(op, [reorder(child) for child in op.children()],
                   [map_sublink_queries(e, reorder) for e in op.expressions()])


def _flatten_chain(op: Join) -> tuple[list[Operator], list[Expr]]:
    """Leaves and pooled condition conjuncts of a maximal inner/cross
    join chain (LEFT joins and non-join operators stay atomic leaves),
    in the order a post-order walk meets them."""
    relations: list[Operator] = []
    conjuncts: list[Expr] = []
    # (node, its children already walked) — an explicit stack: a
    # recursive local function would be a reference cycle per call
    stack: list[tuple[Operator, bool]] = [(op, False)]
    while stack:
        node, walked = stack.pop()
        if not (isinstance(node, Join) and
                node.kind in (JoinKind.INNER, JoinKind.CROSS)):
            relations.append(node)
        elif not walked:
            stack += [(node, True), (node.right, False), (node.left, False)]
        elif node.condition != TRUE:
            conjuncts.extend(conjuncts_of(node.condition))
    return relations, conjuncts


def _greedy_chain(relations: list[Operator], conjuncts: list[Expr],
                  estimator: CardinalityEstimator,
                  original_names: Sequence[str]) -> Operator:
    """Left-deep greedy join order: smallest relation first, then always
    the join with the smallest estimated output."""
    pool = [(conjunct, scope_column_names(conjunct))
            for conjunct in conjuncts]
    used: set[int] = set()
    remaining = list(relations)
    current = min(remaining, key=estimator.estimate)
    remaining.remove(current)

    while remaining:
        best = None
        for relation in remaining:
            visible = current.schema.index.keys() \
                | relation.schema.index.keys()
            applicable = [
                position for position, (_, needed) in enumerate(pool)
                if position not in used and needed and needed <= visible]
            condition = and_all(
                pool[position][0] for position in applicable) \
                if applicable else TRUE
            kind = JoinKind.INNER if applicable else JoinKind.CROSS
            candidate = Join(current, relation, condition, kind)
            rows = estimator.estimate(candidate)
            if best is None or rows < best[0]:
                best = (rows, relation, candidate, applicable)
        _, relation, candidate, applicable = best
        current = candidate
        remaining.remove(relation)
        used.update(applicable)

    leftover = [conjunct for position, (conjunct, _) in enumerate(pool)
                if position not in used]
    if leftover:
        current = Select(current, and_all(leftover))
    if current.schema.names != tuple(original_names):
        current = Project(current,
                          [(name, Col(name)) for name in original_names])
    return current
