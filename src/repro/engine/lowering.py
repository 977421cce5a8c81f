"""Physical lowering — the optimizer's second phase, now cost-based.

The planner is two-phase:

1. **logical rewrite** (:mod:`repro.engine.optimizer`): selection
   pushdown, join-condition extraction and (with a catalog in hand)
   greedy cost-based join ordering over the logical algebra;
2. **physical lowering** (this module): the logical tree is translated
   into an executable :class:`~repro.engine.physical.PhysicalPlan` —
   join algorithms picked, sublinks classified into InitPlans
   (uncorrelated, execute-once) vs SubPlans (correlated, per-outer-row)
   and lowered recursively, limits made streaming.

With a *catalog* the lowering consults the cardinality estimator and the
index registry (:mod:`repro.engine.cost`, :mod:`repro.storage.index`):

* filter conjunctions are re-ordered most-selective-first (cheap,
  sublink-free conjuncts run before expensive sublink probes);
* an equality or range conjunct over an indexed base-table column lowers
  to an :class:`~repro.engine.physical.IndexScan` when the estimated
  probe beats the sequential scan;
* equi-joins choose between :class:`~repro.engine.physical.HashJoin` and
  :class:`~repro.engine.physical.IndexNestedLoopJoin` by estimated cost
  (non-equi conditions still nested-loop);
* every node is annotated with ``est_rows`` / ``est_cost`` for
  ``EXPLAIN`` and the estimated-vs-actual report of ``EXPLAIN ANALYZE``.

Without a catalog the lowering is the previous rule-only translation
(SeqScan + HashJoin-for-equi-keys), so plain unit tests see identical
plans to earlier releases.

Lowering remains pure plan construction: the catalog is only *read* (for
statistics and index metadata), no execution state is created.  The
produced plan is what the session's plan cache stores — and because the
session folds the catalog's DDL *and* statistics generations into the
cache key, a plan lowered against stale statistics or a dropped index is
never served again.
"""

from __future__ import annotations

import math

from ..catalog import Catalog
from ..datatypes import FLIPPED_COMPARISON, SQLType
from ..errors import ExecutionError
from ..expressions.ast import (
    Arith, Cast, Col, Comparison, Const, Expr, FuncCall, Like,
    Sublink, TRUE, and_all, collect_sublinks, conjuncts_of, walk,
)
from ..schema import Schema
from ..algebra.operators import (
    Aggregate, BaseRelation, Join, JoinKind, Limit, Operator, Project,
    Select, SetOp, Sort, Values,
)
from .cost import (
    CardinalityEstimator, HASH_BUILD_COST, HASH_PROBE_COST,
    INDEX_PROBE_COST, NLJ_COMPARE_COST, SORT_FACTOR,
)
from .physical import (
    Filter, HashAggregate, HashJoin, IndexNestedLoopJoin, IndexScan,
    InitPlanSublink, NestedLoopJoin, PhysicalOperator, PhysicalPlan,
    Project as PhysicalProject, SeqScan, SetOperation, SortNode,
    StreamingLimit, SublinkPlan, SubPlanSublink, ValuesScan,
)

SubplanRegistry = dict[int, SublinkPlan]

#: Comparison operators an :class:`IndexScan` can serve.
_INDEXABLE_OPS = ("=", "<", "<=", ">", ">=")


def split_equi_keys(op: Join) -> tuple[list[tuple[int, int]], list[Expr]]:
    """Split the join condition into hashable equality column pairs
    (left position, right position) and residual conjuncts."""
    left_schema = op.left.schema
    right_schema = op.right.schema
    keys: list[tuple[int, int]] = []
    residual: list[Expr] = []
    for part in conjuncts_of(op.condition):
        pair = None
        if (isinstance(part, Comparison) and part.op == "="
                and isinstance(part.left, Col) and part.left.level == 0
                and isinstance(part.right, Col)
                and part.right.level == 0):
            a, b = part.left.name, part.right.name
            if a in left_schema and b in right_schema:
                pair = (left_schema.position(a), right_schema.position(b))
            elif b in left_schema and a in right_schema:
                pair = (left_schema.position(b), right_schema.position(a))
        if pair is None:
            residual.append(part)
        else:
            keys.append(pair)
    return keys, residual


def lower_plan(op: Operator, catalog: Catalog | None = None, *,
               use_indexes: bool = True,
               estimator: CardinalityEstimator | None = None
               ) -> PhysicalPlan:
    """Lower an (already logically optimized) operator tree.

    With *catalog* the lowering is cost-based (see the module docstring),
    pricing with *estimator* when the caller already has one for this
    statement; without it, rule-only.  ``use_indexes=False`` disables
    IndexScan / IndexNestedLoopJoin selection (plans as if no index
    existed).
    """
    lowerer = _Lowerer(catalog, use_indexes=use_indexes,
                       estimator=estimator)
    root = lowerer.lower(op)
    return PhysicalPlan(root, op, op.schema, lowerer.registry)


class _Lowerer:
    """One lowering pass: carries the subplan registry and, when a
    catalog is supplied, the cardinality estimator driving the
    cost-based choices."""

    def __init__(self, catalog: Catalog | None, use_indexes: bool = True,
                 estimator: CardinalityEstimator | None = None) -> None:
        self.catalog = catalog
        self.use_indexes = use_indexes and catalog is not None
        self.estimator = None if catalog is None \
            else estimator or CardinalityEstimator(catalog)
        self.registry: SubplanRegistry = {}

    # -- dispatch -------------------------------------------------------------

    def lower(self, op: Operator) -> PhysicalOperator:
        if isinstance(op, BaseRelation):
            return self._annotate(
                SeqScan(op.table, op.alias, op.schema.names), op)

        if isinstance(op, Values):
            return self._annotate(ValuesScan(op.rows, op.schema.names), op)

        if isinstance(op, Select):
            return self._lower_select(op)

        if isinstance(op, Project):
            node = PhysicalProject(
                self.lower(op.input), op.names, op.exprs, op.distinct,
                op.input.schema.index)
            node.sublinks = self._collect_sublinks(op.exprs)
            return self._annotate(node, op)

        if isinstance(op, Join):
            return self._lower_join(op)

        if isinstance(op, Aggregate):
            node = HashAggregate(
                self.lower(op.input), op.group,
                tuple(op.input.schema.positions(op.group)), op.aggregates,
                op.input.schema.index)
            node.sublinks = self._collect_sublinks(
                tuple(call for _, call in op.aggregates))
            return self._annotate(node, op)

        if isinstance(op, SetOp):
            node = SetOperation(op.kind, op.all, self.lower(op.left),
                                self.lower(op.right), op.left.schema)
            return self._annotate(node, op)

        if isinstance(op, Sort):
            node = SortNode(self.lower(op.input), op.keys,
                            op.input.schema.index)
            node.sublinks = self._collect_sublinks(
                tuple(key.expr for key in op.keys))
            return self._annotate(node, op)

        if isinstance(op, Limit):
            node = StreamingLimit(self.lower(op.input), op.count,
                                  op.offset)
            return self._annotate(node, op)

        raise ExecutionError(f"cannot lower operator {op!r}")

    # -- selections (conjunct ordering + index scans) -------------------------

    def _lower_select(self, op: Select) -> PhysicalOperator:
        conjuncts = list(conjuncts_of(op.condition))
        if self.estimator is not None and len(conjuncts) > 1:
            conjuncts = self._order_conjuncts(conjuncts, op.input)

        scan: PhysicalOperator | None = None
        if self.use_indexes and isinstance(op.input, BaseRelation):
            scan, conjuncts = self._try_index_scan(op.input, conjuncts)

        child = scan if scan is not None else self.lower(op.input)
        condition = and_all(conjuncts)
        if condition == TRUE:
            # the index conjunct absorbed the whole selection
            return self._annotate(child, op, node_is_scan=scan is not None)
        node = Filter(child, condition, op.input.schema.index)
        node.sublinks = self._collect_sublinks((condition,))
        return self._annotate(node, op)

    def _order_conjuncts(self, conjuncts: list[Expr],
                         op_input: Operator) -> list[Expr]:
        """Most-selective first; sublink-bearing conjuncts last on ties
        (they are the expensive ones to evaluate).

        Conjuncts that can raise at evaluation time (division/modulo,
        casts, function calls, sublinks — a scalar sublink raises on
        multi-row results) are never moved forward: SQL's AND
        short-circuits on False, so a cheap guard like ``a <> 0`` must
        keep protecting ``10 / a > 1``.  They run after every safe
        conjunct, in their original relative order — which can only
        *reduce* the rows (and hence errors and sublink probes) they
        see.
        """
        schema = op_input.schema
        flagged = [(position, part, _is_safe_conjunct(part, schema))
                   for position, part in enumerate(conjuncts)]
        safe = [(position, part) for position, part, ok in flagged if ok]
        unsafe = [part for _, part, ok in flagged if not ok]

        def sort_key(indexed: tuple[int, Expr]):
            position, part = indexed
            return (self.estimator.selectivity(part, op_input), position)

        ordered = [part for _, part in sorted(safe, key=sort_key)]
        return ordered + unsafe

    def _try_index_scan(self, base: BaseRelation, conjuncts: list[Expr]
                        ) -> tuple[PhysicalOperator | None, list[Expr]]:
        """Extract the first index-servable conjunct into an IndexScan
        (if the cost model prefers it over the sequential scan).

        With several conjuncts, only a statically type-safe one may be
        extracted: probing the index evaluates the comparison eagerly at
        scan open, and a type-mismatched conjunct that another conjunct
        guards must keep the filter plan's lazy, short-circuited
        evaluation.  A *sole* conjunct has no guards to bypass, so
        dynamically-typed keys (``?`` parameters, correlated outer
        columns) still get their index probe — the prepared point-lookup
        and correlated-sublink fast paths.
        """
        sole = len(conjuncts) == 1
        for position, part in enumerate(conjuncts):
            if not sole and not _is_safe_conjunct(part, base.schema):
                continue
            lookup = self._index_lookup(base, part)
            if lookup is None:
                continue
            column, stored_position, op, key_expr, kind = lookup
            table_rows = self.estimator.table_rows(base.table)
            fraction = self.estimator.selectivity(part, base)
            probe_cost = INDEX_PROBE_COST + table_rows * fraction
            if probe_cost >= table_rows and table_rows > 0:
                continue   # the scan is no worse; keep plans simple
            scan = IndexScan(base.table, base.alias, base.schema.names,
                             column, stored_position, op, key_expr, kind)
            scan.est_rows = table_rows * fraction
            scan.est_cost = probe_cost
            remaining = conjuncts[:position] + conjuncts[position + 1:]
            return scan, remaining
        return None, conjuncts

    def _index_lookup(self, base: BaseRelation, part: Expr) -> "tuple[str, int, str, Expr, str] | None":
        """``(column, position, op, key expression, index kind)`` if
        *part* is an index-servable comparison over *base*, else None."""
        if not isinstance(part, Comparison) or \
                part.op not in _INDEXABLE_OPS:
            return None
        candidates = (
            (part.left, part.right, part.op),
            (part.right, part.left,
             FLIPPED_COMPARISON.get(part.op, part.op)),
        )
        for col_side, key_side, op in candidates:
            if not (isinstance(col_side, Col) and col_side.level == 0
                    and col_side.name in base.schema):
                continue
            if not _is_outer_constant(key_side) or _may_raise(key_side):
                # The key is evaluated eagerly at scan open; a
                # raise-capable expression (1/0, casts, ...) must keep
                # the lazy, guarded evaluation of the filter plan.
                continue
            position = base.schema.position(col_side.name)
            stored = self.catalog.get(base.table).schema
            column = stored[position].name
            kinds = None if op == "=" else ("sorted",)
            index = self.catalog.index_for(base.table, column, kinds)
            if index is None:
                continue
            # The key is evaluated *outside* the scan's own scope (no row
            # frame is pushed), so correlated references — level >= 1
            # inside the selection — drop one level.
            from ..algebra.trees import shift_correlation_expr
            key_expr = shift_correlation_expr(key_side, -1, boundary=1)
            return column, position, op, key_expr, index.kind
        return None

    # -- joins ----------------------------------------------------------------

    def _lower_join(self, op: Join) -> PhysicalOperator:
        right_width = len(op.right.schema)
        index = op.schema.index

        if op.condition == TRUE:
            node = NestedLoopJoin(self.lower(op.left), self.lower(op.right),
                                  None, op.kind, right_width, index)
            return self._annotate(node, op)

        keys, residual = split_equi_keys(op)
        if keys:
            index_join = self._try_index_join(op, keys, residual, index)
            if index_join is not None:
                return index_join
            residual_expr = and_all(residual) if residual else None
            node = HashJoin(self.lower(op.left), self.lower(op.right),
                            keys, residual_expr, op.kind, right_width,
                            index)
            node.sublinks = self._collect_sublinks(tuple(residual))
            return self._annotate(node, op)

        node = NestedLoopJoin(self.lower(op.left), self.lower(op.right),
                              op.condition, op.kind, right_width, index)
        node.sublinks = self._collect_sublinks((op.condition,))
        return self._annotate(node, op)

    def _try_index_join(self, op: Join, keys: list[tuple[int, int]],
                        residual: list[Expr],
                        index: dict[str, int]) -> PhysicalOperator | None:
        """An IndexNestedLoopJoin over *op*, when the right side is an
        indexed base table and the estimated probes beat the hash join.

        Only single-key equi-joins qualify: a second key pair would have
        to become a comparison residual, which raises on type-mismatched
        columns where the hash table's composite keys simply never match.
        """
        if not self.use_indexes or not isinstance(op.right, BaseRelation):
            return None
        if op.kind not in (JoinKind.INNER, JoinKind.LEFT):
            return None
        if len(keys) != 1:
            return None
        base = op.right
        stored = self.catalog.get(base.table).schema
        left_position, right_position = keys[0]
        column = stored[right_position].name
        if self.catalog.index_for(base.table, column) is None:
            return None

        left_rows = self.estimator.estimate(op.left)
        right_rows = self.estimator.estimate(op.right)
        matches = self.estimator.equality_matches(base.table, column)
        probe_cost = left_rows * (INDEX_PROBE_COST + matches)
        hash_cost = right_rows * HASH_BUILD_COST \
            + left_rows * HASH_PROBE_COST
        if probe_cost >= hash_cost:
            return None

        residual_expr = and_all(residual) if residual else None
        node = IndexNestedLoopJoin(
            self.lower(op.left), base.table, base.alias,
            base.schema.names, left_position, column, right_position,
            residual_expr, op.kind, index)
        node.sublinks = self._collect_sublinks(tuple(residual))
        node.est_rows = self.estimator.estimate(op)
        node.est_cost = (node.left.est_cost or 0.0) + probe_cost \
            + (node.est_rows or 0.0)
        return node

    # -- estimates -------------------------------------------------------------

    def _annotate(self, node: PhysicalOperator, op: Operator,
                  node_is_scan: bool = False) -> PhysicalOperator:
        """Attach ``est_rows`` / ``est_cost`` (inclusive) to *node*."""
        if self.estimator is None:
            return node
        rows = self.estimator.estimate(op)
        node.est_rows = rows
        if node_is_scan and isinstance(node, IndexScan):
            # an IndexScan that absorbed the whole selection: its own
            # estimate (set at construction) already prices the probe,
            # but the selection's estimate is the tighter output bound
            node.est_rows = min(node.est_rows or rows, rows)
            return node
        node.est_cost = self._cost(node, rows)
        return node

    def _cost(self, node: PhysicalOperator, rows: float) -> float:
        children = node.children()
        children_cost = sum(child.est_cost or 0.0 for child in children)
        child_rows = [child.est_rows or 0.0 for child in children]
        local = rows
        if isinstance(node, Filter):
            local = child_rows[0] if child_rows else rows
        elif isinstance(node, PhysicalProject):
            local = (child_rows[0] if child_rows else rows) + rows
        elif isinstance(node, HashJoin):
            left_rows, right_rows = child_rows
            local = right_rows * HASH_BUILD_COST \
                + left_rows * HASH_PROBE_COST + rows
        elif isinstance(node, NestedLoopJoin):
            left_rows, right_rows = child_rows
            local = left_rows * right_rows * NLJ_COMPARE_COST + rows
        elif isinstance(node, HashAggregate):
            local = (child_rows[0] if child_rows else 0.0) + rows
        elif isinstance(node, SortNode):
            local = SORT_FACTOR * rows * math.log2(rows + 2.0)
        return children_cost + local

    # -- sublinks -------------------------------------------------------------

    def _collect_sublinks(self, exprs: tuple[Expr, ...]
                          ) -> tuple[SublinkPlan, ...]:
        """Lower and classify every sublink referenced by *exprs*.

        Each sublink's logical query tree is lowered recursively (nested
        sublinks *inside* that query register themselves while it lowers)
        and entered into the registry keyed by the logical tree's identity
        — the handle the expression evaluator passes to ``run_subquery``.
        """
        found: list[SublinkPlan] = []
        for expr in exprs:
            for sublink in collect_sublinks(expr):
                existing = self.registry.get(id(sublink.query))
                if existing is None:
                    cls = SubPlanSublink if sublink.correlated \
                        else InitPlanSublink
                    existing = self.registry[id(sublink.query)] = cls(
                        sublink, sublink.query, self.lower(sublink.query))
                found.append(existing)
        return tuple(found)


def _may_raise(expr: Expr) -> bool:
    """True iff evaluating *expr* can raise on some row: division or
    modulo (by zero), casts (conversion errors), function calls and
    sublinks (a scalar sublink raises on a multi-row result, and a
    correlated query evaluates its own expressions per outer row)."""
    if expr.has_sublink:
        return True
    for node in walk(expr):
        if isinstance(node, Arith) and node.op in ("/", "%"):
            return True
        if isinstance(node, (Cast, FuncCall)):
            return True
    return False


#: SQLType -> static comparison family (None = not statically known).
_TYPE_FAMILY = {
    SQLType.INTEGER: "num", SQLType.FLOAT: "num", SQLType.TEXT: "text",
    SQLType.BOOLEAN: "bool", SQLType.DATE: "date",
}


def _static_family(expr: Expr, schema: Schema) -> str | None:
    """The comparison-type family of *expr*, if statically known:
    ``"null"`` for a literal NULL (comparisons with NULL never raise),
    a :data:`_TYPE_FAMILY` tag for typed columns and literals, None when
    unknown (untyped column, parameter, computed expression)."""
    if isinstance(expr, Const):
        value = expr.value
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return "num"
        if isinstance(value, str):
            return "text"
        return None
    if isinstance(expr, Col) and expr.level == 0 and expr.name in schema:
        return _TYPE_FAMILY.get(schema[expr.name].type)
    return None


def _is_safe_conjunct(expr: Expr, schema: Schema) -> bool:
    """True iff *expr* provably cannot raise, so reordering it ahead of
    other conjuncts cannot surface an error the written AND order would
    have short-circuited away.  Comparisons and LIKE raise on operands
    of incompatible types, so they are only safe when both sides'
    static type families are known to match (NULL is safe with
    anything — SQL comparison with NULL is unknown, never an error)."""
    if _may_raise(expr):
        return False
    for node in walk(expr):
        if isinstance(node, Comparison):
            left = _static_family(node.left, schema)
            right = _static_family(node.right, schema)
            if left is None or right is None:
                return False
            if "null" not in (left, right) and left != right:
                return False
        elif isinstance(node, Like):
            for side in (node.operand, node.pattern):
                if _static_family(side, schema) not in ("text", "null"):
                    return False
    return True


def _is_outer_constant(expr: Expr) -> bool:
    """True iff *expr* is evaluable without the scan's own row: no
    sublinks, no level-0 column references (constants, ``?`` parameters
    and correlated outer columns all qualify)."""
    for node in walk(expr):
        if isinstance(node, Sublink):
            return False
        if isinstance(node, Col) and node.level == 0:
            return False
    return True
