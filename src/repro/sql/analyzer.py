"""Semantic analysis: SQL AST -> algebra tree.

Responsibilities:

* **Name resolution.**  Every FROM item's columns get unique internal names
  (``alias.column``); expression ``Col`` nodes are resolved to those names
  with the correct correlation ``level`` (number of sublink boundaries
  crossed).  The final projection renames to user-facing labels.

* **Normalization for the provenance rewriter.**  Aggregation is planned as
  ``Project_labels(Select_having(Aggregate(Project_pre(input))))`` — the
  pre-projection computes grouping expressions and aggregate arguments as
  columns, so sublinks in GROUP BY / aggregate arguments / HAVING end up in
  plain projections and selections (exactly the paper's simulation of
  sublinks in those clauses, Section 2.2).  Join conditions containing
  sublinks become selections over cross products.

* **Views** are macro-expanded at reference time, so provenance tracking
  reaches through them (how TPC-H Q15 is handled).
"""

from __future__ import annotations

from typing import Any

from ..catalog import Catalog
from ..errors import AnalyzerError
from ..datatypes import SQLType
from ..expressions.ast import (
    AggCall, Col, Const, Expr, Sublink, SublinkKind, TRUE,
)
from ..algebra.operators import (
    Aggregate, BaseRelation, Join, JoinKind, Limit, Operator, Project,
    Select, SetOp, SetOpKind, Sort, SortKey, Values,
)
from ..algebra.trees import transform
from ..schema import Attribute, Schema, disambiguate
from .ast import (
    DeleteStmt, JoinExpr, OrderItem, SelectItem, SelectStmt, Star,
    SubqueryRef, TableRef,
)

_SET_OP_KINDS = {
    "union": SetOpKind.UNION,
    "intersect": SetOpKind.INTERSECT,
    "except": SetOpKind.EXCEPT,
}


class Scope:
    """One query level's visible columns, chained to enclosing levels."""

    def __init__(self, parent: "Scope | None" = None):
        self.parent = parent
        self.entries: list[tuple[str | None, str, str]] = []
        # (qualifier, sql-visible name, unique internal name)

    def add(self, qualifier: str | None, sql_name: str,
            unique_name: str) -> None:
        self.entries.append((qualifier, sql_name, unique_name))

    def add_all(self, entries) -> None:
        self.entries.extend(entries)

    def resolve(self, raw: str) -> tuple[str, int]:
        """Resolve a raw (possibly qualified) column name to its unique
        internal name and correlation level.

        A name containing a dot is first matched *literally* against the
        visible column names (quoted identifiers like ``"r.a"``, which the
        deparser emits) and only then split into qualifier + column.
        """
        qualifier, _, column = raw.rpartition(".")
        scope: Scope | None = self
        level = 0
        while scope is not None:
            matches = [
                unique for (_, sql_name, unique) in scope.entries
                if sql_name == raw]
            if not matches:
                matches = [
                    unique for (entry_qualifier, sql_name, unique)
                    in scope.entries
                    if sql_name == column
                    and (not qualifier or entry_qualifier == qualifier)]
            if len(matches) == 1:
                return matches[0], level
            if len(matches) > 1:
                raise AnalyzerError(f"ambiguous column reference {raw!r}")
            scope = scope.parent
            level += 1
        raise AnalyzerError(f"unknown column {raw!r}")


class Analyzer:
    """Analyzes parsed SELECT statements against a catalog (and views).

    Views default to the catalog's own registry
    (:attr:`repro.catalog.Catalog.views`); pass an explicit mapping only to
    override it (e.g. to analyze against a hypothetical namespace).
    """

    def __init__(self, catalog: Catalog,
                 views: dict[str, SelectStmt] | None = None):
        self.catalog = catalog
        self.views = views if views is not None \
            else getattr(catalog, "views", {})
        self._core_scope: Scope | None = None

    # -- entry point -----------------------------------------------------------

    def analyze(self, stmt: SelectStmt | DeleteStmt,
                outer: Scope | None = None) -> Operator:
        """Analyze a full SELECT (set ops, ORDER BY, LIMIT included), or
        a ``DELETE ... WHERE`` into the scan of the rows it removes."""
        if isinstance(stmt, DeleteStmt):
            return self._analyze_delete(stmt)
        plan = self._analyze_core(stmt, outer)
        hidden_sort_allowed = not stmt.set_ops and not stmt.distinct \
            and not stmt.group_by and self._core_scope is not None
        core_scope = self._core_scope
        for op_name, all_flag, rhs_stmt in stmt.set_ops:
            if rhs_stmt.provenance:
                raise AnalyzerError(
                    "PROVENANCE is only allowed on the first branch of a "
                    "set operation")
            rhs = self._analyze_core(rhs_stmt, outer)
            if len(rhs.schema) != len(plan.schema):
                raise AnalyzerError(
                    f"{op_name.upper()} branches have different numbers of "
                    f"columns ({len(plan.schema)} vs {len(rhs.schema)})")
            plan = SetOp(_SET_OP_KINDS[op_name], plan, rhs, all=all_flag)
        if stmt.order_by:
            try:
                plan = Sort(plan, self._order_keys(stmt.order_by, plan))
            except AnalyzerError:
                if not hidden_sort_allowed:
                    raise
                plan = self._hidden_sort(plan, stmt, core_scope)
        if stmt.limit is not None or stmt.offset:
            plan = Limit(plan, stmt.limit, stmt.offset)
        return plan

    def _hidden_sort(self, plan: Operator, stmt: SelectStmt,
                     scope: Scope) -> Operator:
        """ORDER BY over non-output expressions (standard SQL): extend
        the final projection with hidden key columns, sort, re-project.

        Only for simple cores (no DISTINCT / GROUP BY / set ops), where
        the sort keys can still see the FROM scope."""
        if not isinstance(plan, Project):
            raise AnalyzerError(
                "ORDER BY keys must be output column labels or ordinals")
        labels = list(plan.schema.names)
        taken = set(labels)
        items = list(plan.items)
        keys: list[SortKey] = []
        for item in stmt.order_by:
            expr = item.expr
            if isinstance(expr, Const) and isinstance(expr.value, int):
                if not 1 <= expr.value <= len(labels):
                    raise AnalyzerError(
                        f"ORDER BY position {expr.value} out of range")
                keys.append(SortKey(Col(labels[expr.value - 1]),
                                    item.ascending))
                continue
            if isinstance(expr, Col):
                name = expr.name.rpartition(".")[2]
                if name in labels:
                    keys.append(SortKey(Col(name), item.ascending))
                    continue
            analyzed = self._analyze_expr(expr, scope)
            if _has_aggregate(analyzed):
                raise AnalyzerError(
                    "aggregates in ORDER BY must appear in the select "
                    "list")
            hidden = disambiguate("order_key", taken)
            items.append((hidden, analyzed))
            keys.append(SortKey(Col(hidden), item.ascending))
        extended = Project(plan.input, items)
        sorted_plan = Sort(extended, keys)
        final_items = [(label, Col(label)) for label in labels]
        return Project(sorted_plan, final_items)

    def _order_keys(self, order_by: list[OrderItem],
                    plan: Operator) -> list[SortKey]:
        labels = plan.schema.names
        keys = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, Const) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(labels):
                    raise AnalyzerError(
                        f"ORDER BY position {position} out of range")
                keys.append(SortKey(Col(labels[position - 1]),
                                    item.ascending))
                continue
            if isinstance(expr, Col):
                name = expr.name.rpartition(".")[2]
                if name in labels:
                    keys.append(SortKey(Col(name), item.ascending))
                    continue
            # no repr of *expr*: an unanalyzed sublink cannot print itself
            raise AnalyzerError(
                "ORDER BY keys must be output column labels or ordinals")
        return keys

    def _analyze_delete(self, stmt: DeleteStmt) -> Operator:
        """``Select(BaseRelation)`` with no projection above it, so the
        row engine hands back the stored tuples themselves.  Columns
        resolve by bare name or as ``table.name``; sublinks see the
        table's columns as their (only) outer scope."""
        plan, entries = self._table_ref(TableRef(stmt.table), set())
        scope = Scope()
        scope.add_all(entries)
        return Select(plan, self._analyze_expr(stmt.where, scope))

    # -- one SELECT core ----------------------------------------------------------

    def _analyze_core(self, stmt: SelectStmt,
                      outer: Scope | None) -> Operator:
        if stmt.provenance and outer is not None:
            raise AnalyzerError(
                "SELECT PROVENANCE is only supported at the top level")
        scope = Scope(outer)
        plan = self._analyze_from(stmt.from_items, scope, outer)

        if stmt.where is not None:
            condition = self._analyze_expr(stmt.where, scope)
            plan = Select(plan, condition)

        analyzed_items = self._expand_items(stmt.items, scope)
        having = (self._analyze_expr(stmt.having, scope)
                  if stmt.having is not None else None)

        needs_aggregation = bool(stmt.group_by) or any(
            _has_aggregate(expr) for _, expr in analyzed_items) or (
            having is not None and _has_aggregate(having))
        if needs_aggregation:
            plan, analyzed_items, having = self._plan_aggregation(
                stmt, scope, plan, analyzed_items, having)
        elif having is not None:
            raise AnalyzerError("HAVING requires GROUP BY or aggregates")

        if having is not None:
            plan = Select(plan, having)

        labels = self._assign_labels(stmt.items, analyzed_items)
        items = [(label, expr)
                 for label, (_, expr) in zip(labels, analyzed_items)]
        self._core_scope = scope
        return Project(plan, items, distinct=stmt.distinct)

    # -- FROM clause ------------------------------------------------------------

    def _analyze_from(self, from_items: list, scope: Scope,
                      outer: Scope | None) -> Operator:
        if not from_items:
            return Values(Schema([]), [()])
        aliases: set[str] = set()
        plan: Operator | None = None
        for item in from_items:
            item_plan, entries = self._from_item(item, aliases, outer)
            scope.add_all(entries)
            plan = item_plan if plan is None else \
                Join(plan, item_plan, TRUE, JoinKind.CROSS)
        return plan

    def _from_item(self, item: Any, aliases: set[str],
                   outer: Scope | None
                   ) -> tuple[Operator, list[tuple[str, str, str]]]:
        if isinstance(item, TableRef):
            return self._table_ref(item, aliases)
        if isinstance(item, SubqueryRef):
            return self._subquery_ref(item, aliases)
        if isinstance(item, JoinExpr):
            return self._join_expr(item, aliases, outer)
        raise AnalyzerError(f"unsupported FROM item {item!r}")

    def _register_alias(self, alias: str, aliases: set[str]) -> str:
        if alias in aliases:
            raise AnalyzerError(
                f"duplicate table alias {alias!r} in FROM clause")
        aliases.add(alias)
        return alias

    def _table_ref(self, item: TableRef, aliases: set[str]):
        alias = self._register_alias(item.alias or item.name, aliases)
        if item.name in self.views:
            view_plan = self.analyze(self.views[item.name], outer=None)
            return self._wrap_derived(view_plan, alias)
        stored = self.catalog.get(item.name)
        attributes = [
            Attribute(f"{alias}.{attr.name}", attr.type)
            for attr in stored.schema]
        plan = BaseRelation(item.name, alias, Schema(attributes))
        entries = [(alias, attr.name, f"{alias}.{attr.name}")
                   for attr in stored.schema]
        return plan, entries

    def _subquery_ref(self, item: SubqueryRef, aliases: set[str]):
        alias = self._register_alias(item.alias, aliases)
        if item.query.provenance:
            raise AnalyzerError(
                "SELECT PROVENANCE is only supported at the top level")
        # Derived tables are uncorrelated (no LATERAL support).
        sub_plan = self.analyze(item.query, outer=None)
        return self._wrap_derived(sub_plan, alias)

    def _wrap_derived(self, sub_plan: Operator, alias: str):
        items = [(f"{alias}.{label}", Col(label))
                 for label in sub_plan.schema.names]
        plan = Project(sub_plan, items)
        entries = [(alias, label, f"{alias}.{label}")
                   for label in sub_plan.schema.names]
        return plan, entries

    def _join_expr(self, item: JoinExpr, aliases: set[str],
                   outer: Scope | None):
        left_plan, left_entries = self._from_item(item.left, aliases, outer)
        right_plan, right_entries = self._from_item(
            item.right, aliases, outer)
        entries = left_entries + right_entries
        if item.kind == "cross" or item.condition is None:
            return (Join(left_plan, right_plan, TRUE, JoinKind.CROSS),
                    entries)
        local = Scope(outer)
        local.add_all(entries)
        condition = self._analyze_expr(item.condition, local)
        if condition.has_sublink and item.kind != "left":
            # normalize so the provenance rewriter sees sublinks only in
            # selections; LEFT JOIN keeps them (executable, but the
            # rewriter will reject computing provenance through them)
            return (Select(Join(left_plan, right_plan, TRUE,
                                JoinKind.CROSS), condition), entries)
        kind = JoinKind.LEFT if item.kind == "left" else JoinKind.INNER
        return Join(left_plan, right_plan, condition, kind), entries

    # -- select list ---------------------------------------------------------------

    def _expand_items(self, items: list[SelectItem], scope: Scope
                      ) -> list[tuple[SelectItem, Expr]]:
        expanded: list[tuple[SelectItem, Expr]] = []
        for item in items:
            if isinstance(item.expr, Star):
                qualifier = item.expr.qualifier
                matched = False
                for entry_qualifier, sql_name, unique in scope.entries:
                    if qualifier is None or entry_qualifier == qualifier:
                        matched = True
                        expanded.append(
                            (SelectItem(Col(sql_name), None), Col(unique)))
                if not matched:
                    raise AnalyzerError(
                        f"no columns match {qualifier or ''}.*")
                continue
            expanded.append((item, self._analyze_expr(item.expr, scope)))
        return expanded

    def _assign_labels(self, raw_items: list[SelectItem],
                       analyzed: list[tuple[SelectItem, Expr]]) -> list[str]:
        taken: set[str] = set()
        labels = []
        for position, (item, expr) in enumerate(analyzed):
            if item.alias:
                label = item.alias
            elif isinstance(item.expr, Col):
                label = item.expr.name.rpartition(".")[2]
            elif isinstance(item.expr, (AggCall,)):
                label = item.expr.name
            elif hasattr(item.expr, "name") and isinstance(
                    getattr(item.expr, "name"), str):
                label = getattr(item.expr, "name")
            else:
                label = f"col{position + 1}"
            labels.append(disambiguate(label, taken))
        return labels

    # -- aggregation --------------------------------------------------------------------

    def _plan_aggregation(self, stmt: SelectStmt, scope: Scope,
                          plan: Operator,
                          analyzed_items: list[tuple[SelectItem, Expr]],
                          having: Expr | None):
        taken = set(plan.schema.names)
        group_exprs = [self._analyze_expr(g, scope) for g in stmt.group_by]

        pre_items: list[tuple[str, Expr]] = [
            (name, Col(name)) for name in plan.schema.names]
        group_columns: list[str] = []
        group_replacements: list[tuple[Expr, str]] = []
        for position, expr in enumerate(group_exprs):
            if isinstance(expr, Col) and expr.level == 0:
                group_columns.append(expr.name)
                continue
            name = disambiguate(f"group_{position}", taken)
            pre_items.append((name, expr))
            group_columns.append(name)
            group_replacements.append((expr, name))

        # Collect aggregate calls from the select items and HAVING,
        # normalizing arguments into pre-projection columns.
        agg_outputs: list[tuple[str, AggCall]] = []
        agg_keys: dict[tuple, str] = {}

        def normalize_agg(call: AggCall) -> str:
            arg_key: tuple
            arg: Expr | None
            if call.arg is None:
                arg = None
                arg_key = ("*",)
            elif isinstance(call.arg, Col) and call.arg.level == 0:
                arg = call.arg
                arg_key = ("col", call.arg.name)
            else:
                existing = next(
                    (name for name, expr in pre_items
                     if expr == call.arg and not isinstance(expr, Col)),
                    None)
                if existing is None:
                    existing = disambiguate(
                        f"aggarg_{len(pre_items)}", taken)
                    pre_items.append((existing, call.arg))
                arg = Col(existing)
                arg_key = ("col", existing)
            key = (call.name, call.distinct, arg_key)
            if key not in agg_keys:
                name = disambiguate(f"agg_{len(agg_outputs)}", taken)
                agg_keys[key] = name
                agg_outputs.append(
                    (name, AggCall(call.name, arg, call.distinct)))
            return agg_keys[key]

        def rewrite_expr(expr: Expr) -> Expr:
            for target, column in group_replacements:
                if expr == target:
                    return Col(column)

            def rule(node: Expr) -> Expr | None:
                if isinstance(node, AggCall):
                    return Col(normalize_agg(node))
                for target, column in group_replacements:
                    if node == target:
                        return Col(column)
                return None

            return transform(expr, rule)

        new_items = [(item, rewrite_expr(expr))
                     for item, expr in analyzed_items]
        new_having = rewrite_expr(having) if having is not None else None

        pre_plan = Project(plan, pre_items) \
            if len(pre_items) > len(plan.schema) else plan
        aggregate = Aggregate(pre_plan, group_columns, agg_outputs)

        self._validate_grouped(
            [expr for _, expr in new_items]
            + ([new_having] if new_having is not None else []),
            aggregate.schema)
        return aggregate, new_items, new_having

    def _validate_grouped(self, exprs: list[Expr],
                          schema: Schema) -> None:
        for expr in exprs:
            for node in _walk_level0(expr):
                if node.name not in schema:
                    raise AnalyzerError(
                        f"column {node.name!r} must appear in GROUP BY or "
                        f"be used in an aggregate function")

    # -- expressions -----------------------------------------------------------------------

    def _analyze_expr(self, expr: Expr, scope: Scope) -> Expr:
        def rule(node: Expr) -> Expr | None:
            if isinstance(node, Col):
                unique, level = scope.resolve(node.name)
                return Col(unique, level)
            if isinstance(node, Sublink):
                return self._analyze_sublink(node, scope)
            if isinstance(node, AggCall) and node.arg is not None and \
                    _has_aggregate_strict(node.arg):
                raise AnalyzerError(
                    "aggregate calls cannot be nested")
            return None

        return transform(expr, rule)

    def _analyze_sublink(self, node: Sublink, scope: Scope) -> Sublink:
        if not isinstance(node.query, SelectStmt):
            return node  # already analyzed (algebra-level construction)
        if node.query.provenance:
            raise AnalyzerError(
                "SELECT PROVENANCE is only supported at the top level")
        query_plan = self.analyze(node.query, outer=scope)
        if node.kind != SublinkKind.EXISTS and len(query_plan.schema) != 1:
            raise AnalyzerError(
                f"{node.kind.name} sublink queries must return exactly one "
                f"column (got {len(query_plan.schema)})")
        # node.test was already column-resolved by the surrounding
        # transform's bottom-up order.
        return Sublink(node.kind, query_plan, node.op, node.test)


def _walk_level0(expr: Expr):
    """Level-0 column references, skipping sublink query internals (where
    level-0 means the sublink's own scope)."""
    if isinstance(expr, Col) and expr.level == 0:
        yield expr
    for child in expr.children():
        yield from _walk_level0(child)


def _has_aggregate(expr: Expr) -> bool:
    if isinstance(expr, AggCall):
        return True
    return any(_has_aggregate(child) for child in expr.children())


def _has_aggregate_strict(expr: Expr) -> bool:
    return _has_aggregate(expr)
