"""Cardinality estimation and the cost model.

The estimator walks a *logical* operator tree and predicts output row
counts from the catalog's statistics (:mod:`repro.stats`), falling back
to live table sizes (tables are in-memory, so a row count is always
available) and textbook default selectivities when a table was never
``ANALYZE``d.  Alongside each estimate it tracks, per visible column,
which base-table column it descends from, so selections arbitrarily far
above a scan still resolve to that column's statistics.

Consumers:

* physical lowering (:mod:`repro.engine.lowering`) — selectivity-ordered
  filter conjuncts, the HashJoin / IndexNestedLoopJoin / IndexScan
  choices, and the ``est_rows`` / ``est_cost`` annotations shown by
  ``EXPLAIN``;
* the logical optimizer (:mod:`repro.engine.optimizer`) — greedy
  cost-based join ordering;
* the provenance planner (:mod:`repro.provenance.planner`) — the
  ``auto`` strategy choice from estimated input and sublink
  cardinalities (:func:`strategy_costs`).

Every estimate is clamped to be non-negative and never exceeds what its
input can produce, so downstream arithmetic stays sane even on
pathological predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number
from typing import Any

from ..catalog import Catalog
from ..datatypes import FLIPPED_COMPARISON
from ..errors import CatalogError
from ..expressions.ast import (
    BoolOp, Col, Comparison, Const, Expr, IsNull, Like, Not, NullSafeEq,
    Sublink,
)
from ..algebra.operators import (
    Aggregate, BaseRelation, Join, JoinKind, Limit, Operator, Project,
    Select, SetOp, SetOpKind, Sort, Values,
)
from ..stats import ColumnStats

# -- default selectivities (used when statistics cannot answer) -------------

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1 / 3
DEFAULT_SUBLINK_SELECTIVITY = 0.5
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_NULL_FRACTION = 0.05
#: Row count assumed for a table the estimator cannot see at all.
DEFAULT_TABLE_ROWS = 1000.0

# -- per-row cost constants (arbitrary units: one row touched ~ 1.0) --------

HASH_BUILD_COST = 1.5      # insert one row into a join hash table
HASH_PROBE_COST = 1.0      # probe the table with one row
INDEX_PROBE_COST = 2.0     # one secondary-index lookup
NLJ_COMPARE_COST = 1.0     # one nested-loop condition evaluation
SORT_FACTOR = 2.0          # per row·log2(rows)

# -- provenance-strategy cost model -----------------------------------------
# Setup terms model fixed plan complexity (operators built, expressions
# compiled); the data terms model the joins each rewrite executes.  The
# constants encode the paper's measured ordering — Unn's hash join wins
# whenever applicable, Gen's minimal plan wins on small inputs, Left
# overtakes Gen as the quadratic term grows (Gen pays an extra factor for
# per-row sublink predicate evaluation), Move tracks Left.

UNN_SETUP = 16.0
GEN_SETUP = 16.0
LEFT_SETUP = 96.0
GEN_DATA_FACTOR = 1.15
MOVE_DATA_FACTOR = 1.05


def strategy_costs(input_rows: float, sublink_rows: float,
                   correlated: bool) -> dict[str, float]:
    """Estimated execution cost of each rewrite strategy.

    *input_rows* is the sublink-bearing operator's input cardinality,
    *sublink_rows* the summed cardinality of its sublink queries.
    Applicability is the caller's concern — this only prices the plans.
    """
    join_work = input_rows * (sublink_rows + 1.0)
    gen_work = join_work
    if correlated:
        # correlated sublinks re-execute per outer row (SubPlan)
        gen_work = input_rows * (sublink_rows + 2.0)
    return {
        "unn": UNN_SETUP + input_rows + 2.0 * sublink_rows,
        "left": LEFT_SETUP + join_work,
        "move": LEFT_SETUP + MOVE_DATA_FACTOR * join_work,
        "gen": GEN_SETUP + GEN_DATA_FACTOR * gen_work,
    }


# -- column lineage ----------------------------------------------------------

@dataclass(frozen=True)
class ColumnOrigin:
    """Where a visible column comes from: a base-table column plus that
    table's estimated row count (for unique-index and 1/n heuristics)."""

    table: str
    column: str
    table_rows: float
    stats: ColumnStats | None


ColumnMap = dict[str, ColumnOrigin]


class CardinalityEstimator:
    """Estimates logical-operator output cardinalities over a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        # Memoized per operator identity.  The operator itself is kept in
        # the entry: id() values may be reused once an object is freed,
        # and callers (the greedy join-ordering pass) estimate transient
        # candidate trees — holding the reference pins the identity for
        # the estimator's lifetime, so a later allocation can never alias
        # a dead candidate's cached estimate.
        self._memo: dict[int, tuple[Operator, float, ColumnMap]] = {}

    # -- public API ----------------------------------------------------------

    def estimate(self, op: Operator) -> float:
        """Estimated output rows of *op* (>= 0)."""
        return self._visit(op)[0]

    def selectivity(self, condition: Expr, op_input: Operator) -> float:
        """Estimated fraction of *op_input*'s rows satisfying *condition*."""
        return self._selectivity(condition, self._visit(op_input)[1])

    def table_rows(self, table: str) -> float:
        """Row count of a base table: statistics first, live size second."""
        stats = self.catalog.stats.get(table)
        if stats is not None:
            return float(stats.row_count)
        try:
            return float(len(self.catalog.get(table).rows))
        except CatalogError:
            return DEFAULT_TABLE_ROWS

    def equality_matches(self, table: str, column: str) -> float:
        """Expected rows of *table* matching ``column = <one value>``."""
        rows = self.table_rows(table)
        stats = self.catalog.stats.get(table)
        column_stats = stats.column(column) if stats is not None else None
        if column_stats is not None and column_stats.n_distinct > 0:
            return max(rows / column_stats.n_distinct, 0.0)
        if self.catalog.has_unique_index(table, column):
            return 1.0 if rows >= 1 else 0.0
        return rows * DEFAULT_EQ_SELECTIVITY

    # -- operator walk -------------------------------------------------------

    def _visit(self, op: Operator) -> tuple[float, ColumnMap]:
        cached = self._memo.get(id(op))
        if cached is None:
            rows, columns = self._compute(op)
            self._memo[id(op)] = (op, rows, columns)
            return rows, columns
        _, rows, columns = cached
        return rows, columns

    def _compute(self, op: Operator) -> tuple[float, ColumnMap]:
        if isinstance(op, BaseRelation):
            return self._base_relation(op)
        if isinstance(op, Values):
            return float(len(op.rows)), {}
        if isinstance(op, Select):
            rows, columns = self._visit(op.input)
            fraction = self._selectivity(op.condition, columns)
            return rows * fraction, columns
        if isinstance(op, Project):
            return self._project(op)
        if isinstance(op, Join):
            return self._join(op)
        if isinstance(op, Aggregate):
            return self._aggregate(op)
        if isinstance(op, SetOp):
            left, _ = self._visit(op.left)
            right, _ = self._visit(op.right)
            if op.kind == SetOpKind.UNION:
                return left + right, {}
            if op.kind == SetOpKind.INTERSECT:
                return min(left, right), {}
            return left, {}
        if isinstance(op, Sort):
            return self._visit(op.input)
        if isinstance(op, Limit):
            rows, columns = self._visit(op.input)
            if op.count is not None:
                rows = min(rows, float(op.count))
            return rows, columns
        # unknown operator: product of children (cross-product-like upper
        # bound), merged lineage
        rows = 1.0
        columns: ColumnMap = {}
        for child in op.children():
            child_rows, child_columns = self._visit(child)
            rows *= max(child_rows, 1.0)
            columns.update(child_columns)
        return rows, columns

    def _base_relation(self, op: BaseRelation) -> tuple[float, ColumnMap]:
        rows = self.table_rows(op.table)
        stats = self.catalog.stats.get(op.table)
        columns: ColumnMap = {}
        try:
            stored = self.catalog.get(op.table).schema
        except CatalogError:
            return rows, columns
        for name, column in zip(op.schema.names, stored.names):
            column_stats = stats.column(column) \
                if stats is not None else None
            columns[name] = ColumnOrigin(op.table, column, rows, column_stats)
        return rows, columns

    def _project(self, op: Project) -> tuple[float, ColumnMap]:
        rows, columns = self._visit(op.input)
        projected: ColumnMap = {}
        for name, expr in zip(op.names, op.exprs):
            if isinstance(expr, Col) and expr.level == 0 \
                    and expr.name in columns:
                projected[name] = columns[expr.name]
        if op.distinct:
            distinct = 1.0
            known = True
            for name in op.names:
                origin = projected.get(name)
                if origin is None or origin.stats is None:
                    known = False
                    break
                distinct *= max(origin.stats.n_distinct, 1)
            if known:
                rows = min(rows, distinct)
        return rows, projected

    def _join(self, op: Join) -> tuple[float, ColumnMap]:
        left_rows, left_columns = self._visit(op.left)
        right_rows, right_columns = self._visit(op.right)
        columns = {**left_columns, **right_columns}
        rows = left_rows * right_rows
        rows *= self._selectivity(op.condition, columns)
        if op.kind == JoinKind.LEFT:
            rows = max(rows, left_rows)   # unmatched left rows are padded
        return rows, columns

    def _aggregate(self, op: Aggregate) -> tuple[float, ColumnMap]:
        rows, columns = self._visit(op.input)
        if not op.group:
            return 1.0, {}
        groups = 1.0
        kept: ColumnMap = {}
        for name in op.group:
            origin = columns.get(name)
            if origin is not None:
                kept[name] = origin
            if origin is not None and origin.stats is not None:
                groups *= max(origin.stats.n_distinct, 1)
            else:
                groups *= max(rows ** 0.5, 1.0)
        return min(rows, groups), kept

    # -- predicate selectivity ------------------------------------------------

    def _selectivity(self, condition: Expr, columns: ColumnMap) -> float:
        return _clamp(self._selectivity_raw(condition, columns))

    def _selectivity_raw(self, expr: Expr, columns: ColumnMap) -> float:
        if isinstance(expr, Const):
            if expr.value is True:
                return 1.0
            return 0.0   # FALSE or NULL condition keeps nothing
        if isinstance(expr, BoolOp):
            parts = [self._selectivity(item, columns)
                     for item in expr.items]
            if expr.op == "and":
                result = 1.0
                for part in parts:
                    result *= part
                return result
            result = 1.0
            for part in parts:
                result *= (1.0 - part)
            return 1.0 - result
        if isinstance(expr, Not):
            return 1.0 - self._selectivity(expr.operand, columns)
        if isinstance(expr, (Comparison, NullSafeEq)):
            return self._comparison(expr, columns)
        if isinstance(expr, IsNull):
            origin = self._origin(expr.operand, columns)
            if origin is not None and origin.stats is not None:
                return origin.stats.null_frac
            return DEFAULT_NULL_FRACTION
        if isinstance(expr, Like):
            return DEFAULT_LIKE_SELECTIVITY
        if isinstance(expr, Sublink):
            return DEFAULT_SUBLINK_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    def _comparison(self, expr: Comparison | NullSafeEq,
                    columns: ColumnMap) -> float:
        op = "=" if isinstance(expr, NullSafeEq) else expr.op
        left_origin = self._origin(expr.left, columns)
        right_origin = self._origin(expr.right, columns)
        left_value = _const_value(expr.left)
        right_value = _const_value(expr.right)

        # SQL three-valued logic: any comparison with a literal NULL is
        # unknown for every row, so the selection keeps nothing — for
        # every operator, '<>' and ranges included.  (NullSafeEq is the
        # exception: NULL =n NULL is TRUE, so fall through for it.)
        if not isinstance(expr, NullSafeEq) and \
                (left_value is None or right_value is None):
            return 0.0

        if op in ("=", "<>"):
            equality = self._equality(left_origin, right_origin,
                                      left_value, right_value)
            return equality if op == "=" else 1.0 - equality
        # range comparison: interpolate against min/max when one side is a
        # known constant over a column with numeric bounds
        origin, value, flipped = left_origin, right_value, False
        if origin is None or value is None:
            origin, value, flipped = right_origin, left_value, True
        if origin is not None and value is not None:
            fraction = _range_fraction(origin.stats, op, value, flipped)
            if fraction is not None:
                return fraction
        return DEFAULT_RANGE_SELECTIVITY

    def _equality(self, left: ColumnOrigin | None,
                  right: ColumnOrigin | None, left_value: Any,
                  right_value: Any) -> float:
        if left is not None and right is not None:
            # join-style column equality: 1 / max distinct count
            distinct = max(self._distinct(left), self._distinct(right), 1.0)
            return 1.0 / distinct
        origin = left if left is not None else right
        value = right_value if left is not None else left_value
        if origin is None:
            return DEFAULT_EQ_SELECTIVITY
        if value is not _UNKNOWN and origin.stats is not None:
            fraction = origin.stats.eq_fraction(value)
            if fraction is not None:
                return fraction
        if origin.stats is not None and origin.stats.n_distinct > 0:
            return 1.0 / origin.stats.n_distinct
        if self.catalog.has_unique_index(origin.table, origin.column):
            return 1.0 / max(origin.table_rows, 1.0)
        return DEFAULT_EQ_SELECTIVITY

    def _distinct(self, origin: ColumnOrigin) -> float:
        if origin.stats is not None and origin.stats.n_distinct > 0:
            return float(origin.stats.n_distinct)
        if self.catalog.has_unique_index(origin.table, origin.column):
            return max(origin.table_rows, 1.0)
        return max(origin.table_rows * DEFAULT_EQ_SELECTIVITY, 1.0)

    @staticmethod
    def _origin(expr: Expr | None,
                columns: ColumnMap) -> ColumnOrigin | None:
        if isinstance(expr, Col) and expr.level == 0:
            return columns.get(expr.name)
        return None


class _Unknown:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unknown>"


_UNKNOWN = _Unknown()


def _const_value(expr: Expr | None) -> Any:
    """The literal value of *expr*, or the ``_UNKNOWN`` sentinel (so a
    literal NULL stays distinguishable from "not a constant")."""
    if isinstance(expr, Const):
        return expr.value
    return _UNKNOWN


def _range_fraction(stats: ColumnStats | None, op: str, value: Any,
                    flipped: bool) -> float | None:
    """Linear interpolation of ``column <op> value`` against min/max."""
    if stats is None or not isinstance(value, Number):
        return None
    low, high = stats.min_value, stats.max_value
    if not isinstance(low, Number) or not isinstance(high, Number):
        return None
    if flipped:   # value <op> column  ->  column <flipped-op> value
        op = FLIPPED_COMPARISON.get(op, op)
    if high == low:
        below = 1.0 if value >= high else 0.0
    else:
        below = (float(value) - float(low)) / (float(high) - float(low))
    below = _clamp(below)
    fraction = below if op in ("<", "<=") else 1.0 - below
    non_null = 1.0 - stats.null_frac
    return _clamp(fraction) * non_null


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))
