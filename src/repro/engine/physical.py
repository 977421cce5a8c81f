"""Physical plan nodes and the batched ``open()/next_batch()/close()``
execution protocol.

The optimizer's second phase (:mod:`repro.engine.lowering`) lowers a
logical :mod:`repro.algebra.operators` tree into these nodes; the
engine (:mod:`repro.engine.executor`) then drives the root with
``open`` / ``next_batch`` / ``close`` over fixed-size row batches — the
Volcano protocol, vectorized, with late materialization into a
:class:`~repro.relation.Relation` only at the sink.

The physical operator set makes the execution decisions the logical
algebra leaves open — the decisions the paper's Figures 6-9 measure:

* :class:`HashJoin` vs :class:`NestedLoopJoin` — equi-join conjuncts are
  split out at lowering time, so the Unn strategy's equality joins hash
  while Left/Move's disjunctive ``Jsub`` conditions nested-loop;
* :class:`InitPlanSublink` vs :class:`SubPlanSublink` — uncorrelated
  sublinks execute once per statement (PostgreSQL's InitPlan),
  correlated ones once per outer row (parameterized SubPlan);
* :class:`StreamingLimit` — stops pulling from its child once satisfied
  instead of materializing the full input.

Nodes carry their batch-compiled expression closures (built lazily on
first use and cached *on the physical node*, so a plan-cached statement
re-executes without recompiling).  A physical plan holds per-execution
state only between ``open`` and ``close``; single-threaded re-execution
of a cached plan is safe because ``open`` resets everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..datatypes import is_true
from ..expressions.ast import Expr, Sublink
from ..expressions.compiler import (
    BatchFilter, BatchProjector, BatchValues, RowCompiled,
    compile_batch_predicate, compile_batch_projector, compile_batch_values,
    compile_row,
)
from ..expressions.evaluator import EvalContext, Frame
from ..expressions.aggregates import make_accumulator
from ..expressions.printer import format_expr
from ..algebra.operators import JoinKind, SetOpKind, SortKey
from ..relation import Relation
from ..schema import Schema

if TYPE_CHECKING:
    from .executor import Executor
    from .stats import ExecutionStats


class SublinkPlan:
    """A lowered sublink query attached to the physical node whose
    expressions reference it, keyed by the identity of the *logical*
    query tree (which is what the expression evaluator hands back to the
    engine's ``run_subquery`` hook)."""

    __slots__ = ("sublink", "query", "plan")

    correlated = False

    def __init__(self, sublink: Sublink, query: Any,
                 plan: "PhysicalOperator") -> None:
        self.sublink = sublink
        self.query = query        # logical operator tree (identity key)
        self.plan = plan

    @property
    def label(self) -> str:
        return (f"{type(self).__name__} "
                f"({self.sublink.kind.value})")


class InitPlanSublink(SublinkPlan):
    """An uncorrelated sublink: executed at most once per statement, the
    result cached for every later evaluation (PostgreSQL's InitPlan).

    The executor caches the result as
    :class:`~repro.expressions.probe.InitPlanRows`, so an ANY/ALL test
    against it is a hashed probe, not a scan (PostgreSQL's hashed
    SubPlan): ``= ANY`` / ``<> ALL`` look the test value up in a set of
    the first column, ``<``/``<=``/``>``/``>=`` compare it with the
    column's max or min.  The probe keeps the scan's 3VL — a miss is NULL
    when the column holds a NULL, an empty result makes ANY FALSE and ALL
    TRUE, a NULL test value is NULL over a non-empty result — and hands
    back to the scan when the column mixes comparison classes or holds a
    NaN, or the test value is NaN or of another class.  Nothing of the
    probe is stored on this node: it lives and dies with the executor."""

    correlated = False


class SubPlanSublink(SublinkPlan):
    """A correlated sublink: re-executed for every outer row with the
    outer frames bound (PostgreSQL's parameterized SubPlan)."""

    correlated = True


class PhysicalOperator:
    """Base class of physical plan nodes.

    Subclasses implement ``_reset`` (per-execution state) and
    ``next_batch``; ``open`` wires the engine and outer frames through the
    tree and ``close`` releases per-execution state.

    ``est_rows`` / ``est_cost`` are the cost model's predictions, filled
    in by catalog-aware lowering and rendered by ``EXPLAIN`` (estimated
    vs actual under ``EXPLAIN ANALYZE``); both stay None when lowering
    ran without a catalog.
    """

    __slots__ = ("engine", "frames", "sublinks", "est_rows", "est_cost")

    #: The batch type ``next_batch`` produces: ``"rows"`` (list of row
    #: tuples) or ``"columnar"`` (a ColumnBatch).  The vectorized engine
    #: inserts bridges wherever the formats meet.
    batch_format = "rows"
    #: Format-conversion bridges are excluded from the vectorized vs
    #: row-fallback node counts EXPLAIN ANALYZE reports.
    is_bridge = False

    def __init__(self) -> None:
        self.engine = None
        self.frames: tuple = ()
        self.sublinks: tuple[SublinkPlan, ...] = ()
        self.est_rows: float | None = None
        self.est_cost: float | None = None

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def open(self, engine: Executor,
             frames: tuple) -> None:
        self.engine = engine
        self.frames = frames
        engine.stats.bump(self)
        engine.stats.node(self).loops += 1
        self._reset()
        for child in self.children():
            child.open(engine, frames)

    def _reset(self) -> None:
        pass

    def next_batch(self) -> list | None:
        raise NotImplementedError

    def close(self) -> None:
        self.engine = None
        self.frames = ()
        self._release()
        for child in self.children():
            child.close()

    def _release(self) -> None:
        """Drop materialized per-execution state (hash tables, sorted
        buffers, ...) so a plan-cached node does not pin the previous
        execution's intermediates between statements.  ``_reset`` rebuilds
        everything on the next ``open``."""

    def label(self) -> str:
        return type(self).__name__


class PhysicalPlan:
    """A lowered statement: the physical root plus the logical tree it
    came from (kept alive — sublink registry keys are logical-node
    identities) and the output schema for the sink relation."""

    __slots__ = ("root", "logical", "schema", "subplans", "vectorized",
                 "vector_counts")

    def __init__(self, root: PhysicalOperator, logical: Any,
                 schema: Schema, subplans: dict[int, SublinkPlan]) -> None:
        self.root = root
        self.logical = logical
        self.schema = schema
        self.subplans = subplans
        #: Set by :func:`repro.engine.vectorized.vectorize_plan` once the
        #: in-place columnar rewrite ran (idempotency guard); counts is
        #: then ``(columnar_nodes, row_fallback_nodes)``.
        self.vectorized = False
        self.vector_counts: tuple[int, int] | None = None

    def nodes(self) -> Iterator[PhysicalOperator]:
        """All physical nodes of the plan, sublink plans included."""
        stack: list[PhysicalOperator] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())
            for sub in node.sublinks:
                stack.append(sub.plan)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

class SeqScan(PhysicalOperator):
    """Batched scan of a catalog table (rows fetched at ``open`` so DML
    between executions of a cached plan is visible)."""

    __slots__ = ("table", "alias", "names", "_rows", "_pos")

    def __init__(self, table: str, alias: str, names: tuple[str, ...]) -> None:
        super().__init__()
        self.table = table
        self.alias = alias
        self.names = names
        self._rows: Sequence[tuple] = ()
        self._pos = 0

    def _reset(self) -> None:
        self._rows = self.engine.catalog.get(self.table).rows
        self._pos = 0

    def _release(self) -> None:
        self._rows = ()

    def next_batch(self) -> list | None:
        if self._pos >= len(self._rows):
            return None
        batch = self._rows[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(batch)
        return batch

    def label(self) -> str:
        return f"SeqScan {self.table} as {self.alias} -> {list(self.names)}"


class IndexScan(PhysicalOperator):
    """Scan of a catalog table through a secondary index.

    ``op`` is the lookup comparison (``=`` for point lookups on any index
    kind; ``< <= > >=`` for range scans, which require a sorted index).
    The key expression is evaluated once per ``open`` — it may reference
    outer frames (correlated sublinks) and ``?`` parameters, so a cached
    plan re-executes with fresh keys.  If the index disappeared between
    lowering and execution (plans lowered outside the session plan cache
    can outlive a ``DROP INDEX``), the scan degrades to a filtered
    sequential scan rather than failing.
    """

    __slots__ = ("table", "alias", "names", "column", "position", "op",
                 "key_expr", "index_kind", "_key_fn", "_rows", "_pos")

    def __init__(self, table: str, alias: str, names: tuple[str, ...],
                 column: str, position: int, op: str, key_expr: Expr,
                 index_kind: str) -> None:
        super().__init__()
        self.table = table
        self.alias = alias
        self.names = names
        self.column = column
        self.position = position
        self.op = op
        self.key_expr = key_expr
        self.index_kind = index_kind
        self._key_fn: RowCompiled | None = None
        self._rows: list[tuple] = []
        self._pos = 0

    def _key_value(self) -> Any:
        # no row of its own: every column the key names is an outer one
        if self._key_fn is None:
            self._key_fn = compile_row(self.key_expr, {})[0]
        return self._key_fn(
            (), EvalContext(self.frames, self.engine, self.engine.params))

    def _reset(self) -> None:
        self._pos = 0
        self.engine.stats.index_scans += 1
        catalog = self.engine.catalog
        table = catalog.get(self.table)
        kinds = ("sorted",) if self.op != "=" else None
        index = catalog.index_for(self.table, self.column, kinds)
        value = self._key_value()
        if value is None:
            self._rows = []    # NULL matches neither = nor ranges
            return
        if index is None:
            self._rows = self._scan_fallback(table.rows, value)
            return
        index.ensure(table.rows)
        try:
            if self.op == "=":
                # Hash buckets match by Python equality (where 1 == True),
                # but the equivalent SeqScan + Filter plan applies SQL
                # comparison semantics and errors on incomparable
                # operands — probe one real key first so both plans
                # match, and fail, alike.
                from ..datatypes import compare
                sample = index.sample_key()
                if sample is not None:
                    compare("=", sample, value)
                self._rows = index.lookup(value)
            elif self.op in ("<", "<="):
                self._rows = index.lookup_range(
                    None, value, high_inclusive=self.op == "<=")
            else:
                self._rows = index.lookup_range(
                    value, None, low_inclusive=self.op == ">=")
        except TypeError:
            # same error type the SeqScan + Filter plan raises for an
            # incomparable operand, instead of a raw bisect TypeError
            from ..errors import ExpressionError
            raise ExpressionError(
                f"cannot compare {self.column!r} values with "
                f"{type(value).__name__} ({value!r})") from None

    def _scan_fallback(self, rows: list[tuple],
                       value: Any) -> list[tuple]:
        from ..datatypes import compare
        position = self.position
        op = self.op
        return [row for row in rows
                if compare(op, row[position], value) is True]

    def _release(self) -> None:
        self._rows = []

    def next_batch(self) -> list | None:
        if self._pos >= len(self._rows):
            return None
        batch = self._rows[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(batch)
        return batch

    def label(self) -> str:
        return (f"IndexScan {self.table} as {self.alias} using "
                f"{self.index_kind} on {self.column} "
                f"{self.op} {format_expr(self.key_expr)}")


class ValuesScan(PhysicalOperator):
    """Batched scan of a literal relation."""

    __slots__ = ("rows", "names", "_pos")

    def __init__(self, rows: list[tuple], names: tuple[str, ...]) -> None:
        super().__init__()
        self.rows = rows
        self.names = names
        self._pos = 0

    def _reset(self) -> None:
        self._pos = 0

    def next_batch(self) -> list | None:
        if self._pos >= len(self.rows):
            return None
        batch = self.rows[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(batch)
        return batch

    def label(self) -> str:
        return f"ValuesScan {len(self.rows)} row(s) -> {list(self.names)}"


# ---------------------------------------------------------------------------
# Row pipelines
# ---------------------------------------------------------------------------

class Filter(PhysicalOperator):
    """Streaming selection: the predicate is batch-compiled once per node
    and applied to each input batch in a single call."""

    __slots__ = ("child", "condition", "index", "_fn")

    def __init__(self, child: PhysicalOperator, condition: Expr,
                 index: dict[str, int]) -> None:
        super().__init__()
        self.child = child
        self.condition = condition
        self.index = index
        self._fn = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _predicate(self) -> BatchFilter:
        if self._fn is None:
            self._fn = compile_batch_predicate(self.condition, self.index)
        return self._fn

    def next_batch(self) -> list | None:
        fn = self._predicate()
        engine = self.engine
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                return None
            out = fn(batch, self.frames, engine, engine.params)
            if out:
                return out

    def label(self) -> str:
        return f"Filter {format_expr(self.condition)}"


class Project(PhysicalOperator):
    """Streaming projection; ``distinct`` keeps first occurrences across
    the whole stream (bag -> set projection)."""

    __slots__ = ("child", "names", "exprs", "distinct", "index", "_fn",
                 "_seen")

    def __init__(self, child: PhysicalOperator, names: tuple[str, ...],
                 exprs: tuple[Expr, ...], distinct: bool,
                 index: dict[str, int]) -> None:
        super().__init__()
        self.child = child
        self.names = names      # the logical projection's own tuples
        self.exprs = exprs
        self.distinct = distinct
        self.index = index
        self._fn = None
        self._seen: dict | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._seen = {} if self.distinct else None

    def _projector(self) -> BatchProjector:
        if self._fn is None:
            self._fn = compile_batch_projector(self.exprs, self.index)
        return self._fn

    def next_batch(self) -> list | None:
        fn = self._projector()
        engine = self.engine
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                return None
            out = fn(batch, self.frames, engine, engine.params)
            if self.distinct:
                seen = self._seen
                fresh = []
                for row in out:
                    if row not in seen:
                        seen[row] = None
                        fresh.append(row)
                out = fresh
            if out:
                return out

    def label(self) -> str:
        kind = "Distinct" if self.distinct else "Project"
        items = ", ".join(f"{format_expr(expr)} AS {name}"
                          for name, expr in zip(self.names, self.exprs))
        return f"{kind} [{items}]"


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

class HashJoin(PhysicalOperator):
    """Equi-join: builds a hash table over the right input on first pull,
    then streams left batches through the probe.  NULL keys never join;
    LEFT kind pads unmatched left rows."""

    __slots__ = ("left", "right", "left_positions", "right_positions",
                 "residual", "kind", "right_width", "index",
                 "_table", "_residual_fn")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 keys: list[tuple[int, int]], residual: Expr | None,
                 kind: JoinKind, right_width: int, index: dict[str, int]) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_positions = tuple(l for l, _ in keys)
        self.right_positions = tuple(r for _, r in keys)
        self.residual = residual
        self.kind = kind
        self.right_width = right_width
        self.index = index
        self._table: dict | None = None
        self._residual_fn = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _reset(self) -> None:
        self._table = None
        self.engine.stats.hash_joins += 1

    def _release(self) -> None:
        self._table = None

    def _build(self) -> dict:
        table: dict[tuple, list[tuple]] = {}
        positions = self.right_positions
        engine = self.engine
        while True:
            batch = engine.pull(self.right)
            if batch is None:
                break
            for right in batch:
                key = tuple(right[p] for p in positions)
                if any(v is None for v in key):
                    continue  # NULL never equi-joins
                table.setdefault(key, []).append(right)
        return table

    def _residual(self) -> BatchFilter | None:
        if self.residual is None:
            return None
        if self._residual_fn is None:
            self._residual_fn = compile_batch_predicate(
                self.residual, self.index)
        return self._residual_fn

    def next_batch(self) -> list | None:
        if self._table is None:
            self._table = self._build()
        table = self._table
        residual = self._residual()
        engine = self.engine
        positions = self.left_positions
        pad_left = self.kind == JoinKind.LEFT
        null_pad = (None,) * self.right_width
        while True:
            batch = engine.pull(self.left)
            if batch is None:
                return None
            out: list[tuple] = []
            for left in batch:
                key = tuple(left[p] for p in positions)
                matched = False
                if not any(v is None for v in key):
                    bucket = table.get(key)
                    if bucket:
                        if residual is None:
                            for right in bucket:
                                out.append(left + right)
                            matched = True
                        else:
                            kept = residual(
                                [left + right for right in bucket],
                                self.frames, engine, engine.params)
                            if kept:
                                out.extend(kept)
                                matched = True
                if pad_left and not matched:
                    out.append(left + null_pad)
            if out:
                return out

    def label(self) -> str:
        keys = ", ".join(
            f"left[{l}] = right[{r}]"
            for l, r in zip(self.left_positions, self.right_positions))
        text = f"HashJoin {self.kind.value} on [{keys}]"
        if self.residual is not None:
            text += f" residual {format_expr(self.residual)}"
        return text


class NestedLoopJoin(PhysicalOperator):
    """General join: materializes the right input once, then streams the
    left.  ``condition=None`` is the pure cross product (logical
    condition TRUE)."""

    __slots__ = ("left", "right", "condition", "kind", "right_width",
                 "index", "_right_rows", "_pred", "_pred_needs_ctx")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 condition: Expr | None, kind: JoinKind, right_width: int,
                 index: dict[str, int]) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.right_width = right_width
        self.index = index
        self._right_rows: list[tuple] | None = None
        self._pred = None
        self._pred_needs_ctx = True

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _reset(self) -> None:
        self._right_rows = None
        if self.condition is not None:
            self.engine.stats.nested_loop_joins += 1

    def _release(self) -> None:
        self._right_rows = None

    def _materialize_right(self) -> list[tuple]:
        rows: list[tuple] = []
        while True:
            batch = self.engine.pull(self.right)
            if batch is None:
                return rows
            rows.extend(batch)

    def _predicate(self) -> RowCompiled:
        if self._pred is None:
            self._pred, self._pred_needs_ctx = compile_row(
                self.condition, self.index)
        return self._pred

    def next_batch(self) -> list | None:
        if self._right_rows is None:
            self._right_rows = self._materialize_right()
        right_rows = self._right_rows
        engine = self.engine
        pad_left = self.kind == JoinKind.LEFT
        null_pad = (None,) * self.right_width

        if self.condition is None:
            while True:
                batch = engine.pull(self.left)
                if batch is None:
                    return None
                if not right_rows:
                    if pad_left:
                        return [left + null_pad for left in batch]
                    continue
                return [left + right
                        for left in batch for right in right_rows]

        pred = self._predicate()
        frame = Frame(self.index, None)
        ctx = EvalContext((*self.frames, frame), engine, engine.params)
        while True:
            batch = engine.pull(self.left)
            if batch is None:
                return None
            out: list[tuple] = []
            for left in batch:
                matched = False
                for right in right_rows:
                    combined = left + right
                    frame.row = combined
                    if is_true(pred(combined, ctx)):
                        out.append(combined)
                        matched = True
                if pad_left and not matched:
                    out.append(left + null_pad)
            if out:
                return out

    def label(self) -> str:
        if self.condition is None:
            return f"NestedLoopJoin {self.kind.value} (cross product)"
        return (f"NestedLoopJoin {self.kind.value} "
                f"on {format_expr(self.condition)}")


class IndexNestedLoopJoin(PhysicalOperator):
    """Equi-join that probes a base table's secondary index per outer row
    instead of building a hash table — the winning plan when the outer
    input is far smaller than the (indexed) inner table.

    The inner side is not a child operator: rows come straight from the
    index (or, if the index disappeared, from an ad-hoc hash table built
    over the table — the same work a :class:`HashJoin` would do, so the
    plan only ever degrades to hash-join performance, never to a scan per
    outer row).
    """

    __slots__ = ("left", "table", "alias", "right_names", "right_width",
                 "left_position", "right_column", "right_position",
                 "residual", "kind", "index", "_index_obj", "_fallback",
                 "_residual_fn")

    def __init__(self, left: PhysicalOperator, table: str, alias: str,
                 right_names: tuple[str, ...], left_position: int,
                 right_column: str, right_position: int,
                 residual: Expr | None, kind: JoinKind,
                 index: dict[str, int]) -> None:
        super().__init__()
        self.left = left
        self.table = table
        self.alias = alias
        self.right_names = right_names
        self.right_width = len(right_names)
        self.left_position = left_position
        self.right_column = right_column
        self.right_position = right_position
        self.residual = residual
        self.kind = kind
        self.index = index
        self._index_obj = None
        self._fallback: dict | None = None
        self._residual_fn = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left,)

    def _reset(self) -> None:
        catalog = self.engine.catalog
        table = catalog.get(self.table)
        self._index_obj = catalog.index_for(self.table, self.right_column)
        self._fallback = None
        if self._index_obj is not None:
            self._index_obj.ensure(table.rows)
        else:
            fallback: dict = {}
            position = self.right_position
            for row in table.rows:
                key = row[position]
                if key is not None:
                    fallback.setdefault(key, []).append(row)
            self._fallback = fallback
        self.engine.stats.index_nl_joins += 1

    def _release(self) -> None:
        self._index_obj = None
        self._fallback = None

    def _probe(self, key: Any) -> list[tuple]:
        if key is None:
            return []
        if self._index_obj is not None:
            try:
                return self._index_obj.lookup(key)
            except TypeError:
                # a sorted index orders by key; a probe value that is
                # not comparable with the keys matches nothing — the
                # same no-match a HashJoin's dict lookup produces
                return []
        return self._fallback.get(key, [])

    def _residual(self) -> BatchFilter | None:
        if self.residual is None:
            return None
        if self._residual_fn is None:
            self._residual_fn = compile_batch_predicate(
                self.residual, self.index)
        return self._residual_fn

    def next_batch(self) -> list | None:
        engine = self.engine
        residual = self._residual()
        position = self.left_position
        pad_left = self.kind == JoinKind.LEFT
        null_pad = (None,) * self.right_width
        while True:
            batch = engine.pull(self.left)
            if batch is None:
                return None
            out: list[tuple] = []
            for left in batch:
                matched = False
                bucket = self._probe(left[position])
                if bucket:
                    if residual is None:
                        for right in bucket:
                            out.append(left + right)
                        matched = True
                    else:
                        kept = residual(
                            [left + right for right in bucket],
                            self.frames, engine, engine.params)
                        if kept:
                            out.extend(kept)
                            matched = True
                if pad_left and not matched:
                    out.append(left + null_pad)
            if out:
                return out

    def label(self) -> str:
        text = (f"IndexNestedLoopJoin {self.kind.value} probe "
                f"{self.table}.{self.right_column} "
                f"(outer key at [{self.left_position}])")
        if self.residual is not None:
            text += f" residual {format_expr(self.residual)}"
        return text


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class HashAggregate(PhysicalOperator):
    """Blocking grouped aggregation: drains its input on first pull, then
    emits one row per group in batches.  Aggregate arguments are
    batch-compiled and evaluated column-wise per input batch."""

    __slots__ = ("child", "group", "group_positions", "aggregates",
                 "index", "_arg_fns", "_result", "_pos")

    def __init__(self, child: PhysicalOperator, group: tuple[str, ...],
                 group_positions: tuple[int, ...], aggregates: tuple,
                 index: dict[str, int]) -> None:
        super().__init__()
        self.child = child
        self.group = group
        self.group_positions = group_positions
        self.aggregates = aggregates
        self.index = index
        self._arg_fns = None
        self._result: list[tuple] | None = None
        self._pos = 0

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._result = None
        self._pos = 0

    def _release(self) -> None:
        self._result = None

    def _fns(self) -> list[BatchValues | None]:
        if self._arg_fns is None:
            self._arg_fns = [
                None if call.arg is None else compile_batch_values(
                    call.arg, self.index)
                for _, call in self.aggregates]
        return self._arg_fns

    def _make_accumulators(self) -> list:
        return [make_accumulator(call.name, star=call.arg is None,
                                 distinct=call.distinct)
                for _, call in self.aggregates]

    def _aggregate(self) -> list[tuple]:
        engine = self.engine
        arg_fns = self._fns()
        positions = self.group_positions
        groups: dict[tuple, list] = {}
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                break
            columns = [
                None if fn is None
                else fn(batch, self.frames, engine, engine.params)
                for fn in arg_fns]
            for i, row in enumerate(batch):
                key = tuple(row[p] for p in positions)
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = self._make_accumulators()
                    groups[key] = accumulators
                for column, accumulator in zip(columns, accumulators):
                    accumulator.add(1 if column is None else column[i])
        if not groups and not self.group:
            groups[()] = self._make_accumulators()
        return [key + tuple(acc.result() for acc in accumulators)
                for key, accumulators in groups.items()]

    def next_batch(self) -> list | None:
        if self._result is None:
            self._result = self._aggregate()
            self._pos = 0
        if self._pos >= len(self._result):
            return None
        batch = self._result[
            self._pos:self._pos + self.engine.batch_size]
        self._pos += len(batch)
        return batch

    def label(self) -> str:
        aggs = ", ".join(
            f"{format_expr(call)} AS {name}"
            for name, call in self.aggregates)
        return f"HashAggregate group={list(self.group)} [{aggs}]"


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------

class SetOperation(PhysicalOperator):
    """Bag/set union, intersection and difference.

    ``UNION ALL`` streams (left batches, then right batches — bag union is
    concatenation); every other flavour drains both inputs and reuses the
    multiplicity arithmetic of :class:`~repro.relation.Relation`.
    """

    __slots__ = ("kind", "all", "left", "right", "schema",
                 "_result", "_pos", "_streaming_right")

    def __init__(self, kind: SetOpKind, all_: bool,
                 left: PhysicalOperator, right: PhysicalOperator,
                 schema: Schema) -> None:
        super().__init__()
        self.kind = kind
        self.all = all_
        self.left = left
        self.right = right
        self.schema = schema
        self._result: list[tuple] | None = None
        self._pos = 0
        self._streaming_right = False

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _reset(self) -> None:
        self._result = None
        self._pos = 0
        self._streaming_right = False

    def _release(self) -> None:
        self._result = None

    @property
    def _streams(self) -> bool:
        return self.kind == SetOpKind.UNION and self.all

    def _drain(self, child: PhysicalOperator) -> list[tuple]:
        rows: list[tuple] = []
        while True:
            batch = self.engine.pull(child)
            if batch is None:
                return rows
            rows.extend(batch)

    def _compute(self) -> list[tuple]:
        left = Relation.from_trusted_rows(self.schema, self._drain(self.left))
        right = Relation.from_trusted_rows(
            self.schema, self._drain(self.right))
        if self.kind == SetOpKind.UNION:
            result = left.set_union(right)
        elif self.kind == SetOpKind.INTERSECT:
            result = left.bag_intersect(right) if self.all else \
                left.set_intersect(right)
        else:
            result = left.bag_difference(right) if self.all else \
                left.set_difference(right)
        return result.rows

    def next_batch(self) -> list | None:
        if self._streams:
            if not self._streaming_right:
                batch = self.engine.pull(self.left)
                if batch is not None:
                    return batch
                self._streaming_right = True
            return self.engine.pull(self.right)
        if self._result is None:
            self._result = self._compute()
            self._pos = 0
        if self._pos >= len(self._result):
            return None
        batch = self._result[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(batch)
        return batch

    def label(self) -> str:
        flavor = "ALL" if self.all else "DISTINCT"
        return f"SetOp {self.kind.value.upper()} {flavor}"


# ---------------------------------------------------------------------------
# Ordering and limits
# ---------------------------------------------------------------------------

def sort_order(keys: Sequence[SortKey], vectors: Sequence[list],
               count: int) -> list[int]:
    """The positions ``0..count-1`` in multi-key sort order, given one
    value vector per sort key: stable passes from the last key to the
    first, SQL NULL ordering (NULLs first ascending, last descending).
    Shared by :class:`SortNode` and the vectorized ``VSort``."""
    order = list(range(count))
    for key, vector in zip(reversed(keys), reversed(vectors)):
        wrap = _asc_key if key.ascending else _desc_key
        order.sort(key=[wrap(value) for value in vector].__getitem__)
    return order


def _asc_key(value: Any) -> tuple:
    return (value is not None, value)


class _DescWrapper:
    """Inverts comparison order for DESC sort keys (NULLs sort last)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_DescWrapper") -> bool:
        if self.value is None:
            return False          # NULL is never smaller: ends up last
        if other.value is None:
            return True
        return self.value > other.value


def _desc_key(value: Any) -> _DescWrapper:
    return _DescWrapper(value)


class SortNode(PhysicalOperator):
    """Blocking sort: drains the input, computes one batch-compiled
    value vector per sort key, applies the shared multi-key SQL
    NULL-ordering sort, emits in batches."""

    __slots__ = ("child", "keys", "index", "_fns", "_result", "_pos")

    def __init__(self, child: PhysicalOperator, keys: tuple[SortKey, ...],
                 index: dict[str, int]) -> None:
        super().__init__()
        self.child = child
        self.keys = keys
        self.index = index
        self._fns: list[BatchValues] | None = None
        self._result: list[tuple] | None = None
        self._pos = 0

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._result = None
        self._pos = 0

    def _release(self) -> None:
        self._result = None

    def _key_fns(self) -> list[BatchValues]:
        if self._fns is None:
            self._fns = [compile_batch_values(key.expr, self.index)
                         for key in self.keys]
        return self._fns

    def next_batch(self) -> list | None:
        if self._result is None:
            engine = self.engine
            rows: list[tuple] = []
            while True:
                batch = engine.pull(self.child)
                if batch is None:
                    break
                rows.extend(batch)
            vectors = [fn(rows, self.frames, engine, engine.params)
                       for fn in self._key_fns()]
            self._result = [
                rows[i] for i in sort_order(self.keys, vectors, len(rows))]
            self._pos = 0
        if self._pos >= len(self._result):
            return None
        batch = self._result[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(batch)
        return batch

    def label(self) -> str:
        keys = ", ".join(
            f"{format_expr(k.expr)} {'ASC' if k.ascending else 'DESC'}"
            for k in self.keys)
        return f"Sort [{keys}]"


class StreamingLimit(PhysicalOperator):
    """LIMIT/OFFSET that stops pulling from its child once satisfied —
    upstream operators never produce the rows a bounded query discards."""

    __slots__ = ("child", "count", "offset", "_skipped", "_emitted",
                 "_done")

    def __init__(self, child: PhysicalOperator, count: int | None,
                 offset: int) -> None:
        super().__init__()
        self.child = child
        self.count = count
        self.offset = offset
        self._skipped = 0
        self._emitted = 0
        self._done = False

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._skipped = 0
        self._emitted = 0
        self._done = False

    def next_batch(self) -> list | None:
        if self._done:
            return None
        if self.count is not None and self._emitted >= self.count:
            self._done = True
            return None
        while True:
            batch = self.engine.pull(self.child)
            if batch is None:
                self._done = True
                return None
            if self._skipped < self.offset:
                take = min(self.offset - self._skipped, len(batch))
                self._skipped += take
                batch = batch[take:]
                if not batch:
                    continue
            if self.count is not None:
                remaining = self.count - self._emitted
                if len(batch) > remaining:
                    batch = batch[:remaining]
            self._emitted += len(batch)
            if self.count is not None and self._emitted >= self.count:
                self._done = True
            if batch:
                return batch

    def label(self) -> str:
        return f"StreamingLimit {self.count} OFFSET {self.offset}"


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------

def explain_physical(plan: "PhysicalPlan | PhysicalOperator",
                     stats: ExecutionStats | None = None) -> str:
    """Multi-line, indented rendering of a physical plan.

    Nodes lowered with a catalog in hand carry the cost model's
    predictions and are annotated ``(estimated N rows, cost C)``.  With
    *stats* (an :class:`~repro.engine.stats.ExecutionStats` from a
    completed execution) each node instead shows estimated-vs-actual:
    ``(est N rows, actual rows=... batches=... loops=... time=...)`` —
    the ``EXPLAIN ANALYZE`` output, which makes estimator drift visible
    node by node.
    """
    root = plan.root if isinstance(plan, PhysicalPlan) else plan
    tagged = False
    stack = [root]
    while stack:
        node = stack.pop()
        if node.batch_format == "columnar":
            tagged = True
            break
        stack.extend(node.children())
        for sub in node.sublinks:
            stack.append(sub.plan)
    lines: list[str] = []
    _render(root, 0, lines, stats, tagged)
    return "\n".join(lines)


def _format_estimate(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.1f}"


def _render(node: PhysicalOperator, indent: int, lines: list[str],
            stats: ExecutionStats | None,
            tagged: bool = False) -> None:
    pad = "  " * indent
    text = pad + node.label()
    if tagged:
        # vectorized plans show each node's batch format so a regression
        # to the row path is visible at a glance
        text += " [columnar]" if node.batch_format == "columnar" \
            else " [rows]"
    estimated = node.est_rows
    if stats is not None:
        entry = stats.node_stats.get(id(node))
        prefix = "" if estimated is None else \
            f"est {_format_estimate(estimated)} rows, actual "
        if entry is not None:
            text += (f"  ({prefix}rows={entry.rows} "
                     f"batches={entry.batches} "
                     f"loops={entry.loops} time={entry.time_ms:.3f}ms "
                     f"self={entry.self_ms:.3f}ms)")
        else:
            text += f"  ({prefix}never executed)"
    elif estimated is not None:
        text += f"  (estimated {_format_estimate(estimated)} rows"
        if node.est_cost is not None:
            text += f", cost {_format_estimate(node.est_cost)}"
        text += ")"
    lines.append(text)
    if stats is not None:
        # exchange operators report their last fan-out per worker
        worker_stats = getattr(node, "worker_stats", None)
        if worker_stats:
            for worker, rows, seconds in worker_stats:
                lines.append(pad + f"  Worker {worker}: rows={rows} "
                             f"time={seconds * 1e3:.3f}ms")
    for sub in node.sublinks:
        lines.append(pad + "  " + sub.label)
        _render(sub.plan, indent + 2, lines, stats, tagged)
    for child in node.children():
        _render(child, indent + 1, lines, stats, tagged)
