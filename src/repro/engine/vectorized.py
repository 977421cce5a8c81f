"""The columnar vectorized execution engine.

:func:`vectorize_plan` rewrites a lowered :class:`PhysicalPlan` in place,
replacing row operators with columnar counterparts wherever the vector
compiler (:mod:`repro.expressions.compiler`) can compile the node's
expressions: scans read straight into cached column vectors, filters
refine a selection vector with whole-column kernels, projections remap or
compute column vectors, hash joins build and probe on key vectors,
nested-loop joins (including LEFT outer NULL padding) filter candidate
index pairs with predicate kernels, sorts order a selection vector by
computed key vectors, and aggregates consume value vectors.  Anything
the vector compiler rejects
(sublinks, outer columns, OR, LIKE/CASE/casts/functions) keeps its row
operator; a :class:`RowsFromColumns` bridge transposes at the boundary,
so ``engine="vectorized"`` is always correct, never partial.

The transform is *payoff-aware*: a columnar subtree is only bridged back
to rows when it contains at least one compute node (filter / project /
join / aggregate) — a bare columnar scan under a row operator would be
pure transposition overhead, so the original row scan is kept instead.

:class:`~repro.engine.executor.Executor` applies the rewrite as its
prepare step under ``engine="vectorized"`` and its sink transposes
:class:`ColumnBatch` output; the Volcano ``open/next_batch/close``
protocol, the per-node statistics, and the sublink machinery are the
row engine's, unchanged (sublink plans always stay on the row path —
they run under outer frames, which vector kernels do not model).
"""

from __future__ import annotations

from typing import Any

from ..algebra.operators import JoinKind, SetOpKind
from ..expressions.aggregates import make_accumulator
from ..expressions.ast import Col, Expr
from ..expressions.compiler import (
    VectorPredicate, compile_vector_predicate, compile_vector_values,
)
from ..expressions.printer import format_expr
from .columnar import Column, ColumnBatch, column_from_values, table_columns
from .physical import (
    Filter, HashAggregate, HashJoin, NestedLoopJoin, PhysicalOperator,
    PhysicalPlan, Project, SeqScan, SetOperation, SortNode,
    StreamingLimit, ValuesScan, sort_order,
)

__all__ = ["vectorize_plan"]


class VectorOperator(PhysicalOperator):
    """Base class of columnar physical nodes: ``next_batch`` returns
    :class:`ColumnBatch` instead of a list of row tuples."""

    __slots__ = ()

    batch_format = "columnar"


# ---------------------------------------------------------------------------
# Bridges
# ---------------------------------------------------------------------------

class RowsFromColumns(PhysicalOperator):
    """Columnar -> rows bridge in front of a row-fallback operator."""

    __slots__ = ("child",)

    is_bridge = True

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__()
        self.child = child
        self.est_rows = child.est_rows
        self.est_cost = child.est_cost

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def next_batch(self) -> list | None:
        batch = self.engine.pull(self.child)
        if batch is None:
            return None
        return batch.to_rows()

    def label(self) -> str:
        return "RowsFromColumns (bridge)"


class ColumnsFromRows(VectorOperator):
    """Rows -> columnar bridge under a vectorized operator (used for a
    hash-join side whose subtree stayed on the row path)."""

    __slots__ = ("child",)

    is_bridge = True

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__()
        self.child = child
        self.est_rows = child.est_rows
        self.est_cost = child.est_cost

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def next_batch(self) -> ColumnBatch | None:
        batch = self.engine.pull(self.child)
        if batch is None:
            return None
        return ColumnBatch.from_rows(batch)

    def label(self) -> str:
        return "ColumnsFromRows (bridge)"


# ---------------------------------------------------------------------------
# Columnar scans
# ---------------------------------------------------------------------------

class VTableScan(VectorOperator):
    """Columnar scan of a catalog table: the table's cached column
    vectors are shared across batches; each batch is just a ``range``
    selection — zero per-batch allocation."""

    __slots__ = ("table", "alias", "names", "_columns", "_nrows", "_pos")

    def __init__(self, table: str, alias: str, names: tuple[str, ...]) -> None:
        super().__init__()
        self.table = table
        self.alias = alias
        self.names = names
        self._columns: list[Column] = []
        self._nrows = 0
        self._pos = 0

    def _reset(self) -> None:
        rows = self.engine.catalog.get(self.table).rows
        self._columns = table_columns(rows, len(self.names))
        self._nrows = len(rows)
        self._pos = 0

    def _release(self) -> None:
        self._columns = []

    def next_batch(self) -> ColumnBatch | None:
        if self._pos >= self._nrows:
            return None
        end = min(self._pos + self.engine.batch_size, self._nrows)
        batch = ColumnBatch(self._columns, range(self._pos, end))
        self._pos = end
        return batch

    def label(self) -> str:
        return f"SeqScan {self.table} as {self.alias} -> {list(self.names)}"


class VValuesScan(VectorOperator):
    """Columnar scan of a literal relation (columnarized once — the rows
    are statement constants)."""

    __slots__ = ("rows", "names", "_columns", "_pos")

    def __init__(self, rows: list[tuple], names: tuple[str, ...]) -> None:
        super().__init__()
        self.rows = rows
        self.names = names
        self._columns: list[Column] | None = None
        self._pos = 0

    def _reset(self) -> None:
        if self._columns is None:
            self._columns = ColumnBatch.from_rows(
                self.rows, len(self.names)).columns
        self._pos = 0

    def next_batch(self) -> ColumnBatch | None:
        if self._pos >= len(self.rows):
            return None
        end = min(self._pos + self.engine.batch_size, len(self.rows))
        batch = ColumnBatch(self._columns, range(self._pos, end))
        self._pos = end
        return batch

    def label(self) -> str:
        return f"ValuesScan {len(self.rows)} row(s) -> {list(self.names)}"


# ---------------------------------------------------------------------------
# Columnar pipelines
# ---------------------------------------------------------------------------

class VFilter(VectorOperator):
    """Vectorized selection: the predicate kernel refines the selection
    vector; the column vectors are passed through untouched."""

    __slots__ = ("child", "condition", "kernel")

    def __init__(self, child: PhysicalOperator, condition: Expr,
                 kernel: VectorPredicate) -> None:
        super().__init__()
        self.child = child
        self.condition = condition
        self.kernel = kernel

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def next_batch(self) -> ColumnBatch | None:
        engine = self.engine
        kernel = self.kernel
        params = engine.params
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                return None
            sel = kernel(batch.columns, batch.sel, params)
            if sel:
                return ColumnBatch(batch.columns, sel)

    def label(self) -> str:
        return f"Filter {format_expr(self.condition)}"


class VProject(VectorOperator):
    """Vectorized projection.  All-column-reference projections remap
    the column list and keep the selection (zero copies); computed items
    produce dense vectors through value kernels."""

    __slots__ = ("child", "names", "exprs", "distinct", "plan",
                 "_positions", "_seen")

    def __init__(self, child: PhysicalOperator, names: tuple, exprs: tuple,
                 distinct: bool, plan: list) -> None:
        super().__init__()
        self.child = child
        self.names = names
        self.exprs = exprs
        self.distinct = distinct
        self.plan = plan
        if all(tag == "col" for tag, _ in plan):
            self._positions = tuple(payload for _, payload in plan)
        else:
            self._positions = None
        self._seen: dict | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._seen = {} if self.distinct else None

    def next_batch(self) -> ColumnBatch | None:
        engine = self.engine
        positions = self._positions
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                return None
            if positions is not None:
                columns = batch.columns
                out = ColumnBatch([columns[p] for p in positions],
                                  batch.sel)
            else:
                sel = batch.sel
                columns = batch.columns
                out_columns = []
                for tag, payload in self.plan:
                    if tag == "col":
                        out_columns.append(columns[payload].gather(sel))
                    else:
                        out_columns.append(column_from_values(
                            payload(columns, sel, engine.params)))
                out = ColumnBatch(out_columns, range(len(sel)))
            if self.distinct:
                seen = self._seen
                fresh = []
                for row in out.to_rows():
                    if row not in seen:
                        seen[row] = None
                        fresh.append(row)
                if not fresh:
                    continue
                out = ColumnBatch.from_rows(fresh, len(self.plan))
            return out

    def label(self) -> str:
        kind = "Distinct" if self.distinct else "Project"
        items = ", ".join(f"{format_expr(expr)} AS {name}"
                          for name, expr in zip(self.names, self.exprs))
        return f"{kind} [{items}]"


class VHashJoin(VectorOperator):
    """Vectorized equi-join: the right input accumulates into dense
    column vectors with a key -> row-index hash table; probing walks the
    left key vector and the output gathers both sides by index — row
    tuples are never formed.

    Key semantics are exactly the row engine's dict semantics (NULL never
    joins; ``1 == True == 1.0`` share a bucket; NaN matches only itself).
    LEFT padding appends one all-NULL sentinel row to the dense right
    vectors and pairs unmatched left rows with it.
    """

    __slots__ = ("left", "right", "left_positions", "right_positions",
                 "residual", "residual_kernel", "kind", "right_width",
                 "_table", "_right_cols", "_sentinel")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_positions: tuple[int, ...],
                 right_positions: tuple[int, ...],
                 residual: Expr | None,
                 residual_kernel: VectorPredicate | None,
                 kind: JoinKind, right_width: int) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_positions = left_positions
        self.right_positions = right_positions
        self.residual = residual
        self.residual_kernel = residual_kernel
        self.kind = kind
        self.right_width = right_width
        self._table: dict | None = None
        self._right_cols: list[Column] | None = None
        self._sentinel = -1

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _reset(self) -> None:
        self._table = None
        self._right_cols = None
        self.engine.stats.hash_joins += 1

    def _release(self) -> None:
        self._table = None
        self._right_cols = None

    def _build(self) -> None:
        engine = self.engine
        width = self.right_width
        values: list[list] = [[] for _ in range(width)]
        kinds: list[str | None] = [None] * width
        nulls = [False] * width
        table: dict = {}
        positions = self.right_positions
        single = positions[0] if len(positions) == 1 else None
        n = 0
        while True:
            batch = engine.pull(self.right)
            if batch is None:
                break
            columns = batch.columns
            sel = batch.sel
            for c in range(width):
                column = columns[c]
                column_values = column.values
                values[c].extend([column_values[i] for i in sel])
                if kinds[c] is None:
                    kinds[c] = column.kind
                elif kinds[c] != column.kind:
                    kinds[c] = "any"
                if column.has_nulls:
                    nulls[c] = True
            if single is not None:
                key_values = columns[single].values
                for i in sel:
                    key = key_values[i]
                    if key is not None:
                        bucket = table.get(key)
                        if bucket is None:
                            table[key] = [n]
                        else:
                            bucket.append(n)
                    n += 1
            else:
                key_columns = [columns[p].values for p in positions]
                for i in sel:
                    key = tuple(kv[i] for kv in key_columns)
                    if not any(v is None for v in key):
                        table.setdefault(key, []).append(n)
                    n += 1
        if self.kind == JoinKind.LEFT:
            for c in range(width):
                values[c].append(None)
                nulls[c] = True
        self._sentinel = n
        self._right_cols = [Column(values[c], kinds[c] or "any", nulls[c])
                            for c in range(width)]
        self._table = table

    def next_batch(self) -> ColumnBatch | None:
        if self._table is None:
            self._build()
        engine = self.engine
        table = self._table
        pad_left = self.kind == JoinKind.LEFT
        sentinel = self._sentinel
        positions = self.left_positions
        single = positions[0] if len(positions) == 1 else None
        kernel = self.residual_kernel
        while True:
            batch = engine.pull(self.left)
            if batch is None:
                return None
            columns = batch.columns
            sel = batch.sel
            out_left: list[int] = []
            out_right: list[int] = []
            if kernel is None:
                if single is not None:
                    key_values = columns[single].values
                    for i in sel:
                        key = key_values[i]
                        bucket = table.get(key) \
                            if key is not None else None
                        if bucket:
                            for j in bucket:
                                out_left.append(i)
                                out_right.append(j)
                        elif pad_left:
                            out_left.append(i)
                            out_right.append(sentinel)
                else:
                    key_columns = [columns[p].values for p in positions]
                    for i in sel:
                        key = tuple(kv[i] for kv in key_columns)
                        bucket = None
                        if not any(v is None for v in key):
                            bucket = table.get(key)
                        if bucket:
                            for j in bucket:
                                out_left.append(i)
                                out_right.append(j)
                        elif pad_left:
                            out_left.append(i)
                            out_right.append(sentinel)
            else:
                self._probe_residual(batch, table, kernel, pad_left,
                                     sentinel, out_left, out_right)
            if not out_left:
                continue
            out_columns = [column.gather(out_left) for column in columns]
            out_columns += [column.gather(out_right)
                            for column in self._right_cols]
            return ColumnBatch(out_columns, range(len(out_left)))

    def _probe_residual(self, batch: ColumnBatch, table: dict,
                        kernel: VectorPredicate, pad_left: bool,
                        sentinel: Any, out_left: list[int],
                        out_right: list[int]) -> None:
        """Collect candidate pairs, run the residual kernel once over the
        whole candidate set, then merge survivors span by span so output
        order (and LEFT padding) matches the row engine exactly."""
        engine = self.engine
        columns = batch.columns
        sel = batch.sel
        positions = self.left_positions
        single = positions[0] if len(positions) == 1 else None
        cand_left: list[int] = []
        cand_right: list[int] = []
        spans: list[tuple[int, int, int]] = []
        if single is not None:
            key_values = columns[single].values
            for i in sel:
                start = len(cand_left)
                key = key_values[i]
                if key is not None:
                    bucket = table.get(key)
                    if bucket:
                        for j in bucket:
                            cand_left.append(i)
                            cand_right.append(j)
                spans.append((i, start, len(cand_left)))
        else:
            key_columns = [columns[p].values for p in positions]
            for i in sel:
                start = len(cand_left)
                key = tuple(kv[i] for kv in key_columns)
                if not any(v is None for v in key):
                    bucket = table.get(key)
                    if bucket:
                        for j in bucket:
                            cand_left.append(i)
                            cand_right.append(j)
                spans.append((i, start, len(cand_left)))
        kept: list[int] = []
        if cand_left:
            combined = [column.gather(cand_left) for column in columns]
            combined += [column.gather(cand_right)
                         for column in self._right_cols]
            kept = kernel(combined, range(len(cand_left)), engine.params)
        pointer = 0
        total = len(kept)
        for i, start, end in spans:
            matched = False
            while pointer < total and kept[pointer] < end:
                p = kept[pointer]
                out_left.append(cand_left[p])
                out_right.append(cand_right[p])
                matched = True
                pointer += 1
            if pad_left and not matched:
                out_left.append(i)
                out_right.append(sentinel)

    def label(self) -> str:
        keys = ", ".join(
            f"left[{l}] = right[{r}]"
            for l, r in zip(self.left_positions, self.right_positions))
        text = f"HashJoin {self.kind.value} on [{keys}]"
        if self.residual is not None:
            text += f" residual {format_expr(self.residual)}"
        return text


class VHashAggregate(VectorOperator):
    """Vectorized grouped aggregation: group keys come straight off the
    key vectors, aggregate arguments are computed one vector per batch,
    and the accumulators are shared with the row engines — results (and
    group order) are bit-identical."""

    __slots__ = ("child", "group", "group_positions", "aggregates",
                 "arg_kernels", "_result", "_pos")

    def __init__(self, child: PhysicalOperator, group: tuple[str, ...],
                 group_positions: tuple[int, ...], aggregates: tuple,
                 arg_kernels: list) -> None:
        super().__init__()
        self.child = child
        self.group = group
        self.group_positions = group_positions
        self.aggregates = aggregates
        self.arg_kernels = arg_kernels
        self._result: list[tuple] | None = None
        self._pos = 0

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._result = None
        self._pos = 0

    def _release(self) -> None:
        self._result = None

    def _make_accumulators(self) -> list:
        return [make_accumulator(call.name, star=call.arg is None,
                                 distinct=call.distinct)
                for _, call in self.aggregates]

    def _aggregate(self) -> list[tuple]:
        engine = self.engine
        positions = self.group_positions
        kernels = self.arg_kernels
        groups: dict[tuple, list] = {}
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                break
            columns = batch.columns
            sel = batch.sel
            arg_columns = [
                None if fn is None else fn(columns, sel, engine.params)
                for fn in kernels]
            if positions:
                key_vectors = [columns[p].values for p in positions]
                for offset, i in enumerate(sel):
                    key = tuple(kv[i] for kv in key_vectors)
                    accumulators = groups.get(key)
                    if accumulators is None:
                        accumulators = self._make_accumulators()
                        groups[key] = accumulators
                    for column, accumulator in zip(arg_columns,
                                                   accumulators):
                        accumulator.add(
                            1 if column is None else column[offset])
            else:
                accumulators = groups.get(())
                if accumulators is None:
                    accumulators = self._make_accumulators()
                    groups[()] = accumulators
                for column, accumulator in zip(arg_columns, accumulators):
                    if column is None:
                        for _ in sel:
                            accumulator.add(1)
                    else:
                        for value in column:
                            accumulator.add(value)
        if not groups and not self.group:
            groups[()] = self._make_accumulators()
        return [key + tuple(acc.result() for acc in accumulators)
                for key, accumulators in groups.items()]

    def next_batch(self) -> ColumnBatch | None:
        if self._result is None:
            self._result = self._aggregate()
            self._pos = 0
        if self._pos >= len(self._result):
            return None
        rows = self._result[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(rows)
        return ColumnBatch.from_rows(
            rows, len(self.group) + len(self.aggregates))

    def label(self) -> str:
        aggs = ", ".join(
            f"{format_expr(call)} AS {name}"
            for name, call in self.aggregates)
        return f"HashAggregate group={list(self.group)} [{aggs}]"


class VNestedLoopJoin(VectorOperator):
    """Vectorized theta/cross join: the right input accumulates into
    dense column vectors; each left batch forms the candidate cross
    product as index pairs and (for theta joins) runs the predicate
    kernel once over the whole candidate set.  LEFT padding reuses
    :class:`VHashJoin`'s sentinel trick — one all-NULL row appended to
    the dense right vectors pairs with unmatched left rows, so NULL
    padding never forms row tuples either."""

    __slots__ = ("left", "right", "condition", "kernel", "kind",
                 "right_width", "_right_cols", "_nright")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 condition: Expr | None, kernel: VectorPredicate | None,
                 kind: JoinKind, right_width: int) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.condition = condition
        self.kernel = kernel
        self.kind = kind
        self.right_width = right_width
        self._right_cols: list[Column] | None = None
        self._nright = 0

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _reset(self) -> None:
        self._right_cols = None
        if self.condition is not None:
            self.engine.stats.nested_loop_joins += 1

    def _release(self) -> None:
        self._right_cols = None

    def _materialize_right(self) -> None:
        engine = self.engine
        width = self.right_width
        values: list[list] = [[] for _ in range(width)]
        kinds: list[str | None] = [None] * width
        nulls = [False] * width
        n = 0
        while True:
            batch = engine.pull(self.right)
            if batch is None:
                break
            columns = batch.columns
            sel = batch.sel
            for c in range(width):
                column = columns[c]
                column_values = column.values
                values[c].extend([column_values[i] for i in sel])
                if kinds[c] is None:
                    kinds[c] = column.kind
                elif kinds[c] != column.kind:
                    kinds[c] = "any"
                if column.has_nulls:
                    nulls[c] = True
            n += len(sel)
        if self.kind == JoinKind.LEFT:
            for c in range(width):
                values[c].append(None)
                nulls[c] = True
        self._nright = n
        self._right_cols = [Column(values[c], kinds[c] or "any", nulls[c])
                            for c in range(width)]

    def next_batch(self) -> ColumnBatch | None:
        if self._right_cols is None:
            self._materialize_right()
        engine = self.engine
        pad_left = self.kind == JoinKind.LEFT
        n = self._nright
        sentinel = n
        kernel = self.kernel
        while True:
            batch = engine.pull(self.left)
            if batch is None:
                return None
            columns = batch.columns
            sel = batch.sel
            out_left: list[int] = []
            out_right: list[int] = []
            if kernel is None:
                if n:
                    inner = range(n)
                    for i in sel:
                        out_left.extend([i] * n)
                        out_right.extend(inner)
                elif pad_left:
                    out_left.extend(sel)
                    out_right.extend([sentinel] * len(sel))
            elif n or pad_left:
                cand_left: list[int] = []
                cand_right: list[int] = []
                inner = range(n)
                for i in sel:
                    cand_left.extend([i] * n)
                    cand_right.extend(inner)
                kept: list[int] = []
                if cand_left:
                    combined = [column.gather(cand_left)
                                for column in columns]
                    combined += [column.gather(cand_right)
                                 for column in self._right_cols]
                    kept = kernel(combined, range(len(cand_left)),
                                  engine.params)
                pointer = 0
                total = len(kept)
                for offset, i in enumerate(sel):
                    end = (offset + 1) * n
                    matched = False
                    while pointer < total and kept[pointer] < end:
                        p = kept[pointer]
                        out_left.append(cand_left[p])
                        out_right.append(cand_right[p])
                        matched = True
                        pointer += 1
                    if pad_left and not matched:
                        out_left.append(i)
                        out_right.append(sentinel)
            if not out_left:
                continue
            out_columns = [column.gather(out_left) for column in columns]
            out_columns += [column.gather(out_right)
                            for column in self._right_cols]
            return ColumnBatch(out_columns, range(len(out_left)))

    def label(self) -> str:
        if self.condition is None:
            return f"NestedLoopJoin {self.kind.value} (cross product)"
        return (f"NestedLoopJoin {self.kind.value} "
                f"on {format_expr(self.condition)}")


class VSort(VectorOperator):
    """Vectorized blocking sort: accumulates the input into dense column
    vectors, computes one key vector per sort key, and sorts a
    *selection* order — output batches are selections over the collected
    columns, so no row tuple is ever formed.  Key semantics (stable
    multi-key, NULLs first ascending / last descending) are shared with
    the row engine through ``sort_order``."""

    __slots__ = ("child", "keys", "index", "kernels", "_columns",
                 "_order", "_pos")

    def __init__(self, child: PhysicalOperator, keys: tuple,
                 index: dict[str, int], kernels: list) -> None:
        super().__init__()
        self.child = child
        self.keys = keys
        self.index = index
        self.kernels = kernels
        self._columns: list[Column] | None = None
        self._order: list[int] = []
        self._pos = 0

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._columns = None
        self._order = []
        self._pos = 0

    def _release(self) -> None:
        self._columns = None
        self._order = []

    def _collect(self) -> None:
        engine = self.engine
        values: list[list] | None = None
        kinds: list[str | None] = []
        nulls: list[bool] = []
        key_vectors: list[list] = [[] for _ in self.kernels]
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                break
            columns = batch.columns
            sel = batch.sel
            if values is None:
                width = len(columns)
                values = [[] for _ in range(width)]
                kinds = [None] * width
                nulls = [False] * width
            for k, kernel in enumerate(self.kernels):
                key_vectors[k].extend(
                    kernel(columns, sel, engine.params))
            for c, column in enumerate(columns):
                column_values = column.values
                values[c].extend([column_values[i] for i in sel])
                if kinds[c] is None:
                    kinds[c] = column.kind
                elif kinds[c] != column.kind:
                    kinds[c] = "any"
                if column.has_nulls:
                    nulls[c] = True
        if values is None:
            self._columns = []
            self._order = []
            return
        order = sort_order(self.keys, key_vectors,
                           len(values[0]) if values else 0)
        self._columns = [Column(values[c], kinds[c] or "any", nulls[c])
                         for c in range(len(values))]
        self._order = order

    def next_batch(self) -> ColumnBatch | None:
        if self._columns is None:
            self._collect()
            self._pos = 0
        if self._pos >= len(self._order):
            return None
        chunk = self._order[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(chunk)
        return ColumnBatch(self._columns, chunk)

    def label(self) -> str:
        keys = ", ".join(
            f"{format_expr(k.expr)} {'ASC' if k.ascending else 'DESC'}"
            for k in self.keys)
        return f"Sort [{keys}]"


class VUnionAll(VectorOperator):
    """Streaming bag union: left batches, then right batches, passed
    through in columnar form."""

    __slots__ = ("left", "right", "_right_phase")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self._right_phase = False

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _reset(self) -> None:
        self._right_phase = False

    def next_batch(self) -> ColumnBatch | None:
        if not self._right_phase:
            batch = self.engine.pull(self.left)
            if batch is not None:
                return batch
            self._right_phase = True
        return self.engine.pull(self.right)

    def label(self) -> str:
        return "SetOp UNION ALL"


class VLimit(VectorOperator):
    """LIMIT/OFFSET over columnar batches: trims the selection vector —
    the column vectors are never copied."""

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

    def next_batch(self) -> ColumnBatch | None:
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
            sel = batch.sel
            if self._skipped < self.offset:
                take = min(self.offset - self._skipped, len(sel))
                self._skipped += take
                sel = sel[take:]
                if not len(sel):
                    continue
            if self.count is not None:
                remaining = self.count - self._emitted
                if len(sel) > remaining:
                    sel = sel[:remaining]
            self._emitted += len(sel)
            if self.count is not None and self._emitted >= self.count:
                self._done = True
            if len(sel):
                return ColumnBatch(batch.columns, sel)

    def label(self) -> str:
        return f"StreamingLimit {self.count} OFFSET {self.offset}"


# ---------------------------------------------------------------------------
# Plan vectorization
# ---------------------------------------------------------------------------

def _copy_est(new: PhysicalOperator, old: PhysicalOperator) -> None:
    new.est_rows = old.est_rows
    new.est_cost = old.est_cost


def _bridge_to_rows(child: PhysicalOperator,
                    vector: PhysicalOperator | None, compute: bool
                    ) -> PhysicalOperator:
    """The row-format version of a child: its vectorized subtree behind a
    transposing bridge when that subtree does real vector work, else the
    original row operator (a bare columnar scan bridged back to rows
    would only add transposition cost)."""
    if vector is not None and compute:
        return RowsFromColumns(vector)
    return child


#: Physical operators that deliberately stay row-format, with the reason.
#: Every concrete plan node must either be handled by :func:`_vectorize`
#: or appear here — the ``exhaustiveness-physical`` analysis rule fails
#: the build otherwise, so a new operator cannot silently skip the
#: columnar engine without an explicit entry.
ROW_ONLY_FALLBACK: dict[str, str] = {
    "IndexScan": "point/small-range lookups emit too few rows for "
                 "column batches to pay for the transposition",
    "IndexNestedLoopJoin": "probes the inner index one outer row at a "
                           "time; there is no whole-column formulation",
    "PartitionScan": "emits stored-order row slices straight off the "
                     "partition map; batches would be rebuilt per part",
    "Gather": "exchange boundary: fragments ship encoded rows between "
              "processes, vector work happens inside the fragments",
}


def _vectorize(node: PhysicalOperator) -> tuple[PhysicalOperator | None, bool]:
    """Recursively build a columnar version of *node*'s subtree.

    Returns ``(vector, compute)``: *vector* is a columnar-format
    equivalent (or None when this subtree cannot run columnar), *compute*
    whether it contains at least one vector compute node.  *node* itself
    always remains a valid row-format alternative; when it stays the
    fallback its child slots are re-aimed through bridges as payoff
    dictates.
    """
    if isinstance(node, SeqScan) and not node.sublinks:
        vector = VTableScan(node.table, node.alias, node.names)
        _copy_est(vector, node)
        return vector, False

    if isinstance(node, ValuesScan) and not node.sublinks:
        vector = VValuesScan(node.rows, node.names)
        _copy_est(vector, node)
        return vector, False

    if isinstance(node, Filter) and not node.sublinks:
        vchild, ccompute = _vectorize(node.child)
        if vchild is not None:
            kernel = compile_vector_predicate(node.condition, node.index)
            if kernel is not None:
                vector = VFilter(vchild, node.condition, kernel)
                _copy_est(vector, node)
                return vector, True
        node.child = _bridge_to_rows(node.child, vchild, ccompute)
        return None, False

    if isinstance(node, Project) and not node.sublinks:
        vchild, ccompute = _vectorize(node.child)
        if vchild is not None:
            plan: list = []
            supported = True
            for expr in node.exprs:
                if isinstance(expr, Col) and expr.level == 0 \
                        and expr.name in node.index:
                    plan.append(("col", node.index[expr.name]))
                    continue
                kernel = compile_vector_values(expr, node.index)
                if kernel is None:
                    supported = False
                    break
                plan.append(("kernel", kernel))
            if supported:
                vector = VProject(vchild, node.names, node.exprs,
                                  node.distinct, plan)
                _copy_est(vector, node)
                return vector, True
        node.child = _bridge_to_rows(node.child, vchild, ccompute)
        return None, False

    if isinstance(node, HashJoin) and not node.sublinks:
        vleft, lcompute = _vectorize(node.left)
        vright, rcompute = _vectorize(node.right)
        supported = vleft is not None or vright is not None
        residual_kernel = None
        if supported and node.residual is not None:
            residual_kernel = compile_vector_predicate(
                node.residual, node.index)
            supported = residual_kernel is not None
        if supported:
            left = vleft if vleft is not None \
                else ColumnsFromRows(node.left)
            right = vright if vright is not None \
                else ColumnsFromRows(node.right)
            vector = VHashJoin(
                left, right, node.left_positions, node.right_positions,
                node.residual, residual_kernel, node.kind,
                node.right_width)
            _copy_est(vector, node)
            return vector, True
        node.left = _bridge_to_rows(node.left, vleft, lcompute)
        node.right = _bridge_to_rows(node.right, vright, rcompute)
        return None, False

    if isinstance(node, HashAggregate) and not node.sublinks:
        vchild, ccompute = _vectorize(node.child)
        if vchild is not None:
            kernels: list = []
            supported = True
            for _, call in node.aggregates:
                if call.arg is None:
                    kernels.append(None)
                    continue
                kernel = compile_vector_values(call.arg, node.index)
                if kernel is None:
                    supported = False
                    break
                kernels.append(kernel)
            if supported:
                vector = VHashAggregate(
                    vchild, node.group, node.group_positions,
                    node.aggregates, kernels)
                _copy_est(vector, node)
                return vector, True
        node.child = _bridge_to_rows(node.child, vchild, ccompute)
        return None, False

    if isinstance(node, NestedLoopJoin) and not node.sublinks:
        vleft, lcompute = _vectorize(node.left)
        vright, rcompute = _vectorize(node.right)
        supported = vleft is not None or vright is not None
        kernel = None
        if supported and node.condition is not None:
            kernel = compile_vector_predicate(node.condition, node.index)
            supported = kernel is not None
        if supported:
            left = vleft if vleft is not None \
                else ColumnsFromRows(node.left)
            right = vright if vright is not None \
                else ColumnsFromRows(node.right)
            vector = VNestedLoopJoin(
                left, right, node.condition, kernel, node.kind,
                node.right_width)
            _copy_est(vector, node)
            return vector, True
        node.left = _bridge_to_rows(node.left, vleft, lcompute)
        node.right = _bridge_to_rows(node.right, vright, rcompute)
        return None, False

    if isinstance(node, SortNode) and not node.sublinks:
        vchild, ccompute = _vectorize(node.child)
        if vchild is not None:
            kernels: list = []
            supported = True
            for key in node.keys:
                kernel = compile_vector_values(key.expr, node.index)
                if kernel is None:
                    supported = False
                    break
                kernels.append(kernel)
            if supported:
                vector = VSort(vchild, node.keys, node.index, kernels)
                _copy_est(vector, node)
                return vector, True
        node.child = _bridge_to_rows(node.child, vchild, ccompute)
        return None, False

    if isinstance(node, StreamingLimit) and not node.sublinks:
        vchild, ccompute = _vectorize(node.child)
        if vchild is not None:
            vector = VLimit(vchild, node.count, node.offset)
            _copy_est(vector, node)
            return vector, ccompute
        return None, False

    if isinstance(node, SetOperation) and not node.sublinks \
            and node.kind == SetOpKind.UNION and node.all:
        vleft, lcompute = _vectorize(node.left)
        vright, rcompute = _vectorize(node.right)
        if vleft is not None and vright is not None:
            vector = VUnionAll(vleft, vright)
            _copy_est(vector, node)
            return vector, lcompute or rcompute
        node.left = _bridge_to_rows(node.left, vleft, lcompute)
        node.right = _bridge_to_rows(node.right, vright, rcompute)
        return None, False

    # Row-only operators (index scans, index nested-loop joins, the
    # materializing set operations, exchange operators, anything carrying
    # sublinks): keep the node, but let worthwhile columnar subtrees feed
    # it through bridges.
    for attr in ("child", "left", "right"):
        try:
            child = getattr(node, attr)
        except AttributeError:
            continue
        if isinstance(child, PhysicalOperator):
            vchild, ccompute = _vectorize(child)
            setattr(node, attr, _bridge_to_rows(child, vchild, ccompute))
    return None, False


def vectorize_plan(plan: PhysicalPlan) -> PhysicalPlan:
    """Rewrite *plan* in place for columnar execution (idempotent).

    Sublink plans are untouched — they execute under outer frames, which
    the vector kernels do not model.  Afterwards ``plan.vector_counts``
    holds ``(columnar_nodes, row_fallback_nodes)`` over the whole plan,
    bridges excluded.
    """
    if plan.vectorized:
        return plan
    vector, compute = _vectorize(plan.root)
    if vector is not None and compute:
        plan.root = vector
    columnar = fallback = 0
    for node in plan.nodes():
        if node.is_bridge:
            continue
        if node.batch_format == "columnar":
            columnar += 1
        else:
            fallback += 1
    plan.vector_counts = (columnar, fallback)
    plan.vectorized = True
    return plan
