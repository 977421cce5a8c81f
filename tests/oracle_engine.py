"""The materializing, correlation-aware oracle interpreter.

This is the original executor: it interprets the *logical* algebra tree
directly, materializes each operator's full output as a list of row
tuples and evaluates every expression with the tree-walking reference
evaluator (:func:`repro.expressions.evaluator.evaluate`).  It left the
product — no session can select it — and lives here as the differential
reference the engine-parity matrices compare the batch engines against:
it shares neither the physical operators, the lowering, nor the
expression compiler with them, which is exactly what makes agreement
meaningful.  It is valuable *because* it is naive; do not optimize it.

Use ``oracle`` to get a ``sql()``-shaped front end over a catalog::

    fast = connect()
    ...populate...
    slow = oracle(fast.catalog)
    assert Counter(fast.sql(q).rows) == Counter(slow.sql(q).rows)

Design notes (the behaviours the batch engines must reproduce):

* **Uncorrelated sublinks are evaluated once** per engine instance and
  cached by operator identity — PostgreSQL's *InitPlan* behaviour, which
  the Left/Move strategies rely on.  Correlated sublinks are re-executed
  for every outer row (PostgreSQL's parameterized *SubPlan*), which is
  what makes the Gen strategy expensive — exactly the effect Figure 6
  shows.

* **Equi-joins get a hash fast path.**  PostgreSQL hash-joins the plain
  equality join produced by the Unn strategy, while the disjunctive
  ``Jsub`` conditions of Left/Move force nested loops.  Mirroring that
  split is what reproduces the order-of-magnitude gap of Figures 7-9.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro import connect
from repro.catalog import Catalog
from repro.datatypes import is_true
from repro.errors import ExecutionError
from repro.expressions.ast import Expr, TRUE
from repro.expressions.evaluator import EvalContext, Frame, evaluate
from repro.algebra.operators import (
    Aggregate, BaseRelation, Join, JoinKind, Limit, Operator, Project,
    Select, SetOp, SetOpKind, Sort, Values,
)
from repro.algebra.properties import is_correlated
from repro.engine.lowering import split_equi_keys
from repro.engine.optimizer import optimize
from repro.engine.physical import sort_order
from repro.engine.stats import ExecutionStats
from repro.expressions.aggregates import make_accumulator
from repro.relation import Relation

Frames = tuple[Frame, ...]


class OracleSession:
    """The ``sql()`` surface of a session, run on the interpreter: plans
    like a :class:`~repro.api.Connection` over *catalog* (analyze →
    rewrite → optimize, honouring the same config *options*), then
    interprets the logical plan instead of lowering it."""

    def __init__(self, catalog: Catalog, **options: Any) -> None:
        self._planner = connect(catalog=catalog, **options)
        self.last_stats: ExecutionStats | None = None

    def sql(self, text: str, strategy: str | None = None,
            params: Sequence[Any] = ()) -> Relation:
        plan = self._planner.plan(text, strategy)
        catalog = self._planner.engine.snapshot()
        plan = optimize(plan, catalog)
        engine = OracleEngine(catalog)
        self.last_stats = engine.stats
        return engine.execute(plan, params)


#: ``oracle(conn.catalog)`` — how the parity matrices spell it.
oracle = OracleSession


class OracleEngine:
    """Evaluates one logical algebra tree, fully materializing every
    operator's output; create a fresh instance per statement."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.stats = ExecutionStats()
        self._params: tuple = ()
        self._subquery_cache: dict[int, list[tuple]] = {}
        self._correlated: dict[int, bool] = {}

    def _evaluator(self, expr: Expr) -> "Callable[[EvalContext], Any]":
        """A callable ctx -> value for *expr* (the reference
        tree-walking evaluator — deliberately not the compiler)."""
        return lambda ctx: evaluate(expr, ctx)

    # -- public API ----------------------------------------------------------

    def execute(self, op: Operator, params: Iterable[Any] = ()) -> Relation:
        """Run *op* and return its output relation.

        *params* are the values bound to the plan's ``?`` placeholders
        (:class:`~repro.expressions.ast.Param` nodes), visible to every
        expression evaluated during this execution.
        """
        schema = op.schema
        self._params = tuple(params)
        rows = self._eval(op, ())
        return Relation.from_trusted_rows(schema, list(rows))

    # -- SubqueryRunner protocol (sublink evaluation hook) --------------------

    def run_subquery(self, query: Operator, frames: Frames) -> list[tuple]:
        """Execute a sublink query with *frames* visible as outer rows."""
        key = id(query)
        correlated = self._correlated.get(key)
        if correlated is None:
            correlated = is_correlated(query)
            self._correlated[key] = correlated
        if not correlated:
            cached = self._subquery_cache.get(key)
            if cached is not None:
                self.stats.sublink_cache_hits += 1
                return cached
            self.stats.sublink_executions += 1
            rows = self._eval(query, ())
            self._subquery_cache[key] = rows
            return rows
        self.stats.sublink_executions += 1
        return self._eval(query, frames)

    # -- evaluation ------------------------------------------------------------

    def _eval(self, op: Operator, frames: Frames) -> list[tuple]:
        self.stats.bump(op)
        if isinstance(op, BaseRelation):
            rows = self.catalog.get(op.table).rows
        elif isinstance(op, Values):
            rows = op.rows
        elif isinstance(op, Project):
            rows = self._eval_project(op, frames)
        elif isinstance(op, Select):
            rows = self._eval_select(op, frames)
        elif isinstance(op, Join):
            rows = self._eval_join(op, frames)
        elif isinstance(op, Aggregate):
            rows = self._eval_aggregate(op, frames)
        elif isinstance(op, SetOp):
            rows = self._eval_setop(op, frames)
        elif isinstance(op, Sort):
            rows = self._eval_sort(op, frames)
        elif isinstance(op, Limit):
            input_rows = self._eval(op.input, frames)
            stop = None if op.count is None else op.offset + op.count
            rows = input_rows[op.offset:stop]
        else:
            raise ExecutionError(f"cannot execute operator {op!r}")
        self.stats.rows_produced += len(rows)
        return rows

    def _context(self, frames: Frames, index: dict[str, int],
                 row: tuple) -> EvalContext:
        return EvalContext((*frames, Frame(index, row)), self, self._params)

    def _eval_project(self, op: Project, frames: Frames) -> list[tuple]:
        input_rows = self._eval(op.input, frames)
        index = Frame.index_for(op.input.schema.names)
        exprs = [self._evaluator(expr) for _, expr in op.items]
        out = []
        for row in input_rows:
            ctx = self._context(frames, index, row)
            out.append(tuple(expr(ctx) for expr in exprs))
        if op.distinct:
            out = list(dict.fromkeys(out))
        return out

    def _eval_select(self, op: Select, frames: Frames) -> list[tuple]:
        input_rows = self._eval(op.input, frames)
        index = Frame.index_for(op.input.schema.names)
        condition = self._evaluator(op.condition)
        out = []
        for row in input_rows:
            ctx = self._context(frames, index, row)
            if is_true(condition(ctx)):
                out.append(row)
        return out

    # -- joins -------------------------------------------------------------

    def _eval_join(self, op: Join, frames: Frames) -> list[tuple]:
        left_rows = self._eval(op.left, frames)
        right_rows = self._eval(op.right, frames)
        right_width = len(op.right.schema)
        index = Frame.index_for(op.schema.names)
        out: list[tuple] = []

        if op.condition == TRUE:
            if op.kind == JoinKind.LEFT and not right_rows:
                null_pad = (None,) * right_width
                return [left + null_pad for left in left_rows]
            return [left + right for left in left_rows
                    for right in right_rows]

        keys, residual = split_equi_keys(op)
        if keys:
            return self._hash_join(op, frames, left_rows, right_rows,
                                   keys, residual, index, right_width)

        self.stats.nested_loop_joins += 1
        condition = self._evaluator(op.condition)
        null_pad = (None,) * right_width
        for left in left_rows:
            matched = False
            for right in right_rows:
                combined = left + right
                ctx = self._context(frames, index, combined)
                if is_true(condition(ctx)):
                    out.append(combined)
                    matched = True
            if op.kind == JoinKind.LEFT and not matched:
                out.append(left + null_pad)
        return out

    def _hash_join(self, op: Join, frames: Frames, left_rows: list[tuple],
                   right_rows: list[tuple], keys: list[tuple[int, int]],
                   residual: list[Expr], index: dict[str, int],
                   right_width: int) -> list[tuple]:
        self.stats.hash_joins += 1
        table: dict[tuple, list[tuple]] = {}
        right_positions = [r for _, r in keys]
        left_positions = [l for l, _ in keys]
        for right in right_rows:
            key = tuple(right[p] for p in right_positions)
            if any(v is None for v in key):
                continue  # NULL never equi-joins
            table.setdefault(key, []).append(right)
        out: list[tuple] = []
        null_pad = (None,) * right_width
        residual_fns = [self._evaluator(part) for part in residual]
        for left in left_rows:
            key = tuple(left[p] for p in left_positions)
            matched = False
            if not any(v is None for v in key):
                for right in table.get(key, ()):
                    combined = left + right
                    if residual_fns:
                        ctx = self._context(frames, index, combined)
                        if not all(is_true(part(ctx))
                                   for part in residual_fns):
                            continue
                    out.append(combined)
                    matched = True
            if op.kind == JoinKind.LEFT and not matched:
                out.append(left + null_pad)
        return out

    # -- aggregation ---------------------------------------------------------

    def _eval_aggregate(self, op: Aggregate, frames: Frames) -> list[tuple]:
        input_rows = self._eval(op.input, frames)
        index = Frame.index_for(op.input.schema.names)
        group_positions = op.input.schema.positions(op.group)
        arg_fns = [None if call.arg is None else self._evaluator(call.arg)
                   for _, call in op.aggregates]
        groups: dict[tuple, list] = {}
        for row in input_rows:
            key = tuple(row[p] for p in group_positions)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [
                    make_accumulator(call.name, star=call.arg is None,
                                     distinct=call.distinct)
                    for _, call in op.aggregates]
                groups[key] = accumulators
            ctx = None
            for arg_fn, accumulator in zip(arg_fns, accumulators):
                if arg_fn is None:
                    accumulator.add(1)
                    continue
                if ctx is None:
                    ctx = self._context(frames, index, row)
                accumulator.add(arg_fn(ctx))
        if not groups and not op.group:
            accumulators = [
                make_accumulator(call.name, star=call.arg is None,
                                 distinct=call.distinct)
                for _, call in op.aggregates]
            groups[()] = accumulators
        return [key + tuple(acc.result() for acc in accumulators)
                for key, accumulators in groups.items()]

    # -- set operations --------------------------------------------------------

    def _eval_setop(self, op: SetOp, frames: Frames) -> list[tuple]:
        left = Relation(op.left.schema, ())
        left.rows = self._eval(op.left, frames)
        right = Relation(op.left.schema, ())
        right.rows = [tuple(row) for row in self._eval(op.right, frames)]
        if op.kind == SetOpKind.UNION:
            result = left.bag_union(right) if op.all else \
                left.set_union(right)
        elif op.kind == SetOpKind.INTERSECT:
            result = left.bag_intersect(right) if op.all else \
                left.set_intersect(right)
        else:
            result = left.bag_difference(right) if op.all else \
                left.set_difference(right)
        return result.rows

    # -- ordering ----------------------------------------------------------------

    def _eval_sort(self, op: Sort, frames: Frames) -> list[tuple]:
        rows = list(self._eval(op.input, frames))
        index = Frame.index_for(op.input.schema.names)
        vectors = [[evaluate(key.expr, self._context(frames, index, row))
                    for row in rows] for key in op.keys]
        return [rows[i] for i in sort_order(op.keys, vectors, len(rows))]
