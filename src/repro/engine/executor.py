"""The execution engine.

An :class:`Executor` drives a :class:`~repro.engine.physical.PhysicalPlan`
by pulling fixed-size batches through the operator tree and
materializing into a :class:`~repro.relation.Relation` only at the sink.
One instance executes one statement (the session layer creates it per
call), but it keeps its InitPlan result cache for its whole lifetime, so
components that hold an executor across queries (the direct-provenance
evaluator) keep the InitPlan behaviour.

``config.engine`` picks the batch format: ``"pipelined"`` (the default)
moves lists of row tuples; ``"vectorized"`` first rewrites the plan with
:func:`~repro.engine.vectorized.vectorize_plan`, so nodes the vector
compiler handles exchange :class:`~repro.engine.columnar.ColumnBatch`
objects (whole-column kernels) and the rest fall back to row operators
per node.  The sink accepts both formats.

The executor is also the evaluator's ``SubqueryRunner``: sublinks reach
it through :class:`~repro.expressions.evaluator.EvalContext` with the
*logical* query tree in hand; the lowering registry maps that tree's
identity to its lowered InitPlan/SubPlan, so sublink evaluation never
re-enters an interpreter.

:meth:`Executor.execute` is the convenience entry for callers holding a
logical tree (the provenance oracle, the ablation benchmark, tests):
optimize if asked — the engine's stand-in for PostgreSQL's planner,
without which the cross-product shapes produced by the analyzer and the
rewrite rules would dominate every measurement — then lower and run.
Sessions plan once in :meth:`repro.api.Connection._plan` and call
:meth:`execute_physical` / :meth:`stream_physical` directly.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:
    from ..api.config import SessionConfig

from ..catalog import Catalog
from ..algebra.operators import Operator
from ..expressions.probe import InitPlanRows
from ..relation import Relation
from .lowering import lower_plan
from .physical import (
    InitPlanSublink, PhysicalOperator, PhysicalPlan, SublinkPlan,
    SubPlanSublink,
)
from .stats import ExecutionStats

#: Engine names accepted by ``SessionConfig.engine``.
ENGINES = ("pipelined", "vectorized")


class Executor:
    """Executes physical plans over a catalog in batches; create a fresh
    instance per statement.

    *config* is a :class:`repro.api.SessionConfig` (stock defaults when
    omitted); *optimize* says whether :meth:`execute` runs the logical
    optimizer first.  :meth:`execute` always plans serially — parallel
    plans come from the session's lowering.
    """

    def __init__(self, catalog: Catalog, optimize: bool = True,
                 config: SessionConfig | None = None) -> None:
        if config is None:
            from ..api.config import SessionConfig
            config = SessionConfig()
        self.catalog = catalog
        self.config = config
        self.optimize = optimize
        self.batch_size = config.batch_size
        self.vectorized = config.engine == "vectorized"
        self.stats = ExecutionStats()
        self.params: tuple = ()
        self._pull_stack: list = []
        self._subplans: dict[int, SublinkPlan] = {}
        self._initplan_cache: dict[int, InitPlanRows] = {}

    # -- public API ----------------------------------------------------------

    def execute(self, op: Operator, params: Iterable[Any] = ()) -> Relation:
        """Plan the logical tree *op* and return its output relation.

        *params* are the values bound to the plan's ``?`` placeholders
        (:class:`~repro.expressions.ast.Param` nodes), visible to every
        expression evaluated during this execution.
        """
        if self.optimize:
            from .optimizer import optimize as optimize_tree
            op = optimize_tree(op, self.catalog)
        plan = lower_plan(op, self.catalog,
                          use_indexes=self.config.use_indexes)
        return self.execute_physical(plan, params)

    def execute_physical(self, plan: PhysicalPlan,
                         params: Iterable[Any] = ()) -> Relation:
        """Run an already-lowered plan and materialize the sink."""
        self._bind(plan, params)
        rows = self._drain(plan.root, ())
        self._finish_timings(plan)
        return Relation.from_trusted_rows(plan.schema, rows)

    def stream_physical(self, plan: PhysicalPlan,
                        params: Iterable[Any] = ()) -> Iterator[list]:
        """Run an already-lowered plan as a lazy generator of batches —
        the streaming sink behind :class:`repro.api.result.Result`
        (which transposes the vectorized engine's ``ColumnBatch``
        objects to row tuples itself).

        The plan stays open between yields; closing the generator early
        (``generator.close()``, or dropping the last reference) closes
        the operator tree, so abandoned result sets release their hash
        tables and sort buffers without being drained.
        """
        self._bind(plan, params)
        root = plan.root
        root.open(self, ())
        try:
            while True:
                batch = self.pull(root)
                if batch is None:
                    break
                yield batch
        finally:
            root.close()
            self._finish_timings(plan)

    def _bind(self, plan: PhysicalPlan, params: Iterable[Any]) -> None:
        """Per-execution setup: bind *params*, register the plan's
        sublinks and — under ``engine="vectorized"`` — vectorize the
        plan in place on first use.  The session layer's plan-instance
        leasing makes that rewrite safe: an instance is never shared
        between concurrent executions, and the plan-cache key includes
        the engine name, so the row engine never sees a vectorized
        instance."""
        self.params = tuple(params)
        self._subplans.update(plan.subplans)
        if self.vectorized:
            from .vectorized import vectorize_plan
            vectorize_plan(plan)
            if plan.vector_counts is not None:
                self.stats.vectorized_nodes, \
                    self.stats.row_fallback_nodes = plan.vector_counts

    # -- SubqueryRunner protocol (sublink evaluation hook) --------------------

    def run_subquery(self, query: Operator, frames: tuple) -> list[tuple]:
        """Execute a sublink query with *frames* visible as outer rows.

        InitPlans run once and cache their result for the lifetime of the
        executor, as :class:`~repro.expressions.probe.InitPlanRows` — the
        hashed probes of their ANY/ALL tests live and die with it;
        SubPlans re-run per call with the caller's frames bound.
        """
        sub = self._subplans.get(id(query))
        if sub is None:
            sub = self._lower_adhoc(query)
        if not sub.correlated:
            cached = self._initplan_cache.get(id(query))
            if cached is not None:
                self.stats.sublink_cache_hits += 1
                return cached
            self.stats.sublink_executions += 1
            rows = InitPlanRows(self._drain(sub.plan, ()), self.stats)
            self._initplan_cache[id(query)] = rows
            return rows
        self.stats.sublink_executions += 1
        return self._drain(sub.plan, frames)

    def _lower_adhoc(self, query: Operator) -> SublinkPlan:
        """Lower a sublink query the plan registry does not know — the
        path taken when the executor is used as a standalone subquery
        runner (e.g. by the direct-provenance evaluator)."""
        from ..algebra.properties import is_correlated
        plan = lower_plan(query, self.catalog,
                          use_indexes=self.config.use_indexes)
        self._subplans.update(plan.subplans)
        cls = SubPlanSublink if is_correlated(query) else InitPlanSublink
        sub = cls(None, query, plan.root)
        self._subplans[id(query)] = sub
        return sub

    # -- pipeline driver -------------------------------------------------------

    def _drain(self, root: PhysicalOperator, frames: tuple) -> list[tuple]:
        root.open(self, frames)
        rows: list[tuple] = []
        try:
            while True:
                batch = self.pull(root)
                if batch is None:
                    break
                # a vectorized root hands over ColumnBatch objects
                rows.extend(batch if isinstance(batch, list)
                            else batch.to_rows())
        finally:
            root.close()
        return rows

    def pull(self, node: PhysicalOperator) -> list | None:
        """One ``next_batch`` call on *node*, with row/batch accounting
        and wall-clock timing.

        Timing keeps a stack of in-flight pulls: a node's elapsed time
        accumulates inclusively on its own entry and is also charged to
        the enclosing pull's ``child_ns``, so every node ends up with an
        inclusive total *and* the part attributable to nodes it pulled —
        ``EXPLAIN ANALYZE`` derives self time from the difference."""
        stats = self.stats
        entry = stats.node(node)
        stack = self._pull_stack
        stack.append(entry)
        started = perf_counter_ns()
        try:
            batch = node.next_batch()
        finally:
            elapsed = perf_counter_ns() - started
            stack.pop()
            entry.time_ns += elapsed
            if stack:
                stack[-1].child_ns += elapsed
        if batch:
            entry.rows += len(batch)
            entry.batches += 1
            stats.rows_produced += len(batch)
            stats.batches_produced += 1
        return batch

    def _finish_timings(self, plan: PhysicalPlan) -> None:
        """Aggregate per-node self times by operator class name."""
        self.stats.operator_timings = {}
        for node in plan.nodes():
            entry = self.stats.node_stats.get(id(node))
            if entry is not None:
                self.stats.record_timing(type(node).__name__, entry)
