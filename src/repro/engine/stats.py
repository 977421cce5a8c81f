"""Execution counters shared by both engines.

:class:`ExecutionStats` is the per-statement counter block surfaced
through :attr:`repro.api.Connection.last_stats`; :class:`NodeStats` holds
the per-physical-node row/batch/time counters the pipelined engine fills
in for ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .physical import PhysicalOperator


@dataclass
class NodeStats:
    """Per-physical-operator counters of one execution.

    ``time_ns`` is *inclusive* wall-clock time (children included), as in
    PostgreSQL's ``EXPLAIN ANALYZE``; a node that is re-opened per outer
    row (a correlated SubPlan) accumulates across invocations.
    ``child_ns`` is the portion of ``time_ns`` spent inside the node's
    direct children, so ``time_ns - child_ns`` is the node's own (self)
    time — ``EXPLAIN ANALYZE`` reports both, and the per-operator
    aggregation uses self time so a pipeline's total is not counted once
    per enclosing operator.
    """

    rows: int = 0
    batches: int = 0
    time_ns: int = 0
    child_ns: int = 0
    loops: int = 0

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    @property
    def self_ms(self) -> float:
        return max(self.time_ns - self.child_ns, 0) / 1e6


@dataclass
class ExecutionStats:
    """Counters exposed for benchmarking and the ablation study.

    ``plan_cache_hits`` / ``plan_cache_misses`` are filled in by the
    session layer (:class:`repro.api.Connection`), which owns the plan
    cache; they report the cache's cumulative totals as of this execution.

    ``node_stats`` maps ``id(physical node)`` to :class:`NodeStats`;
    ``operator_timings`` aggregates per-node *self* times (inclusive time
    minus time spent in direct children) by operator class name, in
    milliseconds — summing the map approximates total execution time
    instead of multiply counting every pipeline under its ancestors.
    """

    rows_produced: int = 0
    batches_produced: int = 0
    sublink_executions: int = 0
    sublink_cache_hits: int = 0
    #: InitPlan results that answered ANY/ALL tests through a hashed
    #: probe (:class:`~repro.expressions.probe.InitPlanRows`), counted
    #: once each when the probe's column summary is built.
    hashed_sublinks: int = 0
    hash_joins: int = 0
    nested_loop_joins: int = 0
    index_nl_joins: int = 0
    index_scans: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Filled in by the vectorized engine: how many plan nodes ran on
    #: columnar vector kernels vs stayed on the row path (bridges not
    #: counted either way).  Both stay 0 under the other engines.
    vectorized_nodes: int = 0
    row_fallback_nodes: int = 0
    #: Filled in by the Gather exchange operator: fan-outs that actually
    #: ran on the worker pool, the widest fan-out of this execution, and
    #: Gathers that fell back to their serial subtree (pool unavailable
    #: or the live input shrank below the parallel threshold).
    parallel_fanouts: int = 0
    parallel_workers: int = 0
    parallel_fallbacks: int = 0
    operator_evals: dict[str, int] = field(default_factory=dict)
    operator_timings: dict[str, float] = field(default_factory=dict)
    node_stats: dict[int, NodeStats] = field(default_factory=dict)

    def bump(self, op: PhysicalOperator) -> None:
        name = type(op).__name__
        self.operator_evals[name] = self.operator_evals.get(name, 0) + 1

    def node(self, node: PhysicalOperator) -> NodeStats:
        """The :class:`NodeStats` entry for a physical *node*."""
        key = id(node)
        entry = self.node_stats.get(key)
        if entry is None:
            entry = NodeStats()
            self.node_stats[key] = entry
        return entry

    def record_timing(self, name: str, entry: NodeStats) -> None:
        """Fold one node's *self* time into ``operator_timings``."""
        self.operator_timings[name] = \
            self.operator_timings.get(name, 0.0) + entry.self_ms
