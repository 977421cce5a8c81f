"""Execution engine: evaluates algebra trees over a catalog.

Planning is two-phase — the logical rewrite (:mod:`.optimizer`) followed
by physical lowering (:mod:`.lowering`) into the batched operator tree of
:mod:`.physical` — and one :class:`Executor` (:mod:`.executor`) pulls
batches through it: row tuples under ``engine="pipelined"``, column
vectors where :mod:`.vectorized` can compile the node under
``engine="vectorized"``.
"""

from .cost import CardinalityEstimator
from .executor import ENGINES, Executor
from .stats import ExecutionStats, NodeStats

__all__ = ["CardinalityEstimator", "ENGINES", "ExecutionStats",
           "Executor", "NodeStats"]
