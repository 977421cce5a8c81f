"""Strategy selection.

``auto`` picks, per sublink-bearing operator, the cheapest *applicable*
strategy.  With a catalog in hand the choice is cost-based
(:func:`repro.engine.cost.strategy_costs`): the estimated input and
sublink cardinalities price each rewrite — Unn's hash join wins whenever
its rules apply, Gen's minimal plan wins on small inputs, and Left
overtakes Gen as the quadratic join term grows.  Without a catalog the
planner falls back to the fixed preference order the paper's experiments
justify::

    Unn  >  Left  >  Gen

(Move is measurably equal to Left in both the paper and this engine; it
is available by explicit request and in the benchmarks.)  Explicitly
requested strategies are *forced*: if they do not apply, the rewrite
fails with :class:`~repro.errors.RewriteError` rather than silently
degrading, so benchmark results always measure what they claim to
measure.

Strategy names — forced ones included — resolve through the pluggable
:mod:`repro.provenance.strategies.registry`, so strategies registered by
name are usable from SQL (``SELECT PROVENANCE (name)``), the CLI and the
session config without touching this module.  Every ``auto`` decision is
appended to :attr:`StrategyPlanner.decisions`, so tests and tools can
observe which rewrites a query actually got.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..algebra.operators import Project, Select
from ..expressions.ast import Sublink
from . import strategies
from .strategies import SublinkStrategy, UnnStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..api.config import SessionConfig
    from ..catalog import Catalog
    from ..engine.cost import CardinalityEstimator

class StrategyPlanner:
    """Maps sublink-bearing operators to rewrite strategies."""

    def __init__(self, strategy: str = "auto",
                 config: "SessionConfig | None" = None,
                 catalog: "Catalog | None" = None,
                 estimator: "CardinalityEstimator | None" = None):
        self.config = config
        self.catalog = catalog
        # A session's default_strategy stands in for "auto", so rewriters
        # constructed directly (not through a Connection, which resolves
        # the default before planning) honor the config too.
        if strategy == strategies.AUTO and config is not None:
            strategy = config.default_strategy
        self.strategy = strategy
        # Resolve a forced strategy eagerly so unknown names fail at plan
        # time, not at the first sublink encountered.
        self._forced = None if strategy == strategies.AUTO \
            else strategies.resolve(strategy)
        #: Strategy names ``auto`` picked, in rewrite order (one entry per
        #: sublink-bearing operator dispatched).
        self.decisions: list[str] = []
        # the statement's estimator (or, lacking one, this rewrite's
        # own): its per-subtree memo serves every auto decision
        self._estimator = estimator

    def _pick(self, candidates: list[str], op,
              sublinks: list[Sublink]) -> SublinkStrategy:
        """The cheapest of *candidates* (all known applicable) by the
        cost model; the first candidate without a catalog."""
        if len(candidates) > 1 and self.catalog is not None:
            from ..engine.cost import CardinalityEstimator, strategy_costs
            estimator = self._estimator = self._estimator or \
                CardinalityEstimator(self.catalog)
            costs = strategy_costs(
                estimator.estimate(op.input),
                sum(estimator.estimate(s.query) for s in sublinks),
                any(s.correlated for s in sublinks))
            candidates = sorted(
                candidates, key=lambda name: costs.get(name, float("inf")))
        self.decisions.append(candidates[0])
        return strategies.resolve(candidates[0])

    def for_select(self, op: Select) -> SublinkStrategy:
        """Strategy for a selection whose condition holds sublinks."""
        if self._forced is not None:
            return self._forced
        sublinks = SublinkStrategy.select_sublinks(op)
        candidates = []
        unn = strategies.resolve("unn")
        if isinstance(unn, UnnStrategy) and unn.applicable_select(op):
            candidates.append("unn")
        if not any(s.correlated for s in sublinks):
            candidates.append("left")
        candidates.append("gen")
        return self._pick(candidates, op, sublinks)

    def for_project(self, op: Project) -> SublinkStrategy:
        """Strategy for a projection whose items hold sublinks."""
        if self._forced is not None:
            return self._forced
        sublinks = SublinkStrategy.project_sublinks(op)
        candidates = []
        if not any(s.correlated for s in sublinks):
            candidates.append("left")
        candidates.append("gen")
        return self._pick(candidates, op, sublinks)
