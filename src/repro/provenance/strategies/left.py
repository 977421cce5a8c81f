"""The Left strategy (rules L1/L2, Section 3.6.1) — uncorrelated sublinks.

Because the sublink query has no correlated references, its rewritten form
``Tsub+`` is a plain relation that can be *left-outer-joined* to the query
on the condition ``Jsub``.  The outer join NULL-pads the provenance when no
row of ``Tsub+`` belongs to it (e.g. an empty sublink result).

The known inefficiency the paper discusses is visible in the construction:
``Jsub`` embeds the original sublink ``Csub`` a second time.  Our executor
caches uncorrelated sublink evaluations per operator identity (PostgreSQL
InitPlan behaviour), so — as in the paper's measurements — the duplication
costs one extra evaluation, not one per row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...algebra.operators import Join, JoinKind, Operator, Project, Select
from ...algebra.trees import clone_expr
from ..influence import jsub_condition
from .base import SublinkStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..rewriter import ProvenanceRewriter, RewriteResult


class LeftStrategy(SublinkStrategy):
    """Rules L1 (selection) and L2 (projection)."""

    name = "left"

    def _attach_joins(self, current: Operator, accesses: list, sublinks,
                      rewriter: "ProvenanceRewriter"
                      ) -> tuple[Operator, list]:
        """Left-outer-join ``Tsub+`` for each sublink on ``Jsub``."""
        for sublink in sublinks:
            sub, right, result_column = self.sublink_side(
                sublink, rewriter)
            jsub = jsub_condition(
                sublink, result_column, shift_into_sublink=False)
            current = Join(current, right, jsub, JoinKind.LEFT)
            accesses = accesses + sub.accesses
        return current, accesses

    # -- L1 -------------------------------------------------------------------

    def rewrite_select(self, op: Select,
                       rewriter: "ProvenanceRewriter") -> "RewriteResult":
        from ..rewriter import RewriteResult
        from ..naming import prov_attribute_names

        sublinks = self.select_sublinks(op)
        self.require_uncorrelated(sublinks)
        inner = rewriter.rewrite(op.input)
        current, accesses = self._attach_joins(
            inner.plan, list(inner.accesses), sublinks, rewriter)
        selected = Select(current, clone_expr(op.condition))
        plan = self.final_projection(
            rewriter, selected, op.input.schema.names, prov_attribute_names(accesses))
        return RewriteResult(plan, accesses)

    # -- L2 -------------------------------------------------------------------

    def rewrite_project(self, op: Project,
                        rewriter: "ProvenanceRewriter") -> "RewriteResult":
        from ..rewriter import RewriteResult
        from ..naming import prov_attribute_names

        sublinks = self.project_sublinks(op)
        self.require_uncorrelated(sublinks)
        inner = rewriter.rewrite(op.input)
        current, accesses = self._attach_joins(
            inner.plan, list(inner.accesses), sublinks, rewriter)
        items = [(name, clone_expr(expr)) for name, expr in op.items]
        items += rewriter.registry.passthrough(
            prov_attribute_names(accesses))
        return RewriteResult(Project(current, items), accesses)
