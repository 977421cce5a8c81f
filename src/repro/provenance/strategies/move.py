"""The Move strategy (rules T1/T2, Section 3.6.2) — uncorrelated sublinks.

Like Left, but the sublinks are *moved into a projection* first: a
projection below the joins evaluates every sublink once into a boolean
column ``C_i``; the selection condition (``Ctar``) and the join conditions
(``Jsub``) then reference ``C_i`` instead of re-evaluating ``Csub``.  This
removes the duplicated sublink of the Left strategy, which matters when the
executor does not recognize the duplication.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...expressions.ast import Sublink
from ...algebra.operators import (
    Join, JoinKind, Operator, Project, Select,
)
from ...algebra.trees import clone_expr
from ..influence import jsub_with_result_column
from .base import SublinkStrategy, replace_sublinks

if TYPE_CHECKING:  # pragma: no cover
    from ..rewriter import ProvenanceRewriter, RewriteResult


class MoveStrategy(SublinkStrategy):
    """Rules T1 (selection) and T2 (projection)."""

    name = "move"

    def _moved_plan(self, input_plan: Operator, accesses: list,
                    sublinks: list[Sublink],
                    rewriter: "ProvenanceRewriter"
                    ) -> tuple[Operator, list, dict[int, str]]:
        """Project sublink values into columns, then join each ``Tsub+``.

        Returns the joined plan, the accumulated accesses, and the mapping
        from sublink identity to its value column ``C_i``.
        """
        value_columns: dict[int, str] = {}
        items = rewriter.registry.passthrough(input_plan.schema.names)
        for position, sublink in enumerate(sublinks):
            column = rewriter.registry.fresh(f"csub_{position}")
            value_columns[id(sublink)] = column
            items.append((column, clone_expr(sublink)))
        current: Operator = Project(input_plan, items)
        for sublink in sublinks:
            sub, right, result_column = self.sublink_side(
                sublink, rewriter)
            jsub = jsub_with_result_column(
                sublink, value_columns[id(sublink)], result_column)
            current = Join(current, right, jsub, JoinKind.LEFT)
            accesses = accesses + sub.accesses
        return current, accesses, value_columns

    # -- T1 -------------------------------------------------------------------

    def rewrite_select(self, op: Select,
                       rewriter: "ProvenanceRewriter") -> "RewriteResult":
        from ..rewriter import RewriteResult
        from ..naming import prov_attribute_names

        sublinks = self.select_sublinks(op)
        self.require_uncorrelated(sublinks)
        inner = rewriter.rewrite(op.input)
        current, accesses, value_columns = self._moved_plan(
            inner.plan, list(inner.accesses), sublinks, rewriter)
        ctar = replace_sublinks(op.condition, value_columns)
        selected = Select(current, ctar)
        plan = self.final_projection(
            rewriter, selected, op.input.schema.names, prov_attribute_names(accesses))
        return RewriteResult(plan, accesses)

    # -- T2 -------------------------------------------------------------------

    def rewrite_project(self, op: Project,
                        rewriter: "ProvenanceRewriter") -> "RewriteResult":
        from ..rewriter import RewriteResult
        from ..naming import prov_attribute_names

        sublinks = self.project_sublinks(op)
        self.require_uncorrelated(sublinks)
        inner = rewriter.rewrite(op.input)
        current, accesses, value_columns = self._moved_plan(
            inner.plan, list(inner.accesses), sublinks, rewriter)
        items = [(name, replace_sublinks(expr, value_columns))
                 for name, expr in op.items]
        items += rewriter.registry.passthrough(
            prov_attribute_names(accesses))
        return RewriteResult(Project(current, items), accesses)
