"""Common machinery shared by the sublink rewrite strategies."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...errors import RewriteError
from ...expressions.ast import Col, Expr, Sublink, collect_sublinks
from ...algebra.operators import Operator, Project, Select
from ...algebra.trees import clone, transform

if TYPE_CHECKING:  # pragma: no cover
    from ..rewriter import ProvenanceRewriter, RewriteResult


class SublinkStrategy:
    """Interface: rewrite a Select/Project whose expressions hold sublinks."""

    name = "abstract"

    def rewrite_select(self, op: Select,
                       rewriter: "ProvenanceRewriter") -> "RewriteResult":
        raise NotImplementedError

    def rewrite_project(self, op: Project,
                        rewriter: "ProvenanceRewriter") -> "RewriteResult":
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def select_sublinks(op: Select) -> list[Sublink]:
        """Sublinks of a selection condition, in discovery order."""
        return collect_sublinks(op.condition)

    @staticmethod
    def project_sublinks(op: Project) -> list[Sublink]:
        """Sublinks of a projection list, in discovery order."""
        found: list[Sublink] = []
        for _, expr in op.items:
            found.extend(collect_sublinks(expr))
        return found

    def require_uncorrelated(self, sublinks: list[Sublink]) -> None:
        """Left/Move/Unn applicability guard (Section 3.6)."""
        for sublink in sublinks:
            if sublink.correlated:
                raise RewriteError(
                    f"the {self.name} strategy does not support correlated "
                    f"sublinks; use the Gen strategy")

    @staticmethod
    def rewrite_sublink_query(sublink: Sublink,
                              rewriter: "ProvenanceRewriter"
                              ) -> "RewriteResult":
        """``Tsub+``: rewrite a (cloned) copy of the sublink query so the
        rewritten plan never aliases operators of the original tree."""
        return rewriter.rewrite(clone(sublink.query))

    def sublink_side(self, sublink: Sublink,
                     rewriter: "ProvenanceRewriter"
                     ) -> tuple["RewriteResult", Project, str]:
        """``Tsub+`` ready to be joined: its result columns under fresh
        names, its provenance columns as they are.  Returns the rewrite,
        that projection and the fresh name of the first result column."""
        sub = self.rewrite_sublink_query(sublink, rewriter)
        prov_names = sub.prov_names
        registry = rewriter.registry
        provenance = set(prov_names)
        items = [(registry.fresh(f"sub_{name}"), registry.col(name))
                 for name in sub.plan.schema.names
                 if name not in provenance]
        result_column = items[0][0] if items else prov_names[0]
        items += registry.passthrough(prov_names)
        return sub, Project(sub.plan, items), result_column

    @staticmethod
    def final_projection(rewriter: "ProvenanceRewriter", plan: Operator,
                         original_names, prov_names) -> Project:
        """Keep the original operator's schema plus all provenance columns,
        dropping strategy-internal helper columns."""
        return Project(plan, rewriter.registry.passthrough(
            (*original_names, *prov_names)))


def replace_sublinks(expr: Expr, mapping: dict[int, str]) -> Expr:
    """Replace sublinks (by identity) with column references (Move/``Ctar``)."""
    def rule(node: Expr) -> Expr | None:
        if isinstance(node, Sublink) and id(node) in mapping:
            return Col(mapping[id(node)])
        return None

    return transform(expr, rule)
