"""The Unn strategy (rules U1/U2, Section 3.6.3) — un-nesting rewrites.

Applicable to selections whose condition is a conjunction of sublink-free
predicates and sublinks of two specific uncorrelated shapes:

* ``EXISTS (Tsub)``      — rule U1: the provenance of an EXISTS sublink is
  all of ``Tsub`` and the condition only passes when ``Tsub`` is non-empty,
  so a plain cross product with ``Tsub+`` suffices.
* ``x = ANY (Tsub)``     — rule U2: always *reqtrue*, so the sublink becomes
  an equality join with ``Tsub+`` (which the executor hash-joins — the
  source of Unn's order-of-magnitude advantage in Figures 7-9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...errors import RewriteError
from ...expressions.ast import (
    Col, Comparison, Expr, Sublink, SublinkKind, TRUE, and_all,
    conjuncts_of,
)
from ...algebra.operators import (
    Join, JoinKind, Operator, Project, Select,
)
from ...algebra.trees import clone_expr
from .base import SublinkStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..rewriter import ProvenanceRewriter, RewriteResult


class UnnStrategy(SublinkStrategy):
    """Rules U1 (EXISTS) and U2 (equality ANY)."""

    name = "unn"

    @classmethod
    def applicable_select(cls, op: Select) -> bool:
        """True iff every sublink-bearing conjunct matches U1 or U2."""
        saw_sublink = False
        for part in conjuncts_of(op.condition):
            if not part.has_sublink:
                continue
            saw_sublink = True
            if not isinstance(part, Sublink) or part.correlated:
                return False
            if part.kind == SublinkKind.EXISTS:
                continue
            if part.kind == SublinkKind.ANY and part.op == "=" \
                    and not part.test.has_sublink:
                continue
            return False
        return saw_sublink

    def rewrite_select(self, op: Select,
                       rewriter: "ProvenanceRewriter") -> "RewriteResult":
        from ..rewriter import RewriteResult
        from ..naming import prov_attribute_names

        if not self.applicable_select(op):
            raise RewriteError(
                "the Unn strategy applies only to conjunctions of "
                "sublink-free predicates with uncorrelated EXISTS or "
                "equality-ANY sublinks")
        inner = rewriter.rewrite(op.input)
        current: Operator = inner.plan
        accesses = list(inner.accesses)
        plain = [clone_expr(part) for part in conjuncts_of(op.condition)
                 if not part.has_sublink]
        if plain:
            current = Select(current, and_all(plain))
        for part in conjuncts_of(op.condition):
            if not part.has_sublink:
                continue
            sublink = part
            if sublink.kind == SublinkKind.EXISTS:
                sub = self.rewrite_sublink_query(sublink, rewriter)
                right = Project(sub.plan, rewriter.registry.passthrough(
                    sub.prov_names))
                current = Join(current, right, TRUE, JoinKind.CROSS)
            else:
                sub, right, fresh = self.sublink_side(sublink, rewriter)
                condition = Comparison(
                    "=", clone_expr(sublink.test), Col(fresh))
                current = Join(current, right, condition, JoinKind.INNER)
            accesses = accesses + sub.accesses
        plan = self.final_projection(
            rewriter, current, op.input.schema.names, prov_attribute_names(accesses))
        return RewriteResult(plan, accesses)

    def rewrite_project(self, op: Project,
                        rewriter: "ProvenanceRewriter") -> "RewriteResult":
        raise RewriteError(
            "the Unn strategy defines no rewrite for sublinks in "
            "projections; use Left, Move or Gen")
