"""The Gen strategy (rules G1/G2, Section 3.3) — works for *every* sublink
type, including correlated and nested sublinks.

For each sublink the original query is cross-joined with the sublink's
``CrossBase`` (all candidate provenance tuples, NULL-padded) and a
simulated-join condition ``Csub+`` keeps exactly the candidates belonging
to the sublink's provenance:

    Csub+ = EXISTS( σ_{Jsub ∧ P(Tsub+) =n Tsub'} (Π_{P(Tsub+)→Tsub'}(Tsub+)) )
            ∨ ( ¬EXISTS(σ_{Jsub}(Tsub+)) ∧ P(Tsub+) =n null )

The second disjunct deviates slightly from the paper's ``¬EXISTS(Tsub)``:
testing emptiness of the *Jsub-filtered rewritten* sublink keeps result
tuples alive even when three-valued logic filters every provenance
candidate away (see DESIGN.md); for NULL-free data both forms coincide.

Because ``Jsub`` and its embedded original ``Csub`` move one sublink
boundary deeper, their escaping column references are level-shifted by one
(:func:`repro.algebra.trees.shift_correlation_expr`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...expressions.ast import (
    Col, Expr, IsNull, Not, NullSafeEq, Sublink, SublinkKind, TRUE, and_all,
    or_all,
)
from ...algebra.trees import clone, clone_expr
from ...algebra.operators import (
    Join, JoinKind, Operator, Project, Select,
)
from ..crossbase import build_crossbase
from ..influence import jsub_condition
from .base import SublinkStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..rewriter import ProvenanceRewriter, RewriteResult


class GenStrategy(SublinkStrategy):
    """Rules G1 (selection) and G2 (projection)."""

    name = "gen"

    # -- G1 ----------------------------------------------------------------

    def rewrite_select(self, op: Select,
                       rewriter: "ProvenanceRewriter") -> "RewriteResult":
        from ..rewriter import RewriteResult

        inner = rewriter.rewrite(op.input)
        current = inner.plan
        accesses = list(inner.accesses)
        conjuncts: list[Expr] = [clone_expr(op.condition)]
        for sublink in self.select_sublinks(op):
            current, accesses, csub_plus = self._attach_sublink(
                current, accesses, sublink, rewriter)
            conjuncts.append(csub_plus)
        plan = Select(current, and_all(conjuncts))
        return RewriteResult(plan, accesses)

    # -- G2 ----------------------------------------------------------------

    def rewrite_project(self, op: Project,
                        rewriter: "ProvenanceRewriter") -> "RewriteResult":
        from ..rewriter import RewriteResult
        from ..naming import prov_attribute_names

        inner = rewriter.rewrite(op.input)
        current = inner.plan
        accesses = list(inner.accesses)
        conjuncts: list[Expr] = []
        for sublink in self.project_sublinks(op):
            current, accesses, csub_plus = self._attach_sublink(
                current, accesses, sublink, rewriter)
            conjuncts.append(csub_plus)
        filtered: Operator = current
        if conjuncts:
            filtered = Select(current, and_all(conjuncts))
        items = [(name, clone_expr(expr)) for name, expr in op.items]
        items += rewriter.registry.passthrough(
            prov_attribute_names(accesses))
        return RewriteResult(Project(filtered, items), accesses)

    # -- shared construction --------------------------------------------------

    def _attach_sublink(self, current: Operator, accesses: list,
                        sublink: Sublink,
                        rewriter: "ProvenanceRewriter"
                        ) -> tuple[Operator, list, Expr]:
        """Cross-join the sublink's CrossBase and build its ``Csub+``."""
        sub = self.rewrite_sublink_query(sublink, rewriter)
        crossbase = build_crossbase(
            sub.accesses, rewriter.catalog, rewriter.registry)
        if crossbase is None:
            # Sublink over literal relations only: nothing to track.
            return current, accesses, TRUE
        current = Join(current, crossbase, TRUE, JoinKind.CROSS)
        csub_plus = self._csub_plus(sublink, sub, rewriter)
        return current, accesses + sub.accesses, csub_plus

    def _csub_plus(self, sublink: Sublink, sub: "RewriteResult",
                   rewriter: "ProvenanceRewriter") -> Expr:
        """The simulated-join condition between CrossBase and ``Tsub+``."""
        prov_names = sub.prov_names
        result_names = tuple(
            name for name in sub.plan.schema.names
            if name not in set(prov_names))
        result_column = result_names[0] if result_names else prov_names[0]

        # First disjunct: the candidate occurs among the Jsub-filtered
        # provenance rows of Tsub+.
        renamed = [rewriter.registry.fresh(f"{name}_x")
                   for name in prov_names]
        rename_items = rewriter.registry.passthrough(result_names)
        col = rewriter.registry.col
        rename_items += [
            (new, col(old)) for new, old in zip(renamed, prov_names)]
        jsub = jsub_condition(
            sublink, result_column, shift_into_sublink=True)
        match_condition = and_all(
            [jsub] + [NullSafeEq(Col(old, level=1), col(new))
                      for old, new in zip(prov_names, renamed)])
        member_check = Sublink(
            SublinkKind.EXISTS,
            Select(Project(sub.plan, rename_items), match_condition))

        # Second disjunct: no provenance row survives Jsub — candidate must
        # be the all-NULL padding row.
        jsub_again = jsub_condition(
            sublink, result_column, shift_into_sublink=True)
        empty_check = Not(Sublink(
            SublinkKind.EXISTS, Select(clone(sub.plan), jsub_again)))
        all_null = and_all(IsNull(col(name)) for name in prov_names)

        return or_all([member_check, and_all([empty_check, all_null])])
