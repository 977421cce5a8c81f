"""The provenance rewriter: ``q -> q+`` (Section 3).

Implements the Perm rewrite rules for standard operators (Figure 4, R1-R5,
plus the set-operation and DISTINCT rules Perm defines in [12]) and
delegates operators containing sublinks to the strategy chosen by the
:class:`~repro.provenance.planner.StrategyPlanner` (Gen / Left / Move /
Unn, Figure 5).

Invariant maintained everywhere: for a rewritten operator ``op+``,

    ``schema(op+) = schema(op) ++ P(R_1) ++ ... ++ P(R_n)``

where ``R_1..R_n`` are the base accesses of ``op``'s subtree in rewrite
order.  ``RewriteResult.accesses`` records that order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import Catalog
from ..errors import RewriteError
from ..expressions.ast import (
    Const, Expr, NullSafeEq, TRUE, and_all,
)
from ..algebra.operators import (
    Aggregate, BaseRelation, Join, JoinKind, Limit, Operator, Project,
    Select, SetOp, SetOpKind, Sort, Values,
)
from ..algebra.trees import clone_expr
from .naming import BaseAccess, NamingRegistry, prov_attribute_names


@dataclass
class RewriteResult:
    """A rewritten operator plus its base-access bookkeeping."""

    plan: Operator
    accesses: list[BaseAccess]

    @property
    def prov_names(self) -> list[str]:
        """The provenance attribute names appended to the original schema."""
        return prov_attribute_names(self.accesses)


class ProvenanceRewriter:
    """Rewrites algebra trees into provenance-propagating trees.

    ``strategy`` is one of ``"auto"``, ``"gen"``, ``"left"``, ``"move"``,
    ``"unn"`` — see :mod:`repro.provenance.planner` for the applicability
    rules.  A rewriter instance is single-use per query (it owns the
    naming registry for that query).
    """

    def __init__(self, catalog: Catalog, strategy: str = "auto",
                 config=None, estimator=None):
        from .planner import StrategyPlanner
        self.catalog = catalog
        self.config = config  # SessionConfig | None
        self.planner = StrategyPlanner(strategy, config, catalog, estimator)
        self.registry: NamingRegistry = NamingRegistry()

    # -- public API -----------------------------------------------------------

    def rewrite_query(self, op: Operator) -> RewriteResult:
        """Rewrite a complete query tree (entry point)."""
        self.registry = NamingRegistry.seeded_from(op)
        return self.rewrite(op)

    # -- recursion ------------------------------------------------------------

    def rewrite(self, op: Operator) -> RewriteResult:
        """Rewrite one operator (recursively rewriting its inputs)."""
        if isinstance(op, BaseRelation):
            return self._rewrite_base(op)
        if isinstance(op, Values):
            return RewriteResult(op, [])
        if isinstance(op, Project):
            return self._rewrite_project(op)
        if isinstance(op, Select):
            return self._rewrite_select(op)
        if isinstance(op, Join):
            return self._rewrite_join(op)
        if isinstance(op, Aggregate):
            return self._rewrite_aggregate(op)
        if isinstance(op, SetOp):
            return self._rewrite_setop(op)
        if isinstance(op, Sort):
            inner = self.rewrite(op.input)
            return RewriteResult(Sort(inner.plan, op.keys), inner.accesses)
        if isinstance(op, Limit):
            raise RewriteError(
                "LIMIT/OFFSET has no well-defined provenance semantics; "
                "compute provenance of the unlimited query instead")
        raise RewriteError(f"no provenance rewrite for operator {op!r}")

    # -- R1: base relations -----------------------------------------------------

    def _rewrite_base(self, op: BaseRelation) -> RewriteResult:
        access = self.registry.register_access(op)
        items = self.registry.passthrough(op.schema.names)
        items.extend(
            (prov, self.registry.col(source))
            for prov, source in zip(access.prov_names, access.source_names))
        return RewriteResult(Project(op, items), [access])

    # -- R2 (+ strategies for sublinks in the projection list) -------------------

    def _rewrite_project(self, op: Project) -> RewriteResult:
        if any(expr.has_sublink for expr in op.exprs):
            strategy = self.planner.for_project(op)
            return strategy.rewrite_project(op, self)
        inner = self.rewrite(op.input)
        items = [(name, clone_expr(expr)) for name, expr in op.items]
        items += self.registry.passthrough(inner.prov_names)
        # Set projection becomes bag projection: each duplicate carries its
        # own provenance (Perm's DISTINCT rule).
        return RewriteResult(Project(inner.plan, items), inner.accesses)

    # -- R3 (+ strategies for sublinks in the condition) --------------------------

    def _rewrite_select(self, op: Select) -> RewriteResult:
        if op.condition.has_sublink:
            strategy = self.planner.for_select(op)
            return strategy.rewrite_select(op, self)
        inner = self.rewrite(op.input)
        return RewriteResult(
            Select(inner.plan, clone_expr(op.condition)), inner.accesses)

    # -- R4: cross products and joins ---------------------------------------------

    def _rewrite_join(self, op: Join) -> RewriteResult:
        if op.condition.has_sublink:
            raise RewriteError(
                "join conditions with sublinks must be normalized to a "
                "selection over a cross product before rewriting")
        left = self.rewrite(op.left)
        right = self.rewrite(op.right)
        plan = Join(left.plan, right.plan, clone_expr(op.condition), op.kind)
        return RewriteResult(plan, left.accesses + right.accesses)

    # -- R5: aggregation ------------------------------------------------------------

    def _rewrite_aggregate(self, op: Aggregate) -> RewriteResult:
        inner = self.rewrite(op.input)
        group_hats = [self.registry.fresh(f"{name}_grp")
                      for name in op.group]
        col = self.registry.col
        rhs_items = [(hat, col(name))
                     for hat, name in zip(group_hats, op.group)]
        rhs_items += self.registry.passthrough(inner.prov_names)
        rhs = Project(inner.plan, rhs_items)
        condition = and_all(
            NullSafeEq(col(name), col(hat))
            for name, hat in zip(op.group, group_hats)) if op.group else TRUE
        # Left outer join (deviation from Figure 4's inner join) keeps the
        # single result row of a grouping-free aggregate over empty input.
        joined = Join(op, rhs, condition, JoinKind.LEFT)
        items = self.registry.passthrough(
            (*op.schema.names, *inner.prov_names))
        return RewriteResult(Project(joined, items), inner.accesses)

    # -- set operations ----------------------------------------------------------------

    def _rewrite_setop(self, op: SetOp) -> RewriteResult:
        left = self.rewrite(op.left)
        right = self.rewrite(op.right)
        if op.kind == SetOpKind.UNION:
            return self._rewrite_union(op, left, right)
        if op.kind == SetOpKind.INTERSECT:
            return self._rewrite_intersect(op, left, right)
        return self._rewrite_except(op, left, right)

    def _rewrite_union(self, op: SetOp, left: RewriteResult,
                       right: RewriteResult) -> RewriteResult:
        """Each branch contributes its own rows; the other side's
        provenance columns are NULL-padded."""
        left_names = op.left.schema.names
        right_names = op.right.schema.names
        null = Const(None)
        left_items = self.registry.passthrough(
            (*left_names, *left.prov_names))
        left_items += [(name, null) for name in right.prov_names]
        right_items = [(out, self.registry.col(name))
                       for out, name in zip(left_names, right_names)]
        right_items += [(name, null) for name in left.prov_names]
        right_items += self.registry.passthrough(right.prov_names)
        plan = SetOp(
            SetOpKind.UNION,
            Project(left.plan, left_items),
            Project(right.plan, right_items),
            all=True)  # duplicates represent distinct provenance
        return RewriteResult(plan, left.accesses + right.accesses)

    def _join_back(self, base: Operator, base_names: tuple[str, ...],
                   side: RewriteResult, side_names: tuple[str, ...]
                   ) -> Operator:
        """Join *base* with a rewritten branch on null-safe column equality,
        renaming the branch's original columns to fresh names first."""
        fresh = [self.registry.fresh(f"{name}_eq") for name in side_names]
        col = self.registry.col
        items = [(f, col(name)) for f, name in zip(fresh, side_names)]
        items += self.registry.passthrough(side.prov_names)
        renamed = Project(side.plan, items)
        condition = and_all(
            NullSafeEq(col(b), col(f))
            for b, f in zip(base_names, fresh))
        return Join(base, renamed, condition, JoinKind.INNER)

    def _rewrite_intersect(self, op: SetOp, left: RewriteResult,
                           right: RewriteResult) -> RewriteResult:
        """A result tuple's provenance joins contributing tuples from both
        branches (they are equal to the result tuple itself)."""
        names = op.left.schema.names
        joined = self._join_back(op, names, left, names)
        joined = self._join_back(joined, names, right,
                                 op.right.schema.names)
        items = self.registry.passthrough(
            (*names, *left.prov_names, *right.prov_names))
        return RewriteResult(
            Project(joined, items), left.accesses + right.accesses)

    def _rewrite_except(self, op: SetOp, left: RewriteResult,
                        right: RewriteResult) -> RewriteResult:
        """Left-side provenance joins equal tuples; per Definition 1 the
        *entire* right input is provenance of every result tuple (its
        absence from the right side is what every right tuple 'witnesses'),
        via a left outer join on TRUE so an empty right side NULL-pads."""
        names = op.left.schema.names
        joined = self._join_back(op, names, left, names)
        right_prov = Project(
            right.plan, self.registry.passthrough(right.prov_names))
        joined = Join(joined, right_prov, TRUE, JoinKind.LEFT)
        items = self.registry.passthrough(
            (*names, *left.prov_names, *right.prov_names))
        return RewriteResult(
            Project(joined, items), left.accesses + right.accesses)
