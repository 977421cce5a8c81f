"""Direct provenance propagation — the paper's future-work idea.

Section 4.2's conclusion suggests developing "new physical operators that
propagate provenance", avoiding the intermediate-result recreation the
algebraic rewrites require.  :class:`DirectProvenanceExecutor` implements
that idea: it evaluates the *original* query tree once, carrying a
provenance vector alongside every intermediate row, and applies the
closed-form sublink provenance of Figure 2 / Definition 2 directly (via
:func:`~repro.provenance.influence.sublink_provenance_filter`).

The output is bit-compatible with the rewrite approach: the same schema
(original columns ++ ``P(R_1)`` ++ ...; the naming registry and base-access
ordering mirror :class:`~repro.provenance.rewriter.ProvenanceRewriter`'s
recursion order) and the same bag of rows.  The test suite exploits this
as a *fully independent* cross-check of the rewrite rules; the ablation
benchmark compares their costs.

Unsupported: ``LIMIT`` (as in the rewriter).
"""

from __future__ import annotations

from typing import Any

from ..catalog import Catalog
from ..datatypes import is_true
from ..engine import Executor
from ..errors import RewriteError
from ..expressions.ast import Expr, Sublink, collect_sublinks
from ..expressions.evaluator import EvalContext, Frame, evaluate
from ..algebra.operators import (
    Aggregate, BaseRelation, Join, JoinKind, Limit, Operator, Project,
    Select, SetOp, SetOpKind, Sort, Values,
)
from ..relation import Relation
from ..schema import Attribute, Schema
from .influence import sublink_provenance_filter
from .naming import BaseAccess, NamingRegistry, prov_attribute_names

Frames = tuple[Frame, ...]
ProvRow = tuple[tuple, tuple]  # (visible row, provenance vector)


class DirectProvenanceExecutor:
    """Evaluates a query while propagating Definition-2 provenance."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._engine = Executor(catalog)  # for sublink value evaluation
        self.registry = NamingRegistry()
        # one BaseAccess per base-relation *node*: sublink queries are
        # re-evaluated per outer row, but their provenance columns must
        # be registered exactly once (stable names and vector positions)
        self._access_cache: dict[int, BaseAccess] = {}

    # -- public API -----------------------------------------------------------

    def execute(self, op: Operator) -> Relation:
        """Provenance of *op*: same schema and rows as the rewrite path."""
        self.registry = NamingRegistry.seeded_from(op)
        self._access_cache = {}
        rows, accesses = self._eval(op, ())
        names = prov_attribute_names(accesses)
        schema = Schema(
            [*op.schema, *(Attribute(name) for name in names)])
        return Relation(schema, [row + prov for row, prov in rows])

    # -- helpers ---------------------------------------------------------------

    def _context(self, frames: Frames, names, row) -> EvalContext:
        frame = Frame(Frame.index_for(names), row)
        return EvalContext((*frames, frame), self._engine)

    def _prov_width(self, accesses: list[BaseAccess]) -> int:
        return sum(len(access.prov_names) for access in accesses)

    # -- recursion ----------------------------------------------------------------

    def _eval(self, op: Operator, frames: Frames
              ) -> tuple[list[ProvRow], list[BaseAccess]]:
        if isinstance(op, BaseRelation):
            access = self._access_cache.get(id(op))
            if access is None:
                access = self.registry.register_access(op)
                self._access_cache[id(op)] = access
            rows = self.catalog.get(op.table).rows
            return [(row, row) for row in rows], [access]
        if isinstance(op, Values):
            return [(row, ()) for row in op.rows], []
        if isinstance(op, Project):
            return self._eval_project(op, frames)
        if isinstance(op, Select):
            return self._eval_select(op, frames)
        if isinstance(op, Join):
            return self._eval_join(op, frames)
        if isinstance(op, Aggregate):
            return self._eval_aggregate(op, frames)
        if isinstance(op, SetOp):
            return self._eval_setop(op, frames)
        if isinstance(op, Sort):
            rows, accesses = self._eval(op.input, frames)
            plain = Relation(op.input.schema,
                             [row for row, _ in rows])
            # evaluate keys over the visible part, stable-sorting pairs
            from ..engine.physical import _desc_key
            names = op.input.schema.names
            for key in reversed(op.keys):
                def sort_value(pair, key=key):
                    ctx = self._context(frames, names, pair[0])
                    return evaluate(key.expr, ctx)
                if key.ascending:
                    rows.sort(key=lambda pair: (
                        sort_value(pair) is not None, sort_value(pair)))
                else:
                    rows.sort(key=lambda pair: _desc_key(sort_value(pair)))
            return rows, accesses
        if isinstance(op, Limit):
            raise RewriteError(
                "LIMIT/OFFSET has no well-defined provenance semantics")
        raise RewriteError(f"direct provenance: unsupported {op!r}")

    # -- sublink provenance ----------------------------------------------------------

    def _sublink_provenance(self, sublink: Sublink, ctx: EvalContext,
                            frames: Frames, input_names, row
                            ) -> tuple[list[tuple], list[BaseAccess]]:
        """Provenance vectors contributed by one sublink for one input
        row: the Jsub-filtered provenance rows of Tsub (computed
        recursively, so nested sublinks are covered), or a single all-NULL
        vector when none qualify (the outer-join/robust-Gen behaviour)."""
        inner_frames = (*frames,
                        Frame(Frame.index_for(input_names), row))
        sub_rows, sub_accesses = self._eval(sublink.query, inner_frames)
        width = self._prov_width(sub_accesses)
        value = evaluate(sublink, ctx)
        test_value = (evaluate(sublink.test, ctx)
                      if sublink.test is not None else None)
        keep = sublink_provenance_filter(sublink, value, test_value)
        vectors = [prov for sub_row, prov in sub_rows if keep(sub_row)]
        if not vectors:
            vectors = [(None,) * width]
        return vectors, sub_accesses

    def _attach_sublinks(self, sublinks: list[Sublink], ctx: EvalContext,
                         frames: Frames, input_names, row,
                         base_vectors: list[tuple]
                         ) -> tuple[list[tuple], list[BaseAccess]]:
        """Cross the row's provenance with each sublink's provenance."""
        accesses: list[BaseAccess] = []
        vectors = base_vectors
        for sublink in sublinks:
            sub_vectors, sub_accesses = self._sublink_provenance(
                sublink, ctx, frames, input_names, row)
            accesses.extend(sub_accesses)
            vectors = [v + s for v in vectors for s in sub_vectors]
        return vectors, accesses

    # -- operators -----------------------------------------------------------------

    def _eval_select(self, op: Select, frames: Frames):
        input_rows, accesses = self._eval(op.input, frames)
        names = op.input.schema.names
        sublinks = collect_sublinks(op.condition)
        out: list[ProvRow] = []
        sub_accesses_final: list[BaseAccess] | None = None
        for row, prov in input_rows:
            ctx = self._context(frames, names, row)
            if not is_true(evaluate(op.condition, ctx)):
                continue
            if not sublinks:
                out.append((row, prov))
                continue
            vectors, sub_accesses = self._attach_sublinks(
                sublinks, ctx, frames, names, row, [prov])
            sub_accesses_final = sub_accesses
            out.extend((row, vector) for vector in vectors)
        if sublinks:
            if sub_accesses_final is None:
                # no row passed: still need the access list (and names)
                # for the schema — probe with a dummy evaluation
                sub_accesses_final = self._probe_sublink_accesses(sublinks)
            accesses = accesses + sub_accesses_final
        return out, accesses

    def _probe_sublink_accesses(self, sublinks: list[Sublink]
                                ) -> list[BaseAccess]:
        """Register the base accesses of sublink queries without rows
        (schema stability when the selection output is empty)."""
        from ..algebra.properties import collect_base_relations
        accesses: list[BaseAccess] = []
        for sublink in sublinks:
            for base in collect_base_relations(sublink.query):
                access = self._access_cache.get(id(base))
                if access is None:
                    access = self.registry.register_access(base)
                    self._access_cache[id(base)] = access
                accesses.append(access)
        return accesses

    def _eval_project(self, op: Project, frames: Frames):
        input_rows, accesses = self._eval(op.input, frames)
        names = op.input.schema.names
        sublinks: list[Sublink] = []
        for _, expr in op.items:
            sublinks.extend(collect_sublinks(expr))
        out: list[ProvRow] = []
        sub_accesses_final: list[BaseAccess] | None = None
        for row, prov in input_rows:
            ctx = self._context(frames, names, row)
            visible = tuple(
                evaluate(expr, ctx) for _, expr in op.items)
            if not sublinks:
                out.append((visible, prov))
                continue
            vectors, sub_accesses = self._attach_sublinks(
                sublinks, ctx, frames, names, row, [prov])
            sub_accesses_final = sub_accesses
            out.extend((visible, vector) for vector in vectors)
        if sublinks:
            if sub_accesses_final is None:
                sub_accesses_final = self._probe_sublink_accesses(sublinks)
            accesses = accesses + sub_accesses_final
        # set projection keeps duplicates: each carries its provenance
        return out, accesses

    def _eval_join(self, op: Join, frames: Frames):
        if op.condition.has_sublink:
            raise RewriteError(
                "direct provenance: sublinks in join conditions must be "
                "normalized to selections")
        left_rows, left_accesses = self._eval(op.left, frames)
        right_rows, right_accesses = self._eval(op.right, frames)
        names = op.schema.names
        right_width = len(op.right.schema)
        right_prov_width = self._prov_width(right_accesses)
        out: list[ProvRow] = []
        for left_row, left_prov in left_rows:
            matched = False
            for right_row, right_prov in right_rows:
                combined = left_row + right_row
                ctx = self._context(frames, names, combined)
                if is_true(evaluate(op.condition, ctx)):
                    out.append((combined, left_prov + right_prov))
                    matched = True
            if op.kind == JoinKind.LEFT and not matched:
                out.append((
                    left_row + (None,) * right_width,
                    left_prov + (None,) * right_prov_width))
        return out, left_accesses + right_accesses

    def _eval_aggregate(self, op: Aggregate, frames: Frames):
        input_rows, accesses = self._eval(op.input, frames)
        names = op.input.schema.names
        positions = op.input.schema.positions(op.group)
        from ..expressions.aggregates import make_accumulator
        groups: dict[tuple, list] = {}
        members: dict[tuple, list[tuple]] = {}
        for row, prov in input_rows:
            key = tuple(row[p] for p in positions)
            if key not in groups:
                groups[key] = [
                    make_accumulator(call.name, star=call.arg is None,
                                     distinct=call.distinct)
                    for _, call in op.aggregates]
                members[key] = []
            members[key].append(prov)
            ctx = None
            for (name, call), accumulator in zip(op.aggregates,
                                                 groups[key]):
                if call.arg is None:
                    accumulator.add(1)
                    continue
                if ctx is None:
                    ctx = self._context(frames, names, row)
                accumulator.add(evaluate(call.arg, ctx))
        out: list[ProvRow] = []
        if not groups and not op.group:
            accumulators = [
                make_accumulator(call.name, star=call.arg is None,
                                 distinct=call.distinct)
                for _, call in op.aggregates]
            result = tuple(acc.result() for acc in accumulators)
            out.append((result, (None,) * self._prov_width(accesses)))
            return out, accesses
        for key, accumulators in groups.items():
            result = key + tuple(acc.result() for acc in accumulators)
            for prov in members[key]:
                out.append((result, prov))
        return out, accesses

    def _eval_setop(self, op: SetOp, frames: Frames):
        left_rows, left_accesses = self._eval(op.left, frames)
        right_rows, right_accesses = self._eval(op.right, frames)
        left_width = self._prov_width(left_accesses)
        right_width = self._prov_width(right_accesses)
        accesses = left_accesses + right_accesses
        out: list[ProvRow] = []
        if op.kind == SetOpKind.UNION:
            for row, prov in left_rows:
                out.append((row, prov + (None,) * right_width))
            for row, prov in right_rows:
                out.append((row, (None,) * left_width + prov))
            return out, accesses
        plain_left = Relation(op.left.schema, [r for r, _ in left_rows])
        plain_right = Relation(op.left.schema,
                               [tuple(r) for r, _ in right_rows])
        if op.kind == SetOpKind.INTERSECT:
            result = plain_left.bag_intersect(plain_right) if op.all \
                else plain_left.set_intersect(plain_right)
            for row in result.rows:
                left_matches = [p for r, p in left_rows if r == row]
                right_matches = [p for r, p in right_rows
                                 if tuple(r) == row]
                for lp in left_matches:
                    for rp in right_matches:
                        out.append((row, lp + rp))
            return out, accesses
        result = plain_left.bag_difference(plain_right) if op.all \
            else plain_left.set_difference(plain_right)
        right_all = [p for _, p in right_rows] or \
            [(None,) * right_width]
        for row in result.rows:
            left_matches = [p for r, p in left_rows if r == row]
            for lp in left_matches:
                for rp in right_all:
                    out.append((row, lp + rp))
        return out, accesses


def direct_provenance(catalog: Catalog, op: Operator) -> Relation:
    """Convenience wrapper: Definition-2 provenance of *op*, computed by
    direct propagation (no query rewriting)."""
    return DirectProvenanceExecutor(catalog).execute(op)
