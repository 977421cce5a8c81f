"""Algebra trees: schema inference, cloning, correlation utilities."""

import pytest

from repro.errors import SchemaError
from repro.expressions.ast import (
    Col, Comparison, Const, Not, Sublink, SublinkKind, TRUE,
)
from repro.algebra.operators import (
    Aggregate, BaseRelation, Join, JoinKind, Project, Select, SetOp,
    SetOpKind, Values,
)
from repro.algebra.printer import explain
from repro.algebra.properties import (
    collect_base_relations, correlation_depth,
    is_correlated,
)
from repro.algebra.trees import (
    clone, clone_expr, iter_operators, shift_correlation,
    shift_correlation_expr, transform_expressions,
)
from repro.expressions.ast import AggCall
from repro.schema import Schema


def scan(name="t", *columns):
    return BaseRelation(name, name, Schema.of(*(columns or ("a", "b"))))


class TestSchemaInference:
    def test_project_schema(self):
        plan = Project(scan(), [("x", Col("a")), ("y", Const(1))])
        assert plan.schema.names == ("x", "y")

    def test_select_passthrough(self):
        plan = Select(scan(), TRUE)
        assert plan.schema.names == ("a", "b")

    def test_join_concat(self):
        plan = Join(scan("t"), scan("u", "c", "d"), TRUE, JoinKind.CROSS)
        assert plan.schema.names == ("a", "b", "c", "d")

    def test_join_name_collision_raises(self):
        plan = Join(scan("t"), scan("u"), TRUE, JoinKind.CROSS)
        with pytest.raises(SchemaError):
            plan.schema

    def test_aggregate_schema(self):
        plan = Aggregate(scan(), ("b",),
                         [("total", AggCall("sum", Col("a")))])
        assert plan.schema.names == ("b", "total")

    def test_setop_arity_mismatch_raises(self):
        plan = SetOp(SetOpKind.UNION, scan(), scan("u", "x"), all=True)
        with pytest.raises(SchemaError):
            plan.schema

    def test_values_arity_checked(self):
        with pytest.raises(SchemaError):
            Values(Schema.of("a"), [(1, 2)])

    def test_schema_caching(self):
        plan = Select(scan(), TRUE)
        assert plan.schema is plan.schema


class TestClone:
    def test_clone_is_deep_for_operators(self):
        original = Select(scan(), Comparison("=", Col("a"), Const(1)))
        copy = clone(original)
        assert copy is not original
        assert copy.input is not original.input
        assert copy.schema == original.schema

    def test_clone_expr_clones_sublink_queries(self):
        sub = Sublink(SublinkKind.EXISTS, scan("u", "c"))
        copy = clone_expr(sub)
        assert copy.query is not sub.query


class TestShiftCorrelation:
    def test_plain_column_shifts(self):
        shifted = shift_correlation_expr(Col("a"), 1, boundary=0)
        assert shifted == Col("a", 1)

    def test_below_boundary_untouched(self):
        shifted = shift_correlation_expr(Col("a", 0), 1, boundary=1)
        assert shifted == Col("a", 0)

    def test_shift_through_sublink(self):
        # sublink query references level 1 (the host scope): escaping
        inner = Select(scan("u", "c"),
                       Comparison("=", Col("c"), Col("a", level=1)))
        expr = Sublink(SublinkKind.EXISTS, inner)
        shifted = shift_correlation_expr(expr, 1, boundary=0)
        condition = shifted.query.condition
        assert condition.right == Col("a", 2)
        assert condition.left == Col("c", 0)

    def test_shift_deeply_nested(self):
        # two sublink levels: innermost ref at level 2 escapes, level 1
        # (referencing the middle query) does not
        innermost = Select(
            scan("w", "e"),
            Comparison("=", Col("e"), Col("a", level=2)))
        middle = Select(
            scan("u", "c"),
            Sublink(SublinkKind.EXISTS, innermost))
        expr = Sublink(SublinkKind.EXISTS, middle)
        shifted = shift_correlation_expr(expr, 1, boundary=0)
        inner_cond = shifted.query.condition.query.condition
        assert inner_cond.right == Col("a", 3)
        assert inner_cond.left == Col("e", 0)

    def test_zero_delta_is_identity(self):
        op = Select(scan(), Comparison("=", Col("a"), Col("x", 1)))
        assert shift_correlation(op, 0) is op


class TestProperties:
    def test_is_correlated_true(self):
        query = Select(scan("u", "c"),
                       Comparison("=", Col("c"), Col("a", level=1)))
        assert is_correlated(query)
        assert correlation_depth(query) == 1

    def test_is_correlated_false(self):
        query = Select(scan("u", "c"),
                       Comparison("=", Col("c"), Const(1)))
        assert not is_correlated(query)

    def test_correlation_through_nested_sublink(self):
        innermost = Select(
            scan("w", "e"),
            Comparison("=", Col("e"), Col("a", level=2)))
        query = Select(scan("u", "c"),
                       Sublink(SublinkKind.EXISTS, innermost))
        assert is_correlated(query)

    def test_internal_reference_not_correlated(self):
        innermost = Select(
            scan("w", "e"),
            Comparison("=", Col("e"), Col("c", level=1)))
        query = Select(scan("u", "c"),
                       Sublink(SublinkKind.EXISTS, innermost))
        assert not is_correlated(query)

    def test_nested_sublinks_walked_once(self, monkeypatch):
        """Regression: ``_max_escape_op`` descended into each nested
        sublink query twice per level, so a 4-deep ``EXISTS`` asked the
        innermost selection for its expressions 16 times."""
        query = Select(scan("t4", "d"),
                       Comparison("=", Col("d"), Col("a", level=4)))
        for name in ("t3", "t2", "t1"):
            query = Select(scan(name, "c"),
                           Sublink(SublinkKind.EXISTS, query))
        asked = []
        expressions = Select.expressions
        monkeypatch.setattr(
            Select, "expressions",
            lambda self: asked.append(id(self)) or expressions(self))
        assert correlation_depth(query) == 1
        assert len(asked) == len(set(asked)) == 4

    def test_sublink_answers_correlated_from_one_walk(self, monkeypatch):
        sublink = Sublink(SublinkKind.EXISTS, Select(
            scan("u", "c"), Comparison("=", Col("c"), Col("a", level=1))))
        assert sublink.correlated
        monkeypatch.setattr(Select, "expressions", None)  # no second walk
        assert sublink.correlated
        assert not Sublink(SublinkKind.EXISTS, scan()).correlated

    def test_has_sublink(self):
        assert Not(Sublink(SublinkKind.EXISTS, scan())).has_sublink
        assert not Comparison("=", Col("a"), Const(1)).has_sublink

    def test_collect_base_relations_includes_sublink_queries(self):
        sub = Sublink(SublinkKind.EXISTS, scan("u", "c"))
        plan = Select(scan("t"), sub)
        tables = [b.table for b in collect_base_relations(plan)]
        assert tables == ["t", "u"]


class TestTreeWalking:
    def test_iter_operators_preorder(self):
        plan = Select(Join(scan("t"), scan("u", "c", "d"), TRUE,
                           JoinKind.CROSS), TRUE)
        kinds = [type(op).__name__ for op in iter_operators(plan)]
        assert kinds == ["Select", "Join", "BaseRelation", "BaseRelation"]

    def test_transform_expressions_rebuilds(self):
        plan = Select(scan(), Comparison("=", Col("a"), Const(1)))

        def widen(expr):
            return TRUE

        new_plan = transform_expressions(plan, widen)
        assert new_plan.condition == TRUE
        assert plan.condition != TRUE  # original untouched

    def test_explain_renders_tree(self):
        sub = Sublink(SublinkKind.EXISTS, scan("u", "c"))
        plan = Select(scan("t"), sub)
        text = explain(plan)
        assert "Scan t" in text and "Scan u" in text
        assert "sublink exists" in text
