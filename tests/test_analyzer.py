"""Semantic analysis: name resolution, correlation levels, aggregation
normalization, views, error reporting."""

import pytest

from repro.errors import AnalyzerError
from repro.expressions.ast import Col, Sublink
from repro.algebra.operators import (
    Aggregate, Join, JoinKind, Limit, Project, Select, SetOp, Sort, Values,
)
from repro.algebra.trees import iter_operators
from repro.algebra.properties import is_correlated


@pytest.fixture
def db(figure3_db):
    return figure3_db


def plan_of(db, sql):
    return db.plan(sql)


class TestResolution:
    def test_unknown_column_raises(self, db):
        with pytest.raises(AnalyzerError, match="unknown column"):
            db.sql("SELECT zzz FROM r")

    def test_unknown_table_raises(self, db):
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.sql("SELECT * FROM nope")

    def test_ambiguous_column_raises(self, db):
        db.execute("CREATE TABLE r2 (a int)")
        with pytest.raises(AnalyzerError, match="ambiguous"):
            db.sql("SELECT a FROM r, r2")

    def test_qualified_reference_disambiguates(self, db):
        db.execute("CREATE TABLE r2 (a int)")
        db.execute("INSERT INTO r2 VALUES (7)")
        rows = db.sql("SELECT r2.a FROM r, r2").rows
        assert set(rows) == {(7,)}

    def test_alias_shadows_table_name(self, db):
        rows = db.sql("SELECT x.a FROM r AS x WHERE x.a = 1").rows
        assert rows == [(1, )]

    def test_duplicate_alias_raises(self, db):
        with pytest.raises(AnalyzerError, match="duplicate table alias"):
            db.sql("SELECT 1 FROM r, r")

    def test_same_table_twice_with_aliases(self, db):
        rows = db.sql(
            "SELECT x.a, y.a FROM r x, r y WHERE x.a = y.a AND x.a = 2"
        ).rows
        assert rows == [(2, 2)]

    def test_select_without_from(self, db):
        assert db.sql("SELECT 1 + 1 AS two").rows == [(2,)]

    def test_star_expansion_order(self, db):
        relation = db.sql("SELECT * FROM r, s LIMIT 1")
        assert list(relation.schema.names) == ["a", "b", "c", "d"]

    def test_duplicate_labels_disambiguated(self, db):
        db.execute("CREATE TABLE r2 (a int)")
        relation = db.sql("SELECT r.a, r2.a FROM r, r2")
        assert list(relation.schema.names) == ["a", "a_1"]


class TestCorrelation:
    def test_sublink_gets_level_one_reference(self, db):
        plan = plan_of(
            db, "SELECT * FROM r WHERE EXISTS "
                "(SELECT * FROM s WHERE c = b)")
        select = next(op for op in iter_operators(plan)
                      if isinstance(op, Select))
        sublink = select.condition
        assert isinstance(sublink, Sublink)
        assert is_correlated(sublink.query)

    def test_uncorrelated_sublink(self, db):
        plan = plan_of(
            db, "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)")
        select = next(op for op in iter_operators(plan)
                      if isinstance(op, Select))
        assert not is_correlated(select.condition.query)

    def test_doubly_nested_correlation(self, db):
        # innermost query references r (two sublink levels out)
        rows = db.sql(
            "SELECT a FROM r WHERE EXISTS ("
            "  SELECT * FROM s WHERE EXISTS ("
            "    SELECT * FROM s s2 WHERE s2.c = r.a AND s2.d >= s.d))"
        ).rows
        # r.a in {1,2} matches s.c values 1,2 with d >= some s.d
        assert sorted(rows) == [(1,), (2,)]

    def test_inner_scope_shadows_outer(self, db):
        # both r and the sublink's r alias expose "a"; innermost wins
        rows = db.sql(
            "SELECT a FROM r WHERE a = (SELECT max(x.a) FROM r x)").rows
        assert rows == [(3, 2)] or rows == [(3,)]


class TestAggregationPlanning:
    def test_plain_group_by(self, db):
        plan = plan_of(db, "SELECT b, count(*) AS n FROM r GROUP BY b")
        assert any(isinstance(op, Aggregate)
                   for op in iter_operators(plan))

    def test_group_expression_normalized_into_projection(self, db):
        plan = plan_of(
            db, "SELECT a + b AS ab, count(*) AS n FROM r GROUP BY a + b")
        aggregate = next(op for op in iter_operators(plan)
                         if isinstance(op, Aggregate))
        assert isinstance(aggregate.input, Project)
        assert aggregate.group[0].startswith("group_")

    def test_aggregate_argument_expression_normalized(self, db):
        plan = plan_of(db, "SELECT sum(a * 2) AS s FROM r")
        aggregate = next(op for op in iter_operators(plan)
                         if isinstance(op, Aggregate))
        (name, call), = aggregate.aggregates
        assert isinstance(call.arg, Col)

    def test_ungrouped_column_raises(self, db):
        with pytest.raises(AnalyzerError, match="GROUP BY"):
            db.sql("SELECT a, count(*) FROM r GROUP BY b")

    def test_having_without_group_or_aggregate_raises(self, db):
        with pytest.raises(AnalyzerError, match="HAVING"):
            db.sql("SELECT a FROM r HAVING a > 1")

    def test_having_with_implicit_group(self, db):
        rows = db.sql("SELECT sum(a) AS s FROM r HAVING sum(a) > 100").rows
        assert rows == []

    def test_duplicate_aggregates_computed_once(self, db):
        plan = plan_of(
            db, "SELECT sum(a) AS s1, sum(a) AS s2 FROM r")
        aggregate = next(op for op in iter_operators(plan)
                         if isinstance(op, Aggregate))
        assert len(aggregate.aggregates) == 1

    def test_nested_aggregate_raises(self, db):
        with pytest.raises(AnalyzerError, match="nested"):
            db.sql("SELECT sum(count(a)) FROM r")


class TestOrderLimit:
    def test_order_by_label(self, db):
        plan = plan_of(db, "SELECT a AS x FROM r ORDER BY x")
        assert isinstance(plan, Sort)

    def test_order_by_ordinal(self, db):
        rows = db.sql("SELECT a, b FROM r ORDER BY 2 DESC, 1 DESC").rows
        assert rows[0] == (3, 2)

    def test_order_by_ordinal_out_of_range(self, db):
        with pytest.raises(AnalyzerError, match="out of range"):
            db.sql("SELECT a FROM r ORDER BY 5")

    def test_order_by_non_output_expression(self, db):
        # standard SQL: sort keys may reference FROM columns that are not
        # in the select list (planned via a hidden key column)
        rows = db.sql("SELECT a FROM r ORDER BY b DESC, a DESC").rows
        assert rows == [(3,), (2,), (1,)]
        assert db.sql("SELECT a FROM r ORDER BY b DESC, a DESC"
                      ).schema.names == ("a",)

    def test_order_by_unknown_column_still_raises(self, db):
        with pytest.raises(AnalyzerError, match="unknown column"):
            db.sql("SELECT a FROM r ORDER BY zzz")

    def test_limit_offset_plan(self, db):
        plan = plan_of(db, "SELECT a FROM r LIMIT 2 OFFSET 1")
        assert isinstance(plan, Limit)
        assert plan.count == 2 and plan.offset == 1


class TestViewsAndSubqueries:
    def test_view_expansion(self, db):
        db.create_view("big", "SELECT a FROM r WHERE a >= 2")
        assert sorted(db.sql("SELECT * FROM big").rows) == [(2,), (3,)]

    def test_view_joins_with_tables(self, db):
        db.create_view("big", "SELECT a AS v FROM r WHERE a >= 2")
        rows = db.sql(
            "SELECT v, c FROM big, s WHERE v = c ORDER BY v").rows
        assert rows == [(2, 2)]

    def test_derived_table(self, db):
        rows = db.sql(
            "SELECT t.x FROM (SELECT a + 1 AS x FROM r) AS t "
            "WHERE t.x > 2 ORDER BY x").rows
        assert rows == [(3,), (4,)]

    def test_sublinks_require_single_column(self, db):
        with pytest.raises(AnalyzerError, match="one.*column|column"):
            db.sql("SELECT * FROM r WHERE a = ANY (SELECT c, d FROM s)")

    def test_exists_allows_multiple_columns(self, db):
        db.sql("SELECT * FROM r WHERE EXISTS (SELECT c, d FROM s)")

    def test_provenance_in_subquery_rejected(self, db):
        with pytest.raises(AnalyzerError, match="top level"):
            db.sql("SELECT * FROM (SELECT PROVENANCE a FROM r) AS t")

    def test_provenance_in_sublink_rejected(self, db):
        with pytest.raises(AnalyzerError, match="top level"):
            db.sql(
                "SELECT * FROM r WHERE a IN (SELECT PROVENANCE c FROM s)")


class TestSetOps:
    def test_arity_mismatch_raises(self, db):
        with pytest.raises(AnalyzerError, match="different numbers"):
            db.sql("SELECT a FROM r UNION SELECT c, d FROM s")

    def test_setop_plan_shape(self, db):
        plan = plan_of(db, "SELECT a FROM r UNION SELECT c FROM s")
        assert isinstance(plan, SetOp)

    def test_join_condition_with_sublink_normalized(self, db):
        plan = plan_of(
            db, "SELECT 1 FROM r JOIN s ON a = c AND "
                "d IN (SELECT b FROM r r2)")
        # the join must have been replaced by a selection over a cross
        joins = [op for op in iter_operators(plan)
                 if isinstance(op, Join) and op.kind != JoinKind.CROSS]
        assert not joins

    def test_left_join_with_sublink_executes(self, db):
        # executable (the executor evaluates sublinks in join conditions),
        # but provenance through it is rejected by the rewriter
        db.sql("SELECT 1 FROM r LEFT JOIN s ON d IN (SELECT b FROM r r2)")
        from repro import RewriteError
        with pytest.raises(RewriteError, match="join conditions"):
            db.provenance(
                "SELECT 1 FROM r LEFT JOIN s ON d IN (SELECT b FROM r r2)")
