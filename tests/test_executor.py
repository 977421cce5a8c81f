"""Executor: joins, aggregation, set ops, sorting, sublinks, caching."""

import pytest

from repro.errors import ExecutionError
from repro.algebra.operators import (
    Join, JoinKind, Values,
)
from repro.expressions.ast import TRUE
from repro.engine import Executor
from repro.catalog import Catalog
from repro.schema import Schema


@pytest.fixture
def db(figure3_db):
    return figure3_db


class TestJoins:
    def test_inner_join(self, db):
        rows = db.sql(
            "SELECT a, d FROM r JOIN s ON a = c ORDER BY a").rows
        assert rows == [(1, 3), (2, 4)]

    def test_left_join_pads_nulls(self, db):
        rows = db.sql(
            "SELECT a, d FROM r LEFT JOIN s ON a = c ORDER BY a").rows
        assert rows == [(1, 3), (2, 4), (3, None)]

    def test_left_join_empty_right(self, db):
        db.execute("CREATE TABLE empty (e int)")
        rows = db.sql("SELECT a, e FROM r LEFT JOIN empty ON a = e").rows
        assert sorted(rows) == [(1, None), (2, None), (3, None)]

    def test_cross_join_cardinality(self, db):
        assert len(db.sql("SELECT 1 FROM r CROSS JOIN s").rows) == 9

    def test_hash_join_used_for_equality(self, db):
        db.sql("SELECT a FROM r JOIN s ON a = c")
        assert db.last_stats.hash_joins >= 1
        assert db.last_stats.nested_loop_joins == 0

    def test_nested_loop_used_for_inequality(self, db):
        db.sql("SELECT a FROM r JOIN s ON a < c")
        assert db.last_stats.nested_loop_joins >= 1

    def test_hash_join_residual_condition(self, db):
        rows = db.sql(
            "SELECT a, d FROM r JOIN s ON a = c AND d > 3").rows
        assert rows == [(2, 4)]

    def test_null_keys_never_equijoin(self, db):
        db.execute("CREATE TABLE n1 (x int)")
        db.execute("INSERT INTO n1 VALUES (NULL), (1)")
        db.execute("CREATE TABLE n2 (y int)")
        db.execute("INSERT INTO n2 VALUES (NULL), (1)")
        rows = db.sql("SELECT x, y FROM n1 JOIN n2 ON x = y").rows
        assert rows == [(1, 1)]

    def test_left_join_null_key_pads(self, db):
        db.execute("CREATE TABLE n1 (x int)")
        db.execute("INSERT INTO n1 VALUES (NULL)")
        rows = db.sql("SELECT x, c FROM n1 LEFT JOIN s ON x = c").rows
        assert rows == [(None, None)]


class TestAggregation:
    def test_group_by_with_nulls_grouped_together(self, db):
        db.execute("CREATE TABLE g (k int, v int)")
        db.execute(
            "INSERT INTO g VALUES (NULL, 1), (NULL, 2), (1, 3)")
        rows = sorted(db.sql(
            "SELECT k, sum(v) AS s FROM g GROUP BY k").rows,
            key=lambda r: (r[0] is not None, r[0]))
        assert rows == [(None, 3), (1, 3)]

    def test_scalar_aggregate_over_empty_input(self, db):
        db.execute("CREATE TABLE empty (e int)")
        rows = db.sql(
            "SELECT count(*) AS n, sum(e) AS s, min(e) AS m "
            "FROM empty").rows
        assert rows == [(0, None, None)]

    def test_group_by_empty_input_yields_no_rows(self, db):
        db.execute("CREATE TABLE empty (e int)")
        assert db.sql("SELECT e, count(*) FROM empty GROUP BY e").rows == []

    def test_count_distinct(self, db):
        rows = db.sql("SELECT count(DISTINCT b) AS n FROM r").rows
        assert rows == [(2,)]

    def test_avg(self, db):
        assert db.sql("SELECT avg(a) AS m FROM r").rows == [(2.0,)]

    def test_aggregate_of_expression(self, db):
        assert db.sql("SELECT sum(a * b) AS s FROM r").rows == [(9,)]


class TestSortLimit:
    def test_sort_asc_nulls_first(self, db):
        db.execute("CREATE TABLE n (x int)")
        db.execute("INSERT INTO n VALUES (2), (NULL), (1)")
        assert db.sql("SELECT x FROM n ORDER BY x").rows == [
            (None,), (1,), (2,)]

    def test_sort_desc_nulls_last(self, db):
        db.execute("CREATE TABLE n (x int)")
        db.execute("INSERT INTO n VALUES (2), (NULL), (1)")
        assert db.sql("SELECT x FROM n ORDER BY x DESC").rows == [
            (2,), (1,), (None,)]

    def test_multi_key_sort(self, db):
        rows = db.sql("SELECT b, a FROM r ORDER BY b DESC, a").rows
        assert rows == [(2, 3), (1, 1), (1, 2)]

    def test_limit_offset(self, db):
        rows = db.sql("SELECT a FROM r ORDER BY a LIMIT 1 OFFSET 1").rows
        assert rows == [(2,)]

    def test_limit_zero(self, db):
        assert db.sql("SELECT a FROM r LIMIT 0").rows == []


class TestSublinks:
    def test_scalar_sublink_empty_is_null(self, db):
        rows = db.sql(
            "SELECT (SELECT c FROM s WHERE c > 100) AS v FROM r").rows
        assert rows == [(None,), (None,), (None,)]

    def test_scalar_sublink_multiple_rows_raises(self, db):
        with pytest.raises(ExecutionError, match="scalar sublink"):
            db.sql("SELECT (SELECT c FROM s) AS v FROM r")

    def test_any_with_null_test_value(self, db):
        db.execute("CREATE TABLE n (x int)")
        db.execute("INSERT INTO n VALUES (NULL)")
        rows = db.sql(
            "SELECT x FROM n WHERE x = ANY (SELECT c FROM s)").rows
        assert rows == []  # unknown, filtered

    def test_not_in_with_null_in_subquery_is_empty(self, db):
        # classic SQL trap: NOT IN over a set containing NULL
        db.execute("CREATE TABLE n (x int)")
        db.execute("INSERT INTO n VALUES (NULL), (2)")
        rows = db.sql(
            "SELECT a FROM r WHERE a NOT IN (SELECT x FROM n)").rows
        assert rows == []

    def test_all_over_empty_set_is_true(self, db):
        rows = db.sql(
            "SELECT a FROM r WHERE a < ALL (SELECT c FROM s WHERE c > 99)"
        ).rows
        assert len(rows) == 3

    def test_exists_over_empty_is_false(self, db):
        rows = db.sql(
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c > 99)"
        ).rows
        assert rows == []

    def test_uncorrelated_sublink_cached(self, db):
        db.sql("SELECT a FROM r WHERE a = ANY (SELECT c FROM s)")
        stats = db.last_stats
        assert stats.sublink_executions == 1
        assert stats.sublink_cache_hits >= 2

    def test_correlated_sublink_not_cached(self, db):
        db.sql("SELECT a FROM r WHERE EXISTS "
               "(SELECT * FROM s WHERE c = b)")
        assert db.last_stats.sublink_executions == 3  # once per r row


class TestMisc:
    def test_values_operator(self):
        catalog = Catalog()
        executor = Executor(catalog)
        values = Values(Schema.of("x"), [(1,), (2,)])
        assert executor.execute(values).rows == [(1,), (2,)]

    def test_join_on_true_left_empty_right(self):
        catalog = Catalog()
        executor = Executor(catalog)
        left = Values(Schema.of("x"), [(1,)])
        right = Values(Schema.of("y"), [])
        join = Join(left, right, TRUE, JoinKind.LEFT)
        assert executor.execute(join).rows == [(1, None)]

    def test_stats_rows_produced(self, db):
        db.sql("SELECT a FROM r")
        assert db.last_stats.rows_produced >= 3

    def test_distinct_projection(self, db):
        assert sorted(db.sql("SELECT DISTINCT b FROM r").rows) == [
            (1,), (2,)]
