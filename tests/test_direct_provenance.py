"""Direct provenance propagation (the paper's future-work operators) vs
the rewrite approach — a fully independent cross-validation path."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import connect, Connection
from repro.provenance.direct import direct_provenance


def compare_paths(db: Connection, sql: str, strategy: str = "gen"):
    """Rewrite-based and direct provenance must agree exactly."""
    plan = db.plan(sql)
    direct = direct_provenance(db.catalog, plan)
    rewritten = db.provenance(sql, strategy=strategy)
    assert list(direct.schema.names) == list(rewritten.schema.names)
    assert Counter(direct.rows) == Counter(rewritten.rows), sql
    return direct


class TestAgreementOnPaperExamples:
    def test_figure3_q1(self, figure3_db):
        compare_paths(
            figure3_db,
            "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)")

    def test_figure3_q2(self, figure3_db):
        compare_paths(
            figure3_db,
            "SELECT * FROM s WHERE c > ALL (SELECT a FROM r)")

    def test_figure3_q3(self, figure3_db):
        compare_paths(
            figure3_db,
            "SELECT * FROM r WHERE a = 3 OR "
            "NOT (a < ALL (SELECT c FROM s WHERE c <> 1))")

    def test_correlated_exists(self, figure3_db):
        compare_paths(
            figure3_db,
            "SELECT * FROM s WHERE EXISTS "
            "(SELECT * FROM r WHERE r.b = s.c)")

    def test_scalar_in_projection(self, figure3_db):
        compare_paths(
            figure3_db,
            "SELECT a, (SELECT max(c) FROM s) AS mx FROM r")

    def test_aggregation(self, figure3_db):
        compare_paths(figure3_db,
                      "SELECT b, sum(a) AS s FROM r GROUP BY b")

    def test_scalar_aggregate_empty_input(self, figure3_db):
        figure3_db.execute("CREATE TABLE empty (e int)")
        direct = compare_paths(figure3_db,
                               "SELECT count(*) AS n FROM empty")
        assert direct.rows == [(0, None)]

    def test_joins(self, figure3_db):
        compare_paths(figure3_db, "SELECT a, c FROM r, s WHERE a < c")
        compare_paths(figure3_db,
                      "SELECT a, d FROM r LEFT JOIN s ON a = c")

    def test_set_operations(self, figure3_db):
        compare_paths(figure3_db,
                      "SELECT a FROM r UNION ALL SELECT c FROM s")
        compare_paths(figure3_db,
                      "SELECT a FROM r INTERSECT SELECT c FROM s")
        compare_paths(figure3_db,
                      "SELECT a FROM r EXCEPT SELECT c FROM s")

    def test_distinct(self, figure3_db):
        compare_paths(figure3_db, "SELECT DISTINCT b FROM r")

    def test_order_by_propagates_provenance(self, figure3_db):
        # Sort must keep (row, access) pairs aligned — both directions.
        asc = direct_provenance(
            figure3_db.catalog,
            figure3_db.plan("SELECT a, b FROM r ORDER BY b, a"))
        assert [row[:2] for row in asc.rows] == [(1, 1), (2, 1), (3, 2)]
        desc = direct_provenance(
            figure3_db.catalog,
            figure3_db.plan("SELECT a, b FROM r ORDER BY a DESC"))
        assert [row[:2] for row in desc.rows] == [(3, 2), (2, 1), (1, 1)]

    def test_nested_sublinks(self, figure3_db):
        compare_paths(
            figure3_db,
            "SELECT a FROM r WHERE a IN ("
            "  SELECT c FROM s WHERE EXISTS ("
            "    SELECT * FROM r r2 WHERE r2.a = s.c))")

    def test_multiple_sublinks(self, figure3_db):
        compare_paths(
            figure3_db,
            "SELECT a FROM r WHERE a = ANY (SELECT c FROM s) "
            "AND a >= ALL (SELECT a FROM r r2 WHERE r2.a < 2)")

    def test_empty_result_keeps_schema(self, figure3_db):
        direct = compare_paths(
            figure3_db,
            "SELECT a FROM r WHERE a > 99 AND "
            "a = ANY (SELECT c FROM s)")
        assert any(name.startswith("prov_s") for name in
                   direct.schema.names)


small_int = st.integers(min_value=-3, max_value=3)
rows_st = st.lists(st.tuples(small_int, small_int), max_size=5)
shapes = st.sampled_from([
    "a {op} ANY (SELECT c FROM s)",
    "a {op} ALL (SELECT c FROM s WHERE d > 0)",
    "EXISTS (SELECT * FROM s WHERE c = b)",
    "NOT EXISTS (SELECT * FROM s WHERE c = b)",
    "a NOT IN (SELECT c FROM s)",
    "a {op} (SELECT min(c) FROM s)",
])
ops = st.sampled_from(["=", "<", ">="])


@settings(max_examples=50, deadline=None)
@given(rows_st, rows_st, shapes, ops)
def test_direct_matches_rewrite_on_random_databases(r_rows, s_rows,
                                                    shape, op):
    db = connect()
    db.execute("CREATE TABLE r (a int, b int)")
    db.insert("r", r_rows)
    db.execute("CREATE TABLE s (c int, d int)")
    db.insert("s", s_rows)
    predicate = shape.format(op=op)
    compare_paths(db, f"SELECT a, b FROM r WHERE {predicate}")
