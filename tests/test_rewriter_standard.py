"""Standard-operator rewrite rules R1-R5 plus set operations and DISTINCT.

The invariant checked throughout: ``schema(q+) = schema(q) ++ prov names``
and the *original* part of q+ equals q after duplicate elimination
(result preservation, the first half of Theorem 4).
"""

import pytest

from repro import Connection, RewriteError
from repro.provenance import ProvenanceRewriter
from repro.engine import Executor



def preservation(db: Connection, sql: str, strategy: str = "auto"):
    """Check result preservation and return (plain, provenance) rows."""
    plain = db.sql(sql)
    prov = db.provenance(sql, strategy=strategy)
    width = len(plain.schema)
    assert list(prov.schema.names[:width]) == list(plain.schema.names)
    original_part = {tuple(row[:width]) for row in prov.rows}
    assert original_part == set(plain.rows), sql
    return plain, prov


class TestBaseAndProjection:
    def test_r1_base_relation(self, figure3_db):
        prov = figure3_db.provenance("SELECT * FROM r")
        assert list(prov.schema.names) == [
            "a", "b", "prov_r_a", "prov_r_b"]
        assert sorted(prov.rows) == [
            (1, 1, 1, 1), (2, 1, 2, 1), (3, 2, 3, 2)]

    def test_r2_projection_with_expression(self, figure3_db):
        prov = figure3_db.provenance("SELECT a + b AS s FROM r")
        assert sorted(prov.rows) == [
            (2, 1, 1), (3, 2, 1), (5, 3, 2)]

    def test_distinct_becomes_duplicate_preserving(self, figure3_db):
        # two r tuples share b = 1: DISTINCT output has one row, the
        # provenance relation one row per contributor
        plain = figure3_db.sql("SELECT DISTINCT b FROM r")
        prov = figure3_db.provenance("SELECT DISTINCT b FROM r")
        assert len(plain.rows) == 2
        assert sorted(prov.rows) == [
            (1, 1, 1), (1, 2, 1), (2, 3, 2)]

    def test_same_table_twice_gets_distinct_prov_names(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT x.a FROM r x, r y WHERE x.a = y.a AND x.a = 1")
        names = list(prov.schema.names)
        assert names == ["a", "prov_r_a", "prov_r_b", "prov_r_a_1",
                         "prov_r_b_1"]


class TestSelectionAndJoin:
    def test_r3_selection(self, figure3_db):
        preservation(figure3_db, "SELECT * FROM r WHERE a >= 2")

    def test_r4_join_provenance_pairs(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT a, c FROM r, s WHERE a < c")
        # paper's q_ex (Section 3.1) with these relations
        assert len(prov.schema) == 2 + 2 + 2

    def test_left_join_null_padded_provenance(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT a, d FROM r LEFT JOIN s ON a = c")
        row_for_3 = [row for row in prov.rows if row[0] == 3]
        assert row_for_3 == [(3, None, 3, 2, None, None)]


class TestAggregation:
    def test_r5_group_provenance(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT b, sum(a) AS s FROM r GROUP BY b")
        assert sorted(prov.rows) == [
            (1, 3, 1, 1), (1, 3, 2, 1), (2, 3, 3, 2)]

    def test_r5_scalar_aggregate_all_rows_contribute(self, figure3_db):
        prov = figure3_db.provenance("SELECT sum(a) AS s FROM r")
        assert sorted(prov.rows) == [(6, 1, 1), (6, 2, 1), (6, 3, 2)]

    def test_r5_empty_input_keeps_result_row(self, figure3_db):
        figure3_db.execute("CREATE TABLE empty (e int)")
        prov = figure3_db.provenance(
            "SELECT count(*) AS n FROM empty")
        assert prov.rows == [(0, None)]

    def test_r5_null_group_key(self, figure3_db):
        figure3_db.execute("CREATE TABLE g (k int, v int)")
        figure3_db.execute(
            "INSERT INTO g VALUES (NULL, 1), (NULL, 2), (7, 3)")
        prov = figure3_db.provenance(
            "SELECT k, sum(v) AS s FROM g GROUP BY k")
        null_rows = [r for r in prov.rows if r[0] is None]
        # the =n join must bring both NULL-group contributors back
        assert sorted(r[3] for r in null_rows) == [1, 2]

    def test_aggregate_then_filter(self, figure3_db):
        preservation(
            figure3_db,
            "SELECT b, count(*) AS n FROM r GROUP BY b HAVING count(*) > 1")


class TestSetOperations:
    def test_union_all_pads_other_side(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT a FROM r UNION ALL SELECT c FROM s")
        for row in prov.rows:
            from_r = row[1] is not None
            from_s = row[3] is not None
            assert from_r != from_s

    def test_union_distinct_result_preserved(self, figure3_db):
        preservation(figure3_db, "SELECT a FROM r UNION SELECT c FROM s")

    def test_intersect_joins_both_sides(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT a FROM r INTERSECT SELECT c FROM s")
        assert sorted(prov.rows) == [
            (1, 1, 1, 1, 3), (2, 2, 1, 2, 4)]

    def test_except_right_side_is_whole_relation(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT a FROM r EXCEPT SELECT c FROM s")
        # only a = 3 survives; every s tuple witnesses its absence
        assert {row[0] for row in prov.rows} == {3}
        assert len(prov.rows) == 3

    def test_except_empty_right_null_pads(self, figure3_db):
        figure3_db.execute("CREATE TABLE empty (e int)")
        prov = figure3_db.provenance(
            "SELECT a FROM r EXCEPT SELECT e FROM empty")
        assert all(row[-1] is None for row in prov.rows)
        assert len(prov.rows) == 3


class TestSortAndLimit:
    def test_sort_passes_through(self, figure3_db):
        prov = figure3_db.provenance("SELECT a FROM r ORDER BY a DESC")
        assert [row[0] for row in prov.rows] == [3, 2, 1]

    def test_limit_rejected(self, figure3_db):
        with pytest.raises(RewriteError, match="LIMIT"):
            figure3_db.provenance("SELECT a FROM r LIMIT 1")


class TestViewsAndDerivedTables:
    def test_provenance_through_view(self, figure3_db):
        figure3_db.create_view("big", "SELECT a, b FROM r WHERE a >= 2")
        prov = figure3_db.provenance("SELECT a FROM big")
        assert sorted(prov.rows) == [(2, 2, 1), (3, 3, 2)]

    def test_provenance_through_derived_table(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT t.s FROM (SELECT b, sum(a) AS s FROM r GROUP BY b) "
            "AS t WHERE t.s > 2")
        assert sorted(prov.rows) == [
            (3, 1, 1), (3, 2, 1), (3, 3, 2)]
