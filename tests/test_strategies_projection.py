"""Sublink strategies on projections (rules G2 / L2 / T2, Theorem 2)."""

import pytest

from repro import RewriteError

GENERAL = ("gen", "left", "move", "auto")


def prov_rows(db, sql, strategy):
    return sorted(
        db.provenance(sql, strategy=strategy).rows,
        key=lambda row: tuple((v is not None, str(v)) for v in row))


class TestScalarSublinkInProjection:
    SQL = "SELECT a, (SELECT max(c) FROM s) AS mx FROM r"

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_every_sublink_tuple_contributes(self, figure3_db, strategy):
        rows = prov_rows(figure3_db, self.SQL, strategy)
        # 3 r-rows x 3 s-rows (max aggregates over all of s)
        assert len(rows) == 9
        assert all(row[1] == 4 for row in rows)

    def test_unn_has_no_projection_rule(self, figure3_db):
        with pytest.raises(RewriteError, match="projection"):
            figure3_db.provenance(self.SQL, strategy="unn")


class TestBooleanSublinkInProjection:
    @pytest.mark.parametrize("strategy", GENERAL)
    def test_exists_value_per_row(self, figure3_db, strategy):
        sql = ("SELECT a, EXISTS (SELECT * FROM s WHERE c > 3) AS has_big "
               "FROM r")
        rows = prov_rows(figure3_db, sql, strategy)
        assert all(row[1] is True for row in rows)
        # EXISTS provenance = whole sublink result σ_{c>3}(s) = {(4,5)}
        assert len(rows) == 3
        assert all(row[4:] == (4, 5) for row in rows)

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_any_sublink_in_projection(self, figure3_db, strategy):
        sql = "SELECT a, a = ANY (SELECT c FROM s) AS hit FROM r"
        rows = prov_rows(figure3_db, sql, strategy)
        by_a = {}
        for row in rows:
            by_a.setdefault(row[0], []).append(row)
        # a=1: reqtrue, provenance = Tsub_true = {(1,3)}
        assert len(by_a[1]) == 1 and by_a[1][0][1] is True
        assert by_a[1][0][4:] == (1, 3)
        # a=2: reqtrue with match (2,4)
        assert len(by_a[2]) == 1 and by_a[2][0][4:] == (2, 4)
        # a=3: sublink false, provenance = whole Tsub (3 rows)
        assert len(by_a[3]) == 3 and all(r[1] is False for r in by_a[3])

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_sublink_inside_expression(self, figure3_db, strategy):
        sql = ("SELECT a + (SELECT min(c) FROM s) AS shifted FROM r "
               "WHERE a = 1")
        rows = prov_rows(figure3_db, sql, strategy)
        assert all(row[0] == 2 for row in rows)
        assert len(rows) == 3  # min() aggregates all of s


class TestCorrelatedProjectionSublinks:
    """Section 2.6: provenance per (output tuple, input tuple) pair."""

    def test_paper_example_parameterized_sublink(self, figure3_db):
        # q = Π_{a = ALL(σ_{b=c}(S))}(R) — rendered in SQL over (c)
        sql = ("SELECT a = ALL (SELECT c FROM s WHERE c = b) AS v FROM r")
        rows = prov_rows(figure3_db, sql, "gen")
        # input (1,1): Tsub={1}, 1=ALL{1} true, prov {(1,3)}
        # input (2,1): Tsub={1}, 2=ALL{1} false, prov Tsub_false={(1,3)}
        # input (3,2): Tsub={2}, 3=ALL{2} false, prov {(2,4)}
        expected = sorted([
            (True, 1, 1, 1, 3),
            (False, 2, 1, 1, 3),
            (False, 3, 2, 2, 4),
        ], key=lambda row: tuple((v is not None, str(v)) for v in row))
        assert rows == expected

    def test_correlated_scalar_in_projection(self, figure3_db):
        sql = ("SELECT a, (SELECT sum(d) FROM s WHERE c = a) AS total "
               "FROM r")
        rows = prov_rows(figure3_db, sql, "gen")
        values = {(row[0], row[1]) for row in rows}
        assert values == {(1, 3), (2, 4), (3, None)}
        # a=3 has an empty sublink: null-padded provenance
        null_rows = [row for row in rows if row[0] == 3]
        assert null_rows == [(3, None, 3, 2, None, None)]

    def test_left_rejects_correlated_projection_sublink(self, figure3_db):
        sql = "SELECT (SELECT sum(d) FROM s WHERE c = a) AS t FROM r"
        with pytest.raises(RewriteError, match="correlated"):
            figure3_db.provenance(sql, strategy="left")


class TestMixedSelectionAndProjection:
    @pytest.mark.parametrize("strategy", GENERAL)
    def test_sublinks_in_both_clauses(self, figure3_db, strategy):
        sql = ("SELECT a, (SELECT min(c) FROM s) AS lo FROM r "
               "WHERE a = ANY (SELECT c FROM s)")
        rows = prov_rows(figure3_db, sql, strategy)
        originals = {(row[0], row[1]) for row in rows}
        assert originals == {(1, 1), (2, 1)}
        # schema: a, lo, P(r), P(s from WHERE), P(s from SELECT)
        assert len(rows[0]) == 2 + 2 + 2 + 2
