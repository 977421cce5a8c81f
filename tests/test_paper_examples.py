"""Exact reproductions of every worked example in the paper."""

import pytest

from repro import connect


class TestSection21Examples:
    """Section 2.1: σ_{a=3}(R) and α_{sum(a)}(R) over
    R = {(1,3),(2,2),(3,6)}."""

    @pytest.fixture
    def db(self):
        db = connect()
        db.execute("CREATE TABLE r (a int, b int)")
        db.execute("INSERT INTO r VALUES (1, 3), (2, 2), (3, 6)")
        return db

    def test_selection_provenance(self, db):
        prov = db.provenance("SELECT * FROM r WHERE a = 3")
        assert prov.rows == [(3, 6, 3, 6)]

    def test_aggregation_provenance_all_tuples(self, db):
        prov = db.provenance("SELECT sum(a) AS s FROM r")
        assert sorted(prov.rows) == [
            (6, 1, 3), (6, 2, 2), (6, 3, 6)]


class TestSection31Representation:
    """The q_ex example: Π_{a,c}(σ_{a<c}(R x S)) with
    R = {(1,2),(3,4)}, S = {(2),(5)} — the exact table of Section 3.1."""

    def test_qex_provenance_table(self, qex_db):
        prov = qex_db.provenance(
            "SELECT a, c FROM r, s WHERE a < c")
        assert list(prov.schema.names) == [
            "a", "c", "prov_r_a", "prov_r_b", "prov_s_c"]
        assert sorted(prov.rows) == [
            (1, 2, 1, 2, 2),
            (1, 5, 1, 2, 5),
            (3, 5, 3, 4, 5),
        ]

    def test_how_provenance_association_preserved(self, qex_db):
        """Section 3.1: the single-relation representation keeps which
        input tuples were used *together* — (3,5) pairs (3,4) with (5)."""
        prov = qex_db.provenance("SELECT a, c FROM r, s WHERE a < c")
        row = next(r for r in prov.rows if (r[0], r[1]) == (3, 5))
        assert row[2:] == (3, 4, 5)


class TestSection35GenExample:
    """q = σ_{a = ANY(σ_{c=b}(S))}(R) — the Gen walkthrough."""

    def test_gen_rewrite_result(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT * FROM r WHERE a = ANY (SELECT c FROM s WHERE c = b)",
            strategy="gen")
        assert sorted(prov.rows) == [(1, 1, 1, 1, 1, 3)]


class TestSection36Examples:
    """Left/Move example: q = σ_{a = ALL(S)}(R) with S single-column."""

    @pytest.fixture
    def db(self):
        db = connect()
        db.execute("CREATE TABLE r (a int, b int)")
        db.execute("INSERT INTO r VALUES (1, 1), (2, 1), (3, 2)")
        db.execute("CREATE TABLE s (c int)")
        db.execute("INSERT INTO s VALUES (2), (2)")
        return db

    @pytest.mark.parametrize("strategy", ("gen", "left", "move"))
    def test_equality_all(self, db, strategy):
        prov = db.provenance(
            "SELECT * FROM r WHERE a = ALL (SELECT c FROM s)",
            strategy=strategy)
        # only a=2 passes; sublink true -> provenance is all of S
        assert sorted(prov.rows) == [(2, 1, 2, 1, 2), (2, 1, 2, 1, 2)]

    def test_move_projection_example(self, db):
        """T2's shape: Π_{a, Csub}(R) — sublink moved to a column."""
        prov = db.provenance(
            "SELECT a, a = ALL (SELECT c FROM s) AS v FROM r",
            strategy="move")
        values = {(row[0], row[1]) for row in prov.rows}
        assert values == {(1, False), (2, True), (3, False)}


class TestFigure3FullTable:
    """The complete Figure 3 provenance tables (q1, q2 under Definitions
    1 = 2 for single sublinks; q3 under Definition 2 — see
    test_strategies_selection for the discussion)."""

    def test_q1(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)")
        table = {(row[0], row[1]): (row[2:4], row[4:6])
                 for row in prov.rows}
        assert table == {
            (1, 1): ((1, 1), (1, 3)),
            (2, 1): ((2, 1), (2, 4)),
        }

    def test_q2(self, figure3_db):
        prov = figure3_db.provenance(
            "SELECT * FROM s WHERE c > ALL (SELECT a FROM r)")
        r_side = sorted(row[4:6] for row in prov.rows)
        assert {(row[0], row[1]) for row in prov.rows} == {(4, 5)}
        assert r_side == [(1, 1), (2, 1), (3, 2)]
