"""Sublink strategies on selections: the paper's Figure 3 examples and a
systematic matrix of sublink kinds x strategies."""

import pytest

from repro import connect, RewriteError

GENERAL = ("gen", "left", "move", "auto")


def prov_rows(db, sql, strategy):
    return sorted(db.provenance(sql, strategy=strategy).rows)


class TestFigure3Q1:
    """q1 = σ_{a = ANY(Π_c(S))}(R): Figure 3's exact provenance table."""

    EXPECTED = [(1, 1, 1, 1, 1, 3), (2, 1, 2, 1, 2, 4)]
    SQL = "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)"

    @pytest.mark.parametrize("strategy",
                             ("gen", "left", "move", "unn", "auto"))
    def test_all_strategies_match_paper(self, figure3_db, strategy):
        assert prov_rows(figure3_db, self.SQL, strategy) == self.EXPECTED

    def test_auto_picks_unn_for_equality_any(self, figure3_db):
        from repro.algebra.operators import Join, JoinKind
        from repro.algebra.trees import iter_operators
        from repro.expressions.ast import Sublink
        plan = figure3_db.plan(self.SQL, strategy="auto")
        # Unn produces a plain join and *no* sublink expressions at all
        sublinks = [
            e for op in iter_operators(plan) for e in op.expressions()
            if isinstance(e, Sublink)]
        assert not sublinks


class TestFigure3Q2:
    """q2 = σ_{c > ALL(Π_a(R))}(S): all of R contributes to (4,5)."""

    SQL = "SELECT * FROM s WHERE c > ALL (SELECT a FROM r)"
    EXPECTED = [(4, 5, 4, 5, 1, 1), (4, 5, 4, 5, 2, 1),
                (4, 5, 4, 5, 3, 2)]

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_matches_paper(self, figure3_db, strategy):
        assert prov_rows(figure3_db, self.SQL, strategy) == self.EXPECTED

    def test_unn_rejects_all_sublink(self, figure3_db):
        with pytest.raises(RewriteError):
            figure3_db.provenance(self.SQL, strategy="unn")


class TestFigure3Q3:
    """q3 = σ_{(a=3) ∨ ¬(a < ALL(σ_{c≠1}(Π_c(S))))}(R).

    Under Definition 2 (which Perm implements; Section 2.5 argues condition
    3 should apply to single sublinks too) tuple (3,2)'s sublink provenance
    is Tsub_false = {(2,4)} — the paper's Figure 3 lists {(2,4),(4,5)}
    because that figure still uses Definition 1's `ind` role.
    """

    SQL = ("SELECT * FROM r WHERE a = 3 OR "
           "NOT (a < ALL (SELECT c FROM s WHERE c <> 1))")
    EXPECTED = [(2, 1, 2, 1, 2, 4), (3, 2, 3, 2, 2, 4)]

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_definition2_provenance(self, figure3_db, strategy):
        assert prov_rows(figure3_db, self.SQL, strategy) == self.EXPECTED


class TestSublinkKinds:
    """Each sublink kind against each applicable strategy."""

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_exists_includes_whole_sublink_result(self, figure3_db,
                                                  strategy):
        sql = "SELECT a FROM r WHERE a = 1 AND EXISTS (SELECT c FROM s)"
        rows = prov_rows(figure3_db, sql, strategy)
        # one result tuple x three s-tuples (EXISTS provenance = Tsub)
        assert rows == [(1, 1, 1, 1, 3), (1, 1, 1, 2, 4),
                        (1, 1, 1, 4, 5)]

    def test_exists_unn_matches_gen(self, figure3_db):
        sql = "SELECT a FROM r WHERE a = 1 AND EXISTS (SELECT c FROM s)"
        assert prov_rows(figure3_db, sql, "unn") == \
            prov_rows(figure3_db, sql, "gen")

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_empty_exists_no_result(self, figure3_db, strategy):
        sql = ("SELECT a FROM r WHERE EXISTS "
               "(SELECT c FROM s WHERE c > 99)")
        assert prov_rows(figure3_db, sql, strategy) == []

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_not_exists_empty_sublink_null_padded(self, figure3_db,
                                                  strategy):
        sql = ("SELECT a FROM r WHERE a = 1 AND NOT EXISTS "
               "(SELECT c FROM s WHERE c > 99)")
        rows = prov_rows(figure3_db, sql, strategy)
        assert rows == [(1, 1, 1, None, None)]

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_scalar_sublink_provenance_is_whole_tsub(self, figure3_db,
                                                     strategy):
        sql = "SELECT a FROM r WHERE a < (SELECT max(c) FROM s)"
        rows = prov_rows(figure3_db, sql, strategy)
        # every result row carries all three s tuples (aggregate input)
        assert len(rows) == 3 * 3
        assert {row[0] for row in rows} == {1, 2, 3}

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_any_false_under_negation_keeps_whole_tsub(self, figure3_db,
                                                       strategy):
        # NOT IN: sublink is false for contributing tuples, provenance is
        # the entire sublink result (Figure 2, reqfalse for ANY)
        sql = "SELECT a FROM r WHERE a NOT IN (SELECT c FROM s WHERE c < 2)"
        rows = prov_rows(figure3_db, sql, strategy)
        assert rows == [(2, 2, 1, 1, 3), (3, 3, 2, 1, 3)]

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_multiple_sublinks_cross_provenance(self, figure3_db,
                                                strategy):
        sql = ("SELECT a FROM r WHERE a = ANY (SELECT c FROM s) "
               "AND a >= ALL (SELECT a FROM r r2 WHERE r2.a < 2)")
        rows = prov_rows(figure3_db, sql, strategy)
        # both sublinks contribute provenance columns
        prov_width = len(rows[0]) - 1
        assert prov_width == 2 + 2 + 2  # r + s + r2

    def test_forced_left_rejects_correlated(self, figure3_db):
        sql = ("SELECT a FROM r WHERE EXISTS "
               "(SELECT * FROM s WHERE c = b)")
        with pytest.raises(RewriteError, match="correlated"):
            figure3_db.provenance(sql, strategy="left")
        with pytest.raises(RewriteError, match="correlated"):
            figure3_db.provenance(sql, strategy="move")

    def test_unknown_strategy_rejected(self, figure3_db):
        with pytest.raises(RewriteError, match="unknown strategy"):
            figure3_db.provenance("SELECT a FROM r", strategy="turbo")


class TestCorrelatedSublinks:
    """Section 2.6/3.5: correlated sublinks require the Gen strategy."""

    def test_section35_example(self, figure3_db):
        # q = σ_{a = ANY(σ_{c=b}(S))}(R), the paper's Gen walkthrough
        sql = ("SELECT * FROM r WHERE a = ANY "
               "(SELECT c FROM s WHERE c = b)")
        rows = prov_rows(figure3_db, sql, "gen")
        assert rows == [(1, 1, 1, 1, 1, 3)]

    def test_correlated_exists(self, figure3_db):
        sql = ("SELECT * FROM s WHERE EXISTS "
               "(SELECT * FROM r WHERE r.b = s.c)")
        rows = prov_rows(figure3_db, sql, "gen")
        assert rows == [
            (1, 3, 1, 3, 1, 1), (1, 3, 1, 3, 2, 1), (2, 4, 2, 4, 3, 2)]

    def test_correlated_scalar_aggregate(self, figure3_db):
        # each r row compared against sum of matching s rows
        sql = ("SELECT a FROM r WHERE a < "
               "(SELECT sum(d) FROM s WHERE c >= a)")
        plain = sorted(figure3_db.sql(sql).rows)
        rows = prov_rows(figure3_db, sql, "gen")
        assert sorted({(row[0],) for row in rows}) == plain

    def test_auto_uses_gen_for_correlated(self, figure3_db):
        sql = ("SELECT * FROM s WHERE EXISTS "
               "(SELECT * FROM r WHERE r.b = s.c)")
        assert prov_rows(figure3_db, sql, "auto") == \
            prov_rows(figure3_db, sql, "gen")

    def test_nested_sublinks(self, figure3_db):
        # sublink inside a sublink (Q20 shape): inner correlated to middle
        sql = ("SELECT a FROM r WHERE a IN ("
               "  SELECT c FROM s WHERE EXISTS ("
               "    SELECT * FROM r r2 WHERE r2.a = s.c))")
        rows = prov_rows(figure3_db, sql, "auto")
        originals = sorted({(row[0],) for row in rows})
        assert originals == sorted(figure3_db.sql(sql).rows)
        # provenance spans r, s and r2
        assert len(rows[0]) == 1 + 2 + 2 + 2


class TestMultiplicities:
    """Bag semantics: duplicated input tuples duplicate provenance."""

    @pytest.mark.parametrize("strategy", GENERAL)
    def test_duplicate_input_rows(self, strategy):
        db = connect()
        db.execute("CREATE TABLE t (x int)")
        db.execute("INSERT INTO t VALUES (1), (1)")
        db.execute("CREATE TABLE u (y int)")
        db.execute("INSERT INTO u VALUES (1)")
        sql = "SELECT x FROM t WHERE x = ANY (SELECT y FROM u)"
        rows = db.provenance(sql, strategy=strategy).rows
        assert sorted(rows) == [(1, 1, 1), (1, 1, 1)]

    @pytest.mark.parametrize("strategy", ("gen", "left", "move", "unn"))
    def test_multiple_matches_duplicate_result_tuple(self, strategy):
        db = connect()
        db.execute("CREATE TABLE t (x int)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("CREATE TABLE u (y int, z int)")
        db.execute("INSERT INTO u VALUES (1, 10), (1, 20)")
        sql = "SELECT x FROM t WHERE x = ANY (SELECT y FROM u)"
        rows = db.provenance(sql, strategy=strategy).rows
        assert sorted(rows) == [(1, 1, 1, 10), (1, 1, 1, 20)]
