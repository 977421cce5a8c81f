"""End-to-end session scenarios (DDL/DML, scripts, explain)."""

import pytest

from repro import AnalyzerError, ExecutionError, connect


class TestDDLDML:
    def test_create_insert_select(self):
        db = connect()
        db.execute("CREATE TABLE t (x int, name text)")
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        assert db.sql("SELECT name FROM t WHERE x = 2").rows == [("two",)]

    @pytest.mark.parametrize("values,params,expected", [
        ("(1 + 2), (-4)", (), [(-4,), (3,)]),
        ("(? * 2 + 1), (?)", (3, -4), [(-4,), (7,)]),
        ("(CASE WHEN ? > 2 THEN 0 ELSE 5 END)", (1,), [(5,)]),
        # a sublink has no engine to run on: a clean error, no row
        ("((SELECT 1))", (), None),
    ])
    def test_insert_expressions(self, values, params, expected):
        db = connect()
        db.execute("CREATE TABLE t (x int)")
        statement = f"INSERT INTO t VALUES {values}"
        if expected is None:
            with pytest.raises(ExecutionError, match="execution engine"):
                db.execute(statement, params)
            expected = []
        else:
            db.execute(statement, params)
        assert sorted(db.sql("SELECT x FROM t").rows) == expected

    def test_delete_with_predicate(self):
        db = connect()
        db.execute("CREATE TABLE t (x int)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("DELETE FROM t WHERE x >= 2")
        assert db.sql("SELECT x FROM t").rows == [(1,)]

    def test_delete_all(self):
        db = connect()
        db.execute("CREATE TABLE t (x int)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("DELETE FROM t")
        assert db.sql("SELECT x FROM t").rows == []

    def test_drop_table_and_view(self):
        db = connect()
        db.execute("CREATE TABLE t (x int)")
        db.execute("CREATE VIEW v AS SELECT x FROM t")
        db.execute("DROP VIEW v")
        db.execute("DROP TABLE t")
        assert "t" not in db.catalog

    def test_drop_missing_view_raises(self):
        with pytest.raises(AnalyzerError):
            connect().execute("DROP VIEW ghost")

    def test_execute_script(self):
        db = connect()
        db.execute_script("""
            CREATE TABLE t (x int);
            INSERT INTO t VALUES (1), (2);
            CREATE VIEW doubled AS SELECT x * 2 AS y FROM t;
        """)
        assert sorted(db.sql("SELECT y FROM doubled").rows) == [
            (2,), (4,)]

    def test_programmatic_api(self):
        db = connect()
        db.create_table("t", [("x", "int"), ("y", "text")])
        inserted = db.insert("t", [(1, "a"), (2, "b")])
        assert inserted == 2

    def test_sql_rejects_non_select(self):
        db = connect()
        with pytest.raises(AnalyzerError):
            db.sql("CREATE TABLE t (x int)")


class TestExplainAndPlan:
    def test_explain_contains_operators(self, figure3_db):
        text = figure3_db.explain(
            "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)")
        assert "Scan r" in text and "Scan s" in text

    def test_explain_provenance_strategy_changes_plan(self, figure3_db):
        sql = "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)"
        gen_plan = figure3_db.explain(sql, strategy="gen")
        unn_plan = figure3_db.explain(sql, strategy="unn")
        assert gen_plan != unn_plan
        assert "sublink" in gen_plan  # Gen keeps sublinks
        assert "sublink" not in unn_plan  # Unn eliminates them

    def test_strategy_in_sql_text(self, figure3_db):
        rel = figure3_db.sql(
            "SELECT PROVENANCE (unn) a FROM r "
            "WHERE a = ANY (SELECT c FROM s)")
        assert sorted(rel.rows) == [(1, 1, 1, 1, 3), (2, 2, 1, 2, 4)]

    def test_strategy_argument_overrides_sql(self, figure3_db):
        sql = ("SELECT PROVENANCE (gen) a FROM r "
               "WHERE a = ANY (SELECT c FROM s)")
        rel = figure3_db.sql(sql, strategy="left")
        assert sorted(rel.rows) == [(1, 1, 1, 1, 3), (2, 2, 1, 2, 4)]


class TestQuickstartScenario:
    """The README quickstart, verified end to end."""

    def test_quickstart(self):
        db = connect()
        db.execute("CREATE TABLE r (a int, b int)")
        db.execute("INSERT INTO r VALUES (1, 1), (2, 1), (3, 2)")
        db.execute("CREATE TABLE s (c int, d int)")
        db.execute("INSERT INTO s VALUES (1, 3), (2, 4), (4, 5)")
        result = db.sql(
            "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)")
        assert list(result.schema.names) == [
            "a", "b", "prov_r_a", "prov_r_b", "prov_s_c", "prov_s_d"]
        assert sorted(result.rows) == [
            (1, 1, 1, 1, 1, 3), (2, 1, 2, 1, 2, 4)]

    def test_pretty_output(self, figure3_db):
        text = figure3_db.sql("SELECT PROVENANCE a FROM r").pretty()
        assert "prov_r_a" in text


class TestErrorTraceability:
    """A curated-database debugging scenario: trace a wrong result back
    to its source tuple via provenance."""

    def test_trace_bad_tuple(self):
        db = connect()
        db.execute("CREATE TABLE measurements (sensor int, value float)")
        db.execute("INSERT INTO measurements VALUES "
                   "(1, 10.0), (1, 12.0), (2, 999999.0), (2, 11.0)")
        prov = db.provenance(
            "SELECT sensor, avg(value) AS mean FROM measurements "
            "GROUP BY sensor")
        suspicious = [row for row in prov.rows if row[1] > 1000]
        # the provenance columns point at the culprit tuple
        culprits = {(row[2], row[3]) for row in suspicious}
        assert (2, 999999.0) in culprits
