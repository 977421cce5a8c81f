"""The session API: Connection / Cursor / PreparedStatement, parameter
binding, and the one-shot helpers."""

from __future__ import annotations

import pytest

from repro import (
    AnalyzerError, BindError, Connection, InterfaceError,
    Relation, SessionConfig, SQLSyntaxError, connect,
)


@pytest.fixture
def conn() -> Connection:
    connection = connect()
    cur = connection.cursor()
    cur.execute("CREATE TABLE r (a int, b int)")
    cur.executemany("INSERT INTO r VALUES (?, ?)",
                    [(1, 1), (2, 1), (3, 2)])
    cur.execute("CREATE TABLE s (c int, d int)")
    cur.executemany("INSERT INTO s VALUES (?, ?)",
                    [(1, 3), (2, 4), (4, 5)])
    return connection


class TestParameterBinding:
    def test_int_float_text_params(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (i int, f float, s text)")
        cur.execute("INSERT INTO t VALUES (?, ?, ?)", (7, 2.5, "x"))
        cur.execute("SELECT i, f, s FROM t WHERE i = ? AND s = ?",
                    (7, "x"))
        assert cur.fetchall() == [(7, 2.5, "x")]

    def test_null_binding(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT ? AS v FROM r WHERE a = 1", (None,))
        assert cur.fetchall() == [(None,)]

    def test_null_in_predicate_filters_all(self, conn):
        # a = NULL is unknown for every row: empty result, no crash.
        cur = conn.cursor()
        cur.execute("SELECT a FROM r WHERE a = ?", (None,))
        assert cur.fetchall() == []

    def test_too_few_params(self, conn):
        with pytest.raises(BindError, match="takes 2 parameter"):
            conn.execute("SELECT * FROM r WHERE a = ? AND b = ?", (1,))

    def test_too_many_params(self, conn):
        with pytest.raises(BindError, match="takes 1 parameter"):
            conn.execute("SELECT * FROM r WHERE a = ?", (1, 2))

    def test_params_on_parameterless_statement(self, conn):
        with pytest.raises(BindError, match="takes 0 parameter"):
            conn.execute("SELECT * FROM r", (1,))

    def test_param_inside_sublink(self, conn):
        rows = conn.execute(
            "SELECT a FROM r WHERE a = ANY (SELECT c FROM s WHERE c < ?)",
            (2,)).rows
        assert rows == [(1,)]

    def test_params_do_not_leak_between_executions(self, conn):
        ps = conn.prepare("SELECT a FROM r WHERE a = ?")
        assert ps.execute((1,)).rows == [(1,)]
        assert ps.execute((3,)).rows == [(3,)]

    def test_delete_with_param(self, conn):
        removed = conn.execute("DELETE FROM s WHERE c = ?", (2,))
        assert removed == 1
        assert sorted(conn.execute("SELECT c FROM s").rows) == [(1,), (4,)]

    def test_params_in_ddl_rejected(self, conn):
        with pytest.raises(SQLSyntaxError, match="parameters"):
            conn.execute("CREATE VIEW v AS SELECT a FROM r WHERE a = ?")

    def test_view_definition_with_param_rejected(self, conn):
        with pytest.raises(AnalyzerError, match="parameters"):
            conn.create_view("v", "SELECT a FROM r WHERE a = ?")

    def test_provenance_query_with_params(self, conn):
        ps = conn.prepare(
            "SELECT PROVENANCE * FROM r WHERE a = ANY "
            "(SELECT c FROM s WHERE c < ?)")
        wide = sorted(ps.execute((10,)).rows)
        narrow = sorted(ps.execute((2,)).rows)
        assert wide == [(1, 1, 1, 1, 1, 3), (2, 1, 2, 1, 2, 4)]
        assert narrow == [(1, 1, 1, 1, 1, 3)]


class TestCursor:
    def test_description_and_rowcount(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a, b FROM r ORDER BY a")
        assert [entry[0] for entry in cur.description] == ["a", "b"]
        assert cur.rowcount == 3

    def test_description_none_without_result(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (x int)")
        assert cur.description is None

    def test_fetch_interfaces(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM r ORDER BY a")
        assert cur.fetchone() == (1,)
        assert cur.fetchmany(1) == [(2,)]
        assert cur.fetchall() == [(3,)]
        assert cur.fetchone() is None

    def test_iteration(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM r ORDER BY a")
        assert list(cur) == [(1,), (2,), (3,)]

    def test_fetch_without_result_raises(self, conn):
        cur = conn.cursor()
        with pytest.raises(InterfaceError, match="no result set"):
            cur.fetchall()

    def test_executemany_accumulates_rowcount(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (x int)")
        cur.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), (3,)])
        assert cur.rowcount == 3

    def test_closed_cursor_raises(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(InterfaceError, match="cursor is closed"):
            cur.execute("SELECT 1 AS x")

    def test_closed_connection_raises(self):
        connection = connect()
        connection.close()
        with pytest.raises(InterfaceError, match="connection is closed"):
            connection.cursor()

    def test_context_managers(self):
        with connect() as connection:
            with connection.cursor() as cur:
                cur.execute("SELECT 1 AS x")
                assert cur.fetchall() == [(1,)]
        assert connection.closed

    def test_relation_result(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM r WHERE a = 1")
        assert isinstance(cur.relation, Relation)
        assert cur.relation.schema.names == ("a",)


class TestPreparedStatement:
    def test_metadata(self, conn):
        ps = conn.prepare("SELECT a, b FROM r WHERE a = ?")
        assert ps.is_select
        assert ps.param_count == 1
        assert ps.column_names == ("a", "b")

    def test_non_select_prepared(self, conn):
        ps = conn.prepare("INSERT INTO s VALUES (?, ?)")
        assert not ps.is_select
        assert ps.column_names is None
        assert ps.executemany([(7, 7), (8, 8)]) == 2
        assert (7, 7) in conn.execute("SELECT * FROM s").rows

    def test_prepare_unknown_table_fails_eagerly(self, conn):
        with pytest.raises(Exception, match="ghost"):
            conn.prepare("SELECT * FROM ghost")

    def test_closed_statement_raises(self, conn):
        ps = conn.prepare("SELECT a FROM r")
        ps.close()
        with pytest.raises(InterfaceError, match="closed"):
            ps.execute()

    def test_strategy_override(self, conn):
        sql = "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)"
        unn = conn.prepare(sql, strategy="unn")
        gen = conn.prepare(sql, strategy="gen")
        assert sorted(unn.execute().rows) == sorted(gen.execute().rows)

    def test_survives_ddl_replan(self, conn):
        conn.create_view("v", "SELECT a FROM r WHERE a >= 2")
        ps = conn.prepare("SELECT a FROM v ORDER BY a")
        assert ps.execute().rows == [(2,), (3,)]
        conn.execute("DROP VIEW v")
        conn.create_view("v", "SELECT a FROM r WHERE a < 2")
        # the catalog generation changed: the statement replans itself
        assert ps.execute().rows == [(1,)]


class TestConnectionHelpers:
    def test_connect_options_shorthand(self):
        connection = connect(default_strategy="left", plan_cache_size=7)
        assert connection.config.default_strategy == "left"
        assert connection.plan_cache.capacity == 7

    def test_connect_rejects_unknown_strategy(self):
        with pytest.raises(InterfaceError, match="unknown default_strategy"):
            connect(default_strategy="turbo")

    def test_session_config_validation(self):
        with pytest.raises(InterfaceError, match="plan_cache_size"):
            SessionConfig(plan_cache_size=-1)

    def test_with_options_copy(self):
        config = SessionConfig()
        changed = config.with_options(use_indexes=False)
        assert changed.use_indexes is False and config.use_indexes is True

    def test_default_strategy_applies_to_bare_provenance(self):
        connection = connect(default_strategy="unn")
        cur = connection.cursor()
        cur.execute("CREATE TABLE r (a int)")
        cur.execute("CREATE TABLE s (c int)")
        cur.execute("INSERT INTO r VALUES (1), (2)")
        cur.execute("INSERT INTO s VALUES (1)")
        # Unn applies; with default_strategy=unn the bare PROVENANCE query
        # plans as an Unn rewrite (visible as a plain join, no sublinks).
        text = connection.explain(
            "SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)")
        assert "any" not in text.lower()

    def test_execution_stats_exposed(self, conn):
        conn.execute("SELECT * FROM r")
        assert conn.last_stats is not None
        assert conn.last_stats.rows_produced >= 3

    def test_config_default_strategy_honored_by_rewriter(self):
        # Rewriters built directly (not through a Connection) also treat
        # the config's default_strategy as the meaning of "auto".
        from repro.provenance.planner import StrategyPlanner
        planner = StrategyPlanner(
            "auto", SessionConfig(default_strategy="gen"))
        assert planner.strategy == "gen"
        assert planner._forced is not None


class TestOneShotHelpers:
    def test_views_live_in_catalog(self):
        db = connect()
        db.create_view("v", "SELECT 1 AS x")
        assert db.catalog.has_view("v")
        db.execute("DROP VIEW v")
        assert not db.catalog.has_view("v")

    def test_sql_does_not_mutate_parsed_statement(self):
        from repro.sql.parser import parse_statement
        db = connect()
        db.execute("CREATE TABLE r (a int)")
        db.execute("INSERT INTO r VALUES (1), (2)")
        statement = parse_statement("SELECT PROVENANCE a FROM r")
        assert statement.provenance == "auto"
        first = db._run_select(statement)
        # the seed implementation cleared .provenance here, making parsed
        # statements single-use; planning is now non-destructive
        assert statement.provenance == "auto"
        second = db._run_select(statement)
        assert sorted(first.rows) == sorted(second.rows)
        assert first.schema.names == second.schema.names

    def test_plan_is_repeatable(self):
        db = connect()
        db.execute("CREATE TABLE r (a int)")
        one = db.explain("SELECT PROVENANCE a FROM r")
        two = db.explain("SELECT PROVENANCE a FROM r")
        assert one == two and "prov_r_a" in one

    def test_strategy_override_still_works(self):
        db = connect()
        db.execute("CREATE TABLE r (a int)")
        db.execute("INSERT INTO r VALUES (1)")
        rows = db.sql("SELECT a FROM r", strategy="gen").rows
        assert rows == [(1, 1)]  # provenance column appended

    def test_delete_with_conjunction(self):
        db = connect()
        db.execute("CREATE TABLE t (x int, y int)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        db.execute("DELETE FROM t WHERE x >= 2 AND y < 30")
        assert sorted(db.sql("SELECT x FROM t").rows) == [(1,), (3,)]

    def test_delete_with_qualified_column(self):
        db = connect()
        db.execute("CREATE TABLE t (x int)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("DELETE FROM t WHERE t.x = 2")
        assert db.sql("SELECT x FROM t").rows == [(1,)]
