"""Transactions: BEGIN/COMMIT/ROLLBACK, snapshot isolation over a shared
Engine, copy-on-write restore semantics, and the DB-API 2.0 surface."""

from __future__ import annotations

import pytest

import repro
from repro import (
    CatalogError, Connection, Engine, IntegrityError, InterfaceError,
    ProgrammingError, TransactionError, connect,
)


@pytest.fixture
def engine() -> Engine:
    eng = Engine()
    conn = eng.connect()
    conn.execute("CREATE TABLE t (x int, y int)")
    conn.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    conn.close()
    return eng


def rows(conn, sql="SELECT x, y FROM t"):
    return sorted(conn.execute(sql).rows)


class TestTransactionBasics:
    def test_begin_commit_sql(self, engine):
        conn = engine.connect()
        conn.execute("BEGIN")
        assert conn.in_transaction
        conn.execute("INSERT INTO t VALUES (3, 30)")
        conn.execute("COMMIT")
        assert not conn.in_transaction
        assert (3, 30) in rows(conn)

    def test_begin_work_and_transaction_spellings(self, engine):
        conn = engine.connect()
        conn.execute("BEGIN TRANSACTION")
        conn.execute("ROLLBACK WORK")
        conn.execute("BEGIN WORK")
        conn.execute("COMMIT TRANSACTION")

    def test_rollback_discards_writes(self, engine):
        conn = engine.connect()
        before = rows(conn)
        conn.begin()
        conn.execute("INSERT INTO t VALUES (3, 30)")
        conn.execute("DELETE FROM t WHERE x = 1")
        assert rows(conn) != before        # txn sees its own writes
        conn.rollback()
        assert rows(conn) == before

    def test_nested_begin_rejected(self, engine):
        conn = engine.connect()
        conn.begin()
        with pytest.raises(ProgrammingError, match="already in progress"):
            conn.begin()
        conn.rollback()

    def test_commit_rollback_without_txn_are_noops(self, engine):
        conn = engine.connect()
        conn.commit()
        conn.rollback()

    def test_context_manager_commits(self, engine):
        conn = engine.connect()
        with conn.transaction():
            conn.execute("INSERT INTO t VALUES (7, 70)")
        assert (7, 70) in rows(conn)

    def test_context_manager_rolls_back_on_error(self, engine):
        conn = engine.connect()
        with pytest.raises(RuntimeError):
            with conn.transaction():
                conn.execute("INSERT INTO t VALUES (8, 80)")
                raise RuntimeError("boom")
        assert (8, 80) not in rows(conn)

    def test_autocommit_off_implicitly_begins(self, engine):
        conn = engine.connect()
        other = engine.connect()
        conn.autocommit = False
        conn.execute("INSERT INTO t VALUES (9, 90)")
        assert conn.in_transaction
        assert (9, 90) not in rows(other)
        conn.commit()
        assert (9, 90) in rows(other)

    def test_autocommit_off_explicit_begin_still_works(self, engine):
        conn = engine.connect()
        conn.autocommit = False
        conn.execute("BEGIN")            # must not collide with the
        assert conn.in_transaction       # implicit-transaction machinery
        conn.execute("ROLLBACK")
        assert not conn.in_transaction

    def test_autocommit_off_prepared_statements_join_the_txn(self, engine):
        """Every statement surface — cursors, prepared statements,
        executemany — shares the implicit transaction: repeatable
        reads hold across all of them."""
        conn = engine.connect()
        other = engine.connect()
        conn.autocommit = False
        ps = conn.prepare("SELECT count(*) AS n FROM t")
        assert ps.execute().rows == [(2,)]
        assert conn.in_transaction       # prepared execute began it
        other.execute("INSERT INTO t VALUES (9, 90)")
        assert ps.execute().rows == [(2,)]          # repeatable read
        cur = conn.cursor()
        cur.executemany("SELECT x FROM t WHERE x = ?", [(9,)])
        assert cur.rowcount == 0         # executemany: same snapshot
        conn.rollback()
        # a fresh implicit transaction sees the committed insert
        assert ps.execute().rows == [(3,)]
        conn.commit()

    @pytest.mark.parametrize("surface", ("sql", "provenance"))
    def test_autocommit_off_one_shot_helpers_join_the_txn(self, engine,
                                                          surface):
        """``sql()`` / ``provenance()`` run the same SELECT path as the
        cursor: they open the implicit transaction too, so a second call
        does not see another session's commit."""
        conn = engine.connect()
        other = engine.connect()
        conn.autocommit = False
        run = getattr(conn, surface)
        assert len(run("SELECT x FROM t").rows) == 2
        assert conn.in_transaction       # the one-shot helper began it
        other.execute("INSERT INTO t VALUES (9, 90)")
        assert len(run("SELECT x FROM t").rows) == 2    # repeatable read
        assert len(rows(conn)) == 2      # the cursor shares the snapshot
        conn.rollback()
        assert len(run("SELECT x FROM t").rows) == 3
        conn.commit()


class TestSnapshotIsolation:
    def test_uncommitted_writes_invisible(self, engine):
        writer = engine.connect()
        reader = engine.connect()
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (3, 30)")
        writer.execute("DELETE FROM t WHERE x = 1")
        assert rows(writer) == [(2, 20), (3, 30)]
        assert rows(reader) == [(1, 10), (2, 20)]
        writer.execute("COMMIT")
        assert rows(reader) == [(2, 20), (3, 30)]

    def test_repeatable_reads_inside_txn(self, engine):
        reader = engine.connect()
        writer = engine.connect()
        reader.begin()
        first = rows(reader)
        writer.execute("INSERT INTO t VALUES (3, 30)")
        assert rows(reader) == first       # snapshot as of BEGIN
        reader.commit()
        assert (3, 30) in rows(reader)

    def test_first_committer_wins(self, engine):
        a = engine.connect()
        b = engine.connect()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t VALUES (100, 1)")
        b.execute("INSERT INTO t VALUES (200, 2)")
        a.commit()
        with pytest.raises(TransactionError, match="could not serialize"):
            b.commit()
        # the loser's writes are gone; the winner's persisted
        final = rows(engine.connect())
        assert (100, 1) in final and (200, 2) not in final

    def test_concurrent_index_ddl_on_written_table_conflicts(self, engine):
        """A committing writer must not silently erase an index another
        session created (or resurrect one it dropped) on a table the
        writer swapped — that is a serialization conflict."""
        a = engine.connect()
        b = engine.connect()
        a.begin()
        a.execute("INSERT INTO t VALUES (3, 30)")
        b.execute("CREATE INDEX t_x ON t (x)")     # concurrent DDL commit
        with pytest.raises(TransactionError, match="indexes on table"):
            a.commit()
        assert engine.catalog.index_names() == ["t_x"]   # survived
        # the writer retries against the new state and succeeds
        a.begin()
        a.execute("INSERT INTO t VALUES (3, 30)")
        a.commit()
        assert engine.catalog.get_index("t_x").lookup(3) == [(3, 30)]

    def test_analyze_of_recreated_table_publishes_stats(self, engine):
        conn = engine.connect()
        conn.execute("ANALYZE t")
        conn.begin()
        conn.execute("DROP TABLE t")
        conn.execute("CREATE TABLE t (y int)")
        conn.execute("INSERT INTO t VALUES (5), (6)")
        conn.execute("ANALYZE t")
        conn.commit()
        stats = engine.catalog.stats.get("t")
        assert stats is not None and stats.row_count == 2

    def test_concurrent_view_creation_conflicts(self, engine):
        a = engine.connect()
        b = engine.connect()
        a.begin()
        b.begin()
        a.execute("CREATE VIEW v AS SELECT x FROM t WHERE x = 1")
        b.execute("CREATE VIEW v AS SELECT x FROM t WHERE x = 2")
        a.commit()
        with pytest.raises(TransactionError, match="view 'v'"):
            b.commit()
        # the first committer's definition survived
        assert rows(engine.connect(), "SELECT x FROM v") == [(1,)]

    def test_disjoint_tables_do_not_conflict(self, engine):
        setup = engine.connect()
        setup.execute("CREATE TABLE u (z int)")
        a = engine.connect()
        b = engine.connect()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t VALUES (100, 1)")
        b.execute("INSERT INTO u VALUES (5)")
        a.commit()
        b.commit()          # different table: no conflict
        assert (5,) in engine.connect().execute("SELECT z FROM u").rows

    def test_ddl_inside_txn_is_private(self, engine):
        conn = engine.connect()
        other = engine.connect()
        conn.begin()
        conn.execute("CREATE TABLE fresh (a int)")
        conn.execute("INSERT INTO fresh VALUES (1)")
        conn.execute("CREATE VIEW v AS SELECT a FROM fresh")
        assert conn.execute("SELECT a FROM v").rows == [(1,)]
        assert "fresh" not in other.catalog
        assert not other.catalog.has_view("v")
        conn.commit()
        assert other.execute("SELECT a FROM v").rows == [(1,)]


class TestRollbackRestores:
    def test_rollback_restores_tables_indexes_and_stats(self, engine):
        conn = engine.connect()
        conn.execute("CREATE UNIQUE INDEX t_x ON t (x)")
        conn.execute("ANALYZE t")
        stats_version = conn.catalog.stats_version
        catalog_version = conn.catalog.version
        row_count = conn.catalog.stats.get("t").row_count

        conn.begin()
        conn.execute("INSERT INTO t VALUES (3, 30)")
        conn.execute("CREATE INDEX t_y ON t (y)")
        conn.execute("ANALYZE t")
        conn.rollback()

        # ... and the shared state never moved
        assert rows(conn) == [(1, 10), (2, 20)]
        assert conn.catalog.version == catalog_version
        assert conn.catalog.stats_version == stats_version
        assert conn.catalog.stats.get("t").row_count == row_count
        assert conn.catalog.index_names() == ["t_x"]
        assert conn.catalog.get_index("t_x").lookup(3) == []

    def test_rollback_of_drop_table(self, engine):
        conn = engine.connect()
        conn.begin()
        conn.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            conn.execute("SELECT * FROM t").rows
        conn.rollback()
        assert rows(conn) == [(1, 10), (2, 20)]

    def test_committed_index_ddl_in_txn(self, engine):
        conn = engine.connect()
        conn.begin()
        conn.execute("CREATE UNIQUE INDEX t_x ON t (x)")
        conn.commit()
        assert conn.catalog.get_index("t_x").lookup(1) == [(1, 10)]
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO t VALUES (1, 99)")


class TestStatementAtomicity:
    def test_unique_violation_rolls_back_whole_statement(self, engine):
        conn = engine.connect()
        conn.execute("CREATE UNIQUE INDEX t_x ON t (x)")
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO t VALUES (5, 50), (1, 11)")
        # all-or-nothing: the valid leading row did not survive
        assert rows(conn) == [(1, 10), (2, 20)]

    def test_statement_atomicity_inside_explicit_txn(self, engine):
        """A failed multi-row INSERT inside an open transaction must not
        leave its leading rows behind — earlier *statements* survive,
        the failed statement vanishes entirely."""
        conn = engine.connect()
        conn.execute("CREATE UNIQUE INDEX t_x ON t (x)")
        conn.begin()
        conn.execute("INSERT INTO t VALUES (3, 30)")     # earlier stmt
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO t VALUES (5, 50), (1, 11)")
        assert rows(conn) == [(1, 10), (2, 20), (3, 30)]
        conn.commit()
        assert rows(conn) == [(1, 10), (2, 20), (3, 30)]
        # and the committed index agrees (no ghost entries for 5)
        assert engine.catalog.get_index("t_x").lookup(5) == []

    def test_in_txn_dml_does_not_tear_open_streams(self, engine):
        """A transaction's own still-streaming SELECT must keep reading
        the rows it opened against, even as later statements in the same
        transaction insert and delete."""
        conn = engine.connect(batch_size=4)
        conn.insert("t", [(i, 0) for i in range(100, 140)])
        conn.begin()
        conn.execute("INSERT INTO t VALUES (900, 9)")    # privatize t
        result = conn.execute("SELECT x FROM t")         # 43 rows total
        first = result.fetch(2)
        conn.execute("DELETE FROM t WHERE x >= 100")
        conn.execute("INSERT INTO t VALUES (901, 9)")
        assert len(result.rows) == 43        # the open stream: untorn
        assert first == result.rows[:2]
        # a fresh statement sees the transaction's current state:
        # (1,10) (2,20) survive the DELETE (x < 100), plus (901,9)
        assert sorted(conn.execute("SELECT x FROM t").rows) == \
            [(1,), (2,), (901,)]
        conn.rollback()

    def test_integrity_error_is_catalog_error(self):
        assert issubclass(IntegrityError, CatalogError)
        assert issubclass(IntegrityError, repro.DatabaseError)

    def test_executemany_is_all_or_nothing(self, engine):
        conn = engine.connect()
        conn.execute("CREATE UNIQUE INDEX t_x ON t (x)")
        cur = conn.cursor()
        with pytest.raises(IntegrityError):
            cur.executemany("INSERT INTO t VALUES (?, ?)",
                            [(6, 60), (7, 70), (1, 11)])
        assert rows(conn) == [(1, 10), (2, 20)]


class TestConnectionLifecycle:
    def test_close_is_idempotent(self, engine):
        conn = engine.connect()
        conn.close()
        conn.close()                        # second close: no-op
        with pytest.raises(InterfaceError):
            conn.execute("SELECT 1 AS x")

    def test_close_releases_engine_registration(self, engine):
        before = engine.session_count
        conn = engine.connect()
        assert engine.session_count == before + 1
        conn.close()
        assert engine.session_count == before

    def test_close_rolls_back_open_txn(self, engine):
        conn = engine.connect()
        conn.begin()
        conn.execute("INSERT INTO t VALUES (3, 30)")
        conn.close()
        assert (3, 30) not in rows(engine.connect())

    def test_engine_close_closes_sessions(self):
        eng = Engine()
        conn = eng.connect()
        eng.close()
        assert conn.closed
        with pytest.raises(InterfaceError, match="engine is closed"):
            eng.connect()

    def test_private_engine_per_plain_connect(self):
        a = connect()
        b = connect()
        assert a.engine is not b.engine
        a.execute("CREATE TABLE only_a (x int)")
        assert "only_a" not in b.catalog

    def test_shared_engine_shares_catalog_and_plan_cache(self, engine):
        a = engine.connect()
        b = engine.connect()
        assert a.catalog is b.catalog
        assert a.plan_cache is b.plan_cache
        a.execute("SELECT x FROM t WHERE x = 1").rows
        misses = engine.plan_cache.misses
        b.execute("SELECT x FROM t WHERE x = 1").rows
        assert engine.plan_cache.misses == misses   # b hit a's plan


class TestTransactionPlanCache:
    def test_txn_with_private_ddl_bypasses_shared_cache(self, engine):
        conn = engine.connect()
        size_before = len(engine.plan_cache)
        conn.begin()
        conn.execute("CREATE TABLE private (a int)")
        conn.execute("INSERT INTO private VALUES (1)")
        assert conn.execute("SELECT a FROM private").rows == [(1,)]
        assert len(engine.plan_cache) == size_before  # nothing leaked
        conn.rollback()

    def test_ddl_commit_invalidates_shared_plans(self, engine):
        conn = engine.connect()
        conn.create_view("v", "SELECT x FROM t WHERE x >= 2")
        assert sorted(conn.execute("SELECT x FROM v").rows) == [(2,)]
        with conn.transaction():
            conn.execute("DROP VIEW v")
            conn.execute("CREATE VIEW v AS SELECT x FROM t WHERE x < 2")
        # catalog generation moved at commit: the cached plan is stale
        assert sorted(conn.execute("SELECT x FROM v").rows) == [(1,)]


#: A DELETE's scan runs on the session's own engine, which may rebuild
#: row tuples (columnar batches, worker round trips).
DELETE_SESSIONS = [
    {},
    {"engine": "vectorized"},
    {"max_parallel_workers": 2, "parallel_threshold": 1},
]


class TestDeleteWhere:
    """``DELETE ... WHERE`` plans its scan through the one planner and
    removes the stored rows equal to the ones that scan returns."""

    @pytest.fixture(params=DELETE_SESSIONS, ids=["default", "vectorized",
                                                 "parallel"])
    def conn(self, request) -> Connection:
        conn = connect(**request.param)
        conn.execute("CREATE TABLE big (k int, v text)")
        conn.insert("big", [(i % 10, f"v{i}") for i in range(40)])
        conn.execute("CREATE TABLE other (k int)")
        conn.insert("other", [(3,), (4,), (4,)])
        return conn

    @staticmethod
    def keys(conn) -> list[int]:
        return sorted(k for k, in conn.execute("SELECT k FROM big").rows)

    def test_equal_stored_tuples_are_all_removed(self, conn):
        conn.insert("big", [(77, "dup"), (77, "dup"), (77, "other")])
        assert conn.execute("DELETE FROM big WHERE v = 'dup'") == 2
        assert conn.execute(
            "SELECT k, v FROM big WHERE k = 77").rows == [(77, "other")]

    def test_index_covered_equality_probes_the_index(self, conn):
        conn.execute("CREATE INDEX big_k ON big (k)")
        assert conn.execute("DELETE FROM big WHERE k = 7") == 4
        ran = conn.last_stats.operator_evals
        assert ran.get("IndexScan") == 1 and "SeqScan" not in ran
        assert 7 not in self.keys(conn)
        # the index was maintained, not just the row list
        assert conn.execute("SELECT v FROM big WHERE k = 7").rows == []
        assert len(conn.execute("SELECT v FROM big WHERE k = 6").rows) == 4

    def test_correlated_exists_on_another_table(self, conn):
        removed = conn.execute(
            "DELETE FROM big WHERE EXISTS "
            "(SELECT 1 FROM other WHERE other.k = big.k) AND v <> 'v3'")
        assert removed == 7
        assert self.keys(conn).count(3) == 1
        assert self.keys(conn).count(4) == 0

    def test_prepared_delete_plans_once(self, conn):
        ps = conn.prepare("DELETE FROM big WHERE k = ? AND v <> ?")
        assert ps.execute((1, "v1")) == 3
        misses = conn.plan_cache.misses
        assert ps.execute((2, "none")) == 4
        # the same text through execute(): still a DELETE, not its scan
        assert conn.execute("DELETE FROM big WHERE k = ? AND v <> ?",
                            (1, "none")) == 1
        assert conn.plan_cache.misses == misses
        assert conn.plan_cache.leased_instances() == 0
        assert 1 not in self.keys(conn) and 2 not in self.keys(conn)

    def test_unknown_column_raises(self, conn):
        with pytest.raises(repro.AnalyzerError, match="unknown column"):
            conn.execute("DELETE FROM big WHERE nosuch = 1")
        assert len(self.keys(conn)) == 40

    def test_delete_in_transaction_then_rollback(self, conn):
        conn.execute("CREATE INDEX big_k ON big (k)")
        conn.begin()
        assert conn.execute("DELETE FROM big WHERE k < ?", (5,)) == 20
        assert min(self.keys(conn)) == 5
        conn.rollback()
        assert len(self.keys(conn)) == 40
        assert len(conn.execute("SELECT v FROM big WHERE k = 2").rows) == 4

    def test_delete_through_an_index_after_a_rejected_duplicate(self, conn):
        """Backing a rejected insert out of ``big_k`` un-indexes *an*
        equal row, not necessarily the rejected one; the index may then
        hold a tuple the table does not, and DELETE must not care."""
        conn.execute("CREATE INDEX big_k ON big (k)")
        conn.execute("CREATE UNIQUE INDEX big_v ON big (v)")
        conn.begin()
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO big VALUES (7, 'v7')")
        assert conn.execute("DELETE FROM big WHERE k = 7") == 4
        assert 7 not in self.keys(conn)
        conn.commit()
        assert 7 not in self.keys(conn)
        conn.execute("INSERT INTO big VALUES (6, 'v6b')")
        assert conn.execute("DELETE FROM big WHERE k = 6") == 5
        assert 6 not in self.keys(conn)

    def test_lost_race_retries_on_a_fresh_snapshot(self, conn):
        """An autocommit DELETE that loses first-committer-wins re-runs
        its cached scan over the retry's snapshot, so it also removes
        the row the winner added."""
        rival = conn.engine.connect()
        sql = "DELETE FROM big WHERE k = 9"
        inner = conn._execute_plan
        calls = []

        def racing(cached, params, catalog):
            calls.append(cached)
            if len(calls) == 1:      # commits after this attempt's BEGIN
                rival.execute("INSERT INTO big VALUES (9, 'late')")
            return inner(cached, params, catalog)

        conn._execute_plan = racing
        assert conn.execute(sql) == 5
        assert len(calls) == 2 and calls[0] is calls[1]
        assert 9 not in self.keys(rival)


class TestDBAPIModuleInterface:
    def test_module_globals(self):
        assert repro.apilevel == "2.0"
        assert repro.threadsafety == 1
        assert repro.paramstyle == "qmark"

    def test_error_hierarchy(self):
        assert issubclass(repro.Error, repro.ReproError)
        assert issubclass(repro.InterfaceError, repro.Error)
        assert issubclass(repro.DatabaseError, repro.Error)
        for name in ("DataError", "OperationalError", "IntegrityError",
                     "InternalError", "ProgrammingError",
                     "NotSupportedError"):
            assert issubclass(getattr(repro, name), repro.DatabaseError)
        assert issubclass(repro.SQLSyntaxError, repro.ProgrammingError)
        assert issubclass(repro.AnalyzerError, repro.ProgrammingError)
        assert issubclass(repro.BindError, repro.ProgrammingError)
        assert issubclass(repro.ExecutionError, repro.OperationalError)
        assert issubclass(repro.TransactionError, repro.OperationalError)
        assert issubclass(repro.RewriteError, repro.NotSupportedError)
        assert issubclass(repro.UnsupportedFeatureError,
                          repro.NotSupportedError)
        assert issubclass(repro.Warning, Exception)

    def test_soft_keywords_stay_usable_as_identifiers(self):
        conn = connect()
        conn.execute("CREATE TABLE ledger (commit int, work int)")
        conn.execute("INSERT INTO ledger VALUES (1, 2)")
        assert conn.execute(
            "SELECT commit, work FROM ledger").rows == [(1, 2)]
