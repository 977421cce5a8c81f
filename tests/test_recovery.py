"""Fault-injection crash recovery: truncate the WAL everywhere and prove
the database always reopens as of the last fully-committed transaction.

The suite drives a scripted workload (DDL, DML, index DDL, ANALYZE,
views, a multi-statement explicit transaction, unicode values) against a
durable engine, capturing the full expected state after every commit.
Then it simulates crashes: the WAL is cut at **every record boundary**
and at **several offsets inside every record** (torn writes), the
directory is reopened, and the recovered database must equal the state
as of the last commit whose record survived intact — tables, row bags,
views, index structures and ANALYZE statistics included.  A flipped
payload byte (bit rot) must behave like a torn tail, never decode into
garbage.

Checkpointing is covered too: the same guarantees must hold when a
snapshot sits under the truncated WAL suffix.
"""

from __future__ import annotations

import os
import shutil
import struct
import time
from collections import Counter

import pytest

from repro import connect
from repro.storage.store import SNAPSHOT_FILE, WAL_FILE
from repro.storage.wal import WAL_MAGIC

_RECORD_HEADER = struct.Struct("<II")

#: The scripted workload: each statement autocommits, so each line is
#: one WAL record (and one expected-state snapshot).
SCRIPT = [
    "CREATE TABLE t (k int, v text)",
    "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
    "CREATE UNIQUE INDEX t_k ON t (k)",
    "INSERT INTO t VALUES (3, 'c')",
    "ANALYZE t",
    "CREATE TABLE u (x int, y float)",
    "INSERT INTO u VALUES (10, 0.5), (20, 1.5), (10, NULL)",
    "DELETE FROM t WHERE k = 2",
    "CREATE VIEW live_t AS SELECT k FROM t WHERE k > 0",
    "CREATE INDEX u_x ON u (x) USING sorted",
    "INSERT INTO t VALUES (5, 'ünïcode — ✓')",
    "ANALYZE",
    "DROP INDEX u_x",
    "DELETE FROM u WHERE y IS NULL",
    "DROP TABLE u",
]


def _state_of(conn) -> dict:
    """Everything recovery must reproduce, in comparable form."""
    catalog = conn.catalog
    return {
        "tables": {name: Counter(catalog.get(name).rows)
                   for name in catalog.names()},
        "schemas": {name: [(a.name, a.type) for a in catalog.get(name).schema]
                    for name in catalog.names()},
        "views": {name: sorted(conn.execute(f"SELECT * FROM {name}").rows)
                  for name in catalog.view_names()},
        "indexes": {name: (ix.table, ix.column, ix.kind, ix.unique)
                    for name in catalog.index_names()
                    for ix in [catalog.get_index(name)]},
        "stats": {table: catalog.stats.get(table)
                  for table in catalog.stats.tables()},
    }


def _assert_indexes_consistent(conn) -> None:
    """Every recovered index must exactly agree with its table."""
    catalog = conn.catalog
    for name in catalog.index_names():
        index = catalog.get_index(name)
        rows = catalog.get(index.table).rows
        assert len(index) == len(rows)
        for row in rows:
            key = row[index.position]
            if key is None:
                continue
            hits = index.lookup(key)
            assert row in hits
            if index.unique:
                assert hits == [row]


def _build(dbdir: str, script=SCRIPT, checkpoint_after: int | None = None):
    """Run the script; returns the expected state after each commit."""
    conn = connect(path=dbdir)
    states = []
    for position, sql in enumerate(script):
        conn.execute(sql)
        if checkpoint_after is not None and position == checkpoint_after:
            conn.execute("CHECKPOINT")
        states.append(_state_of(conn))
    conn.close()
    return states


def _record_spans(wal_bytes: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` byte spans of every record in a WAL image."""
    spans = []
    offset = len(WAL_MAGIC)
    while offset < len(wal_bytes):
        length, _ = _RECORD_HEADER.unpack_from(wal_bytes, offset)
        end = offset + _RECORD_HEADER.size + length
        assert end <= len(wal_bytes), "test WAL parsing drifted"
        spans.append((offset, end))
        offset = end
    return spans


def _reopen_with_wal(src_dir: str, scratch: str, wal_bytes: bytes):
    """Copy the database dir with a substituted WAL image and open it."""
    if os.path.exists(scratch):
        shutil.rmtree(scratch)
    shutil.copytree(src_dir, scratch)
    with open(os.path.join(scratch, WAL_FILE), "wb") as fh:
        fh.write(wal_bytes)
    return connect(path=scratch)


class TestTruncationSweep:
    def _sweep(self, tmp_path, checkpoint_after=None):
        dbdir = str(tmp_path / "db")
        scratch = str(tmp_path / "scratch")
        states = _build(str(dbdir), checkpoint_after=checkpoint_after)
        wal_bytes = open(os.path.join(dbdir, WAL_FILE), "rb").read()
        spans = _record_spans(wal_bytes)
        # With a checkpoint, the WAL restarts: it only holds the suffix.
        base = len(states) - len(spans)
        assert base == (0 if checkpoint_after is None
                        else checkpoint_after + 1)

        def expected(n_complete_records: int) -> dict | None:
            committed = base + n_complete_records
            return states[committed - 1] if committed else None

        def check(cut: int, n_complete: int) -> None:
            conn = _reopen_with_wal(dbdir, scratch, wal_bytes[:cut])
            try:
                want = expected(n_complete)
                if want is None:
                    assert conn.catalog.names() == []
                else:
                    assert _state_of(conn) == want
                _assert_indexes_consistent(conn)
            finally:
                conn.close()

        # every record boundary (0 .. all records complete)
        check(len(WAL_MAGIC), 0)
        for i, (start, end) in enumerate(spans):
            check(end, i + 1)
            # torn writes inside record i: only i complete records before
            for cut in {start + 1,                       # header torn
                        start + _RECORD_HEADER.size,     # empty payload
                        (start + end) // 2,              # payload torn
                        end - 1}:                        # one byte short
                if start < cut < end:
                    check(cut, i)
        # cut inside the magic: nothing is recoverable
        check(len(WAL_MAGIC) - 3, 0)

    def test_every_truncation_point(self, tmp_path):
        self._sweep(tmp_path)

    def test_truncation_sweep_over_a_checkpoint(self, tmp_path):
        self._sweep(tmp_path, checkpoint_after=6)


class TestBitRot:
    def test_flipped_payload_byte_acts_as_torn_tail(self, tmp_path):
        """A corrupt record is indistinguishable from a torn one: replay
        must stop *before* it and keep everything earlier."""
        dbdir = str(tmp_path / "db")
        states = _build(dbdir)
        wal_bytes = bytearray(
            open(os.path.join(dbdir, WAL_FILE), "rb").read())
        spans = _record_spans(bytes(wal_bytes))
        for i, (start, end) in enumerate(spans):
            mutated = bytearray(wal_bytes)
            mutated[(start + _RECORD_HEADER.size + end) // 2] ^= 0xFF
            conn = _reopen_with_wal(dbdir, str(tmp_path / "scratch"),
                                    bytes(mutated))
            try:
                if i == 0:
                    assert conn.catalog.names() == []
                else:
                    assert _state_of(conn) == states[i - 1]
                _assert_indexes_consistent(conn)
            finally:
                conn.close()


class TestZeroExtension:
    def test_zero_filled_tail_recovers_as_torn(self, tmp_path):
        """A crash can persist a file-size extension without the data
        blocks (durability='checkpoint' permits it): a zero-filled WAL
        tail must recover like a torn write, not brick the database."""
        dbdir = str(tmp_path / "db")
        states = _build(dbdir)
        wal_path = os.path.join(dbdir, WAL_FILE)
        for pad in (1, 8, 64, 4096):
            with open(wal_path, "rb") as fh:
                image = fh.read()
            conn = _reopen_with_wal(dbdir, str(tmp_path / "scratch"),
                                    image + b"\x00" * pad)
            try:
                assert _state_of(conn) == states[-1]
                _assert_indexes_consistent(conn)
                # the repaired log accepts new commits durably
                conn.execute("INSERT INTO t VALUES (88, 'after-zeros')")
            finally:
                conn.close()
            again = connect(path=str(tmp_path / "scratch"))
            try:
                assert (88, "after-zeros") in again.catalog.get("t").rows
            finally:
                again.close()


class TestRecoveryLifecycle:
    def test_clean_reopen_has_everything(self, tmp_path):
        dbdir = str(tmp_path / "db")
        states = _build(dbdir)
        conn = connect(path=dbdir)
        try:
            assert _state_of(conn) == states[-1]
            _assert_indexes_consistent(conn)
        finally:
            conn.close()

    def test_recovery_truncates_the_torn_tail(self, tmp_path):
        """Opening a crashed directory repairs the WAL in place: the
        torn suffix is cut, and the *next* generation of commits appends
        cleanly after it."""
        dbdir = str(tmp_path / "db")
        _build(dbdir)
        wal_path = os.path.join(dbdir, WAL_FILE)
        wal_bytes = open(wal_path, "rb").read()
        spans = _record_spans(wal_bytes)
        keep = spans[4][1]                       # 5 complete records
        with open(wal_path, "wb") as fh:
            fh.write(wal_bytes[:keep + 7])       # plus a torn fragment
        conn = connect(path=dbdir)
        assert os.path.getsize(wal_path) == keep
        conn.execute("INSERT INTO t VALUES (77, 'post-crash')")
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert (77, "post-crash") in reopened.catalog.get("t").rows
            _assert_indexes_consistent(reopened)
        finally:
            reopened.close()

    def test_explicit_transaction_is_one_atomic_record(self, tmp_path):
        """A multi-statement transaction commits as one WAL record: all
        of it survives, or none of it."""
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE a (x int)")
        conn.execute("CREATE TABLE b (y int)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO a VALUES (1)")
        conn.execute("INSERT INTO b VALUES (2)")
        conn.execute("COMMIT")
        conn.close()
        wal_path = os.path.join(dbdir, WAL_FILE)
        wal_bytes = open(wal_path, "rb").read()
        spans = _record_spans(wal_bytes)
        assert len(spans) == 3                  # 2 DDL + 1 transaction
        # complete: both inserts present
        conn = _reopen_with_wal(dbdir, str(tmp_path / "s1"), wal_bytes)
        assert conn.catalog.get("a").rows == [(1,)]
        assert conn.catalog.get("b").rows == [(2,)]
        conn.close()
        # torn: neither insert present
        cut = spans[-1][0] + (spans[-1][1] - spans[-1][0]) // 2
        conn = _reopen_with_wal(dbdir, str(tmp_path / "s2"),
                                wal_bytes[:cut])
        assert conn.catalog.get("a").rows == []
        assert conn.catalog.get("b").rows == []
        conn.close()

    def test_rolled_back_transaction_leaves_no_record(self, tmp_path):
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE a (x int)")
        before = os.path.getsize(os.path.join(dbdir, WAL_FILE))
        conn.execute("BEGIN")
        conn.execute("INSERT INTO a VALUES (1)")
        conn.execute("ROLLBACK")
        assert os.path.getsize(os.path.join(dbdir, WAL_FILE)) == before
        conn.close()

    def test_durability_off_persists_only_checkpoints(self, tmp_path):
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir, durability="off")
        conn.execute("CREATE TABLE a (x int)")
        conn.execute("INSERT INTO a VALUES (1)")
        conn.execute("CHECKPOINT")
        conn.execute("INSERT INTO a VALUES (2)")     # not logged
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert reopened.catalog.get("a").rows == [(1,)]
        finally:
            reopened.close()

    def test_durability_checkpoint_logs_without_fsync(self, tmp_path):
        """The relaxed mode still appends every commit — a clean close
        recovers everything."""
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir, durability="checkpoint")
        conn.execute("CREATE TABLE a (x int)")
        conn.execute("INSERT INTO a VALUES (1)")
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert reopened.catalog.get("a").rows == [(1,)]
        finally:
            reopened.close()

    def test_nan_rows_recover(self, tmp_path):
        """Rows carrying NaN (never equal to itself) must still delta
        and replay — the WAL matches rows bit-exactly, not by ==."""
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE m (x float, y int)")
        nan = float("nan")
        conn.insert("m", [(nan, 1), (2.5, 2), (nan, 3)])
        conn.execute("DELETE FROM m WHERE y = 1")
        conn.close()
        reopened = connect(path=dbdir)
        try:
            rows = sorted(reopened.catalog.get("m").rows,
                          key=lambda r: r[1])
            assert [y for _, y in rows] == [2, 3]
            assert rows[0][0] == 2.5
            assert rows[1][0] != rows[1][0]      # still NaN
            # and the NaN survives further reopens (replay + snapshot)
            reopened.execute("CHECKPOINT")
        finally:
            reopened.close()
        again = connect(path=dbdir)
        try:
            assert len(again.catalog.get("m").rows) == 2
        finally:
            again.close()

    def test_failed_fsync_aborts_commit_without_poisoning_log(
            self, tmp_path, monkeypatch):
        """If the WAL append fails, the commit must abort, the record
        must not linger in the file, and later commits (with the same
        reused LSN) must recover exactly."""
        import repro.storage.store as store_mod
        from repro import StorageError

        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE a (x int)")

        real_fsync = os.fsync
        blown = []

        def failing_fsync(fd):
            if not blown:
                blown.append(True)
                raise OSError(5, "injected I/O error")
            return real_fsync(fd)

        monkeypatch.setattr(store_mod.os, "fsync", failing_fsync)
        import pytest as _pytest
        # the flusher fails the whole group-commit batch; every waiter
        # gets a StorageError naming the underlying failure
        with _pytest.raises(StorageError, match="injected I/O error"):
            conn.execute("INSERT INTO a VALUES (111)")
        monkeypatch.setattr(store_mod.os, "fsync", real_fsync)
        # the aborted commit is invisible in memory...
        assert conn.execute("SELECT * FROM a").rows == []
        # ...and the next commit must not collide with its LSN on disk
        conn.execute("INSERT INTO a VALUES (222)")
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert reopened.catalog.get("a").rows == [(222,)]
        finally:
            reopened.close()

    def test_index_replaced_in_one_txn_matches_on_disk(self, tmp_path):
        """DROP INDEX i; CREATE INDEX i ON <other column> inside one
        transaction: the live catalog and the recovered one must agree
        on the new definition."""
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE t1 (a int, b int)")
        conn.execute("CREATE TABLE t2 (a int, b int)")
        conn.insert("t1", [(1, 10)])
        conn.insert("t2", [(2, 20)])
        conn.execute("CREATE INDEX i ON t1 (a)")
        conn.execute("BEGIN")
        conn.execute("DROP INDEX i")
        conn.execute("CREATE INDEX i ON t2 (b) USING sorted")
        conn.execute("COMMIT")
        live = conn.catalog.get_index("i")
        assert (live.table, live.column, live.kind) == ("t2", "b",
                                                        "sorted")
        assert live.lookup(20) == [(2, 20)]
        conn.close()
        reopened = connect(path=dbdir)
        try:
            recovered = reopened.catalog.get_index("i")
            assert (recovered.table, recovered.column, recovered.kind) \
                == ("t2", "b", "sorted")
            _assert_indexes_consistent(reopened)
        finally:
            reopened.close()

    def test_insert_then_delete_in_one_txn_nets_out(self, tmp_path):
        """A row inserted and deleted inside one transaction must not
        appear in the WAL delta — replay matches deletions against the
        pre-transaction table, where that row never existed."""
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE t (k int)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (2)")
        conn.execute("INSERT INTO t VALUES (3)")
        conn.execute("DELETE FROM t WHERE k = 2")   # in-txn insert
        conn.execute("DELETE FROM t WHERE k = 1")   # base row
        conn.execute("COMMIT")
        assert sorted(conn.execute("SELECT * FROM t").rows) == [(3,)]
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert reopened.catalog.get("t").rows == [(3,)]
        finally:
            reopened.close()

    def test_small_dml_on_big_table_logs_a_small_record(self, tmp_path):
        """Commit logging is O(delta): one inserted row into a big
        table must append a record of bytes, not re-log the table."""
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE big (k int, v int)")
        conn.insert("big", [(i, i) for i in range(10_000)])
        conn.execute("CHECKPOINT")                    # reset the WAL
        wal_path = os.path.join(dbdir, WAL_FILE)
        before = os.path.getsize(wal_path)
        conn.execute("INSERT INTO big VALUES (10001, 1)")
        grown = os.path.getsize(wal_path) - before
        assert 0 < grown < 200, \
            f"one-row insert appended {grown} bytes to the WAL"
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert len(reopened.catalog.get("big").rows) == 10_001
        finally:
            reopened.close()

    def test_double_open_is_refused(self, tmp_path):
        """Two engines on one directory would fork the LSN sequence and
        lose acknowledged commits — the directory lock forbids it."""
        from repro import StorageError

        dbdir = str(tmp_path / "db")
        first = connect(path=dbdir)
        first.execute("CREATE TABLE a (x int)")
        with pytest.raises(StorageError, match="already open"):
            connect(path=dbdir)
        # ...including via a different spelling of the same path
        with pytest.raises(StorageError, match="already open"):
            connect(path=str(tmp_path / "." / "db"))
        first.close()
        second = connect(path=dbdir)    # released on close
        try:
            assert second.catalog.names() == ["a"]
        finally:
            second.close()

    def test_concurrent_index_replacement_conflicts(self, tmp_path):
        """A txn dropping an index must not clobber a concurrently
        committed *replacement* of the same name (first-committer-wins)
        — and the surviving definition must be the one on disk."""
        from repro import Engine, SessionConfig, TransactionError

        engine = Engine(SessionConfig(), path=str(tmp_path / "db"))
        try:
            setup = engine.connect()
            setup.execute("CREATE TABLE t (a int, b int)")
            setup.execute("CREATE INDEX i ON t (a)")
            loser = engine.connect()
            loser.execute("BEGIN")
            loser.execute("DROP INDEX i")
            winner = engine.connect()
            winner.execute("BEGIN")
            winner.execute("DROP INDEX i")
            winner.execute("CREATE INDEX i ON t (b)")
            winner.execute("COMMIT")
            with pytest.raises(TransactionError, match="replaced"):
                loser.execute("COMMIT")
            live = setup.catalog.get_index("i")
            assert (live.table, live.column) == ("t", "b")
        finally:
            engine.close()
        reopened = connect(path=str(tmp_path / "db"))
        try:
            recovered = reopened.catalog.get_index("i")
            assert (recovered.table, recovered.column) == ("t", "b")
        finally:
            reopened.close()

    def test_session_durability_override_is_rejected(self, tmp_path):
        """The WAL fsync policy is fixed at open; a session must not be
        able to believe in a different guarantee."""
        from repro import Engine, InterfaceError, SessionConfig

        engine = Engine(SessionConfig(durability="commit"),
                        path=str(tmp_path / "db"))
        try:
            with pytest.raises(InterfaceError, match="durability"):
                engine.connect(durability="off")
            conn = engine.connect()                   # same mode is fine
            conn.execute("CREATE TABLE a (x int)")
            conn.close()
        finally:
            engine.close()

    def test_checkpoint_then_crash_loses_nothing(self, tmp_path):
        """Records at or below the snapshot's LSN are skipped on replay,
        so an un-truncated WAL under a fresh snapshot never
        double-applies."""
        dbdir = str(tmp_path / "db")
        conn = connect(path=dbdir)
        conn.execute("CREATE TABLE a (x int)")
        conn.execute("INSERT INTO a VALUES (1)")
        conn.execute("CHECKPOINT")
        conn.execute("INSERT INTO a VALUES (2)")
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert Counter(reopened.catalog.get("a").rows) == \
                Counter([(1,), (2,)])
        finally:
            reopened.close()


class TestGroupCommit:
    """Group-commit batching: determinism, conflict splitting,
    all-or-none batch failure and torn multi-record batches.

    The deterministic scheme: a sacrificial commit becomes the commit
    leader and parks inside its own fsync (a patched ``os.fsync`` waits
    on an event).  Commits issued now queue behind that leader and
    *cannot* be handled until the event is set, so "two committers in
    one batch" is a certainty, not a race.
    """

    def _pinned(self, engine, monkeypatch, commits, fail_batch=False):
        """Park a leader (inserting into ``s``) in its fsync, queue each
        of *commits* (callables) behind it in order, release; returns
        the outcomes (``"s"`` and each commit's position) and the number
        of fsyncs issued.  With *fail_batch* the fsync after the
        leader's own one fails."""
        import threading

        import repro.storage.store as store_mod

        real_fsync = os.fsync
        parked, release = threading.Event(), threading.Event()
        fsyncs = [0]

        def gated_fsync(fd):
            fsyncs[0] += 1
            if fsyncs[0] == 1:
                parked.set()
                assert release.wait(10)
            elif fsyncs[0] == 2 and fail_batch:
                raise OSError(5, "injected I/O error")
            return real_fsync(fd)

        outcomes: dict = {}

        def run(key, commit) -> None:
            try:
                commit()
                outcomes[key] = "ok"
            except Exception as exc:      # noqa: BLE001 — recorded, asserted on
                outcomes[key] = exc

        monkeypatch.setattr(store_mod.os, "fsync", gated_fsync)
        threads = [threading.Thread(
            target=run, args=("s", lambda: _insert(engine, "s")))]
        try:
            threads[0].start()
            assert parked.wait(10)
            deadline = time.monotonic() + 10
            for position, commit in enumerate(commits):
                threads.append(threading.Thread(target=run,
                                                args=(position, commit)))
                threads[-1].start()
                while len(engine._queue) <= position:   # queued, in order
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            release.set()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            release.set()
            monkeypatch.setattr(store_mod.os, "fsync", real_fsync)
        return outcomes, fsyncs[0]

    def _engine(self, tmp_path):
        from repro import Engine

        engine = Engine(path=str(tmp_path / "db"))
        setup = engine.connect()
        for table in ("s", "a", "b"):
            setup.execute(f"CREATE TABLE {table} (x int)")
        setup.close()
        return engine

    def _pinned_pair(self, engine, monkeypatch, fail_batch=False):
        """Two disjoint-table autocommits queued behind a parked
        leader."""
        return self._pinned(engine, monkeypatch,
                            [lambda: _insert(engine, "a"),
                             lambda: _insert(engine, "b")],
                            fail_batch=fail_batch)

    def test_concurrent_committers_share_one_flush_batch(
            self, tmp_path, monkeypatch):
        engine = self._engine(tmp_path)
        store = engine.storage
        batches0, records0 = store.flush_batches, store.flushed_records
        outcomes, fsyncs = self._pinned_pair(engine, monkeypatch)
        assert outcomes == {"s": "ok", 0: "ok", 1: "ok"}
        # the leader's own commit flushed alone; a and b shared a batch
        # and its one fsync
        assert store.flush_batches == batches0 + 2
        assert store.flushed_records == records0 + 3
        assert fsyncs == 2
        engine.close()
        reopened = connect(path=str(tmp_path / "db"))
        try:
            for table in ("s", "a", "b"):
                assert reopened.catalog.get(table).rows == [(7,)]
        finally:
            reopened.close()

    def test_conflicting_queued_commits_split_into_two_batches(
            self, tmp_path, monkeypatch):
        """Two explicit transactions on one table, both queued behind a
        parked leader: the leader never batches them together — the
        first lands, the second validates against it and loses."""
        from repro import SerializationError

        engine = self._engine(tmp_path)
        store = engine.storage
        first, second = engine.connect(), engine.connect()
        for conn, value in ((first, 1), (second, 2)):
            conn.execute("BEGIN")
            conn.execute(f"INSERT INTO a VALUES ({value})")
        batches0 = store.flush_batches
        outcomes, _ = self._pinned(
            engine, monkeypatch, [lambda: first.execute("COMMIT"),
                                  lambda: second.execute("COMMIT")])
        assert outcomes["s"] == "ok" and outcomes[0] == "ok"
        assert isinstance(outcomes[1], SerializationError)
        assert "could not serialize" in str(outcomes[1])
        # the leader's batch, then the winner's alone; the loser logs
        # nothing
        assert store.flush_batches == batches0 + 2
        assert engine.catalog.get("a").rows == [(1,)]
        first.close()
        second.close()
        engine.close()

    def test_batch_fsync_failure_fails_every_waiter(
            self, tmp_path, monkeypatch):
        """One failed fsync aborts *both* commits in the batch: neither
        publishes, the batch is truncated off the WAL, and the engine
        keeps working afterwards."""
        from repro import StorageError

        engine = self._engine(tmp_path)
        outcomes, _ = self._pinned_pair(engine, monkeypatch,
                                        fail_batch=True)
        assert outcomes["s"] == "ok"
        for key, table in ((0, "a"), (1, "b")):
            assert isinstance(outcomes[key], StorageError)
            assert "group-commit batch failed" in str(outcomes[key])
            # neither loser published anything in memory
            assert engine.catalog.get(table).rows == []
        # the engine stays usable: the WAL tail was rolled back cleanly
        _insert(engine, "a", 42)
        engine.close()
        reopened = connect(path=str(tmp_path / "db"))
        try:
            assert reopened.catalog.get("s").rows == [(7,)]
            assert reopened.catalog.get("a").rows == [(42,)]
            assert reopened.catalog.get("b").rows == []
        finally:
            reopened.close()

    def test_batch_records_take_lsns_in_queue_order(
            self, tmp_path, monkeypatch):
        """Three disjoint commits queued behind a parked leader share
        one batch, and their records are sequenced in queue order."""
        from repro import Engine

        engine = Engine(path=str(tmp_path / "db"))
        setup = engine.connect()
        names = ("alpha", "bravo", "charlie")
        for table in ("s",) + names:
            setup.execute(f"CREATE TABLE {table} (x int)")
        setup.close()
        store = engine.storage
        real_append = store.append_commit
        sequenced: list = []

        def recording_append(payload):
            lsn = real_append(payload)
            sequenced.append((lsn, [n for n in names
                                    if n.encode() in payload]))
            return lsn

        monkeypatch.setattr(store, "append_commit", recording_append)
        outcomes, fsyncs = self._pinned(
            engine, monkeypatch,
            [lambda n=n: _insert(engine, n) for n in names])
        assert set(outcomes.values()) == {"ok"}
        assert fsyncs == 2
        lsns = [lsn for lsn, _ in sequenced]
        assert lsns == list(range(lsns[0], lsns[0] + 4))
        assert [tables for _, tables in sequenced] == \
            [[], ["alpha"], ["bravo"], ["charlie"]]
        assert store.last_lsn == lsns[-1]
        engine.close()

    def test_a_validation_loser_does_not_fail_its_batch(
            self, tmp_path, monkeypatch):
        """A commit that loses first-committer-wins inside a batch gets
        its SerializationError and logs nothing; the disjoint commit it
        was batched with still lands, under the batch's one fsync."""
        from repro import SerializationError

        engine = self._engine(tmp_path)
        store = engine.storage
        loser = engine.connect()
        loser.execute("BEGIN")
        loser.execute("INSERT INTO a VALUES (1)")
        _insert(engine, "a", 5)        # the winner, published already
        batches0, records0 = store.flush_batches, store.flushed_records
        outcomes, fsyncs = self._pinned(
            engine, monkeypatch, [lambda: loser.execute("COMMIT"),
                                  lambda: _insert(engine, "b")])
        assert outcomes["s"] == "ok" and outcomes[1] == "ok"
        assert isinstance(outcomes[0], SerializationError)
        assert fsyncs == 2
        assert store.flush_batches == batches0 + 2
        assert store.flushed_records == records0 + 2     # s and b
        assert engine.catalog.get("a").rows == [(5,)]
        assert engine.catalog.get("b").rows == [(7,)]
        loser.close()
        engine.close()

    def test_snapshots_never_wait_on_a_parked_fsync(
            self, tmp_path, monkeypatch):
        """While the leader sits in its fsync, another thread's snapshot
        and SELECT return at once, without the unpublished commit."""
        import threading

        import repro.storage.store as store_mod

        engine = self._engine(tmp_path)
        _insert(engine, "a", 1)
        real_fsync = os.fsync
        parked, release = threading.Event(), threading.Event()

        def gated_fsync(fd):
            parked.set()
            assert release.wait(10)
            return real_fsync(fd)

        monkeypatch.setattr(store_mod.os, "fsync", gated_fsync)
        leader = threading.Thread(target=_insert, args=(engine, "a", 2),
                                  daemon=True)
        seen: list = []

        def read() -> None:
            seen.append(engine.snapshot().get("a").rows)
            reader = engine.connect()
            seen.append(reader.execute("SELECT x FROM a").rows)
            reader.close()

        try:
            leader.start()
            assert parked.wait(10)
            reading = threading.Thread(target=read, daemon=True)
            reading.start()
            reading.join(10)
            assert not reading.is_alive()
            assert leader.is_alive()           # still parked
            assert seen == [[(1,)], [(1,)]]
        finally:
            release.set()
            leader.join(10)
            monkeypatch.setattr(store_mod.os, "fsync", real_fsync)
        assert not leader.is_alive()
        assert sorted(engine.catalog.get("a").rows) == [(1,), (2,)]
        engine.close()

    def test_torn_multi_record_batch_replays_only_the_intact_prefix(
            self, tmp_path, monkeypatch):
        """Cut the WAL inside the second record of a two-record batch:
        recovery must apply the batch's first commit and discard the
        torn one — batches are a flush optimization, not a recovery
        unit."""
        engine = self._engine(tmp_path)
        outcomes, _ = self._pinned_pair(engine, monkeypatch)
        assert set(outcomes.values()) == {"ok"}
        engine.close()

        dbdir = str(tmp_path / "db")
        with open(os.path.join(dbdir, WAL_FILE), "rb") as fh:
            wal_bytes = fh.read()
        spans = _record_spans(wal_bytes)
        # 3 CREATEs + s + a + b autocommits
        assert len(spans) == 6
        last_start, last_end = spans[-1]
        cut = last_start + (last_end - last_start) // 2
        reopened = _reopen_with_wal(dbdir, str(tmp_path / "scratch"),
                                    wal_bytes[:cut])
        try:
            # a queued first, so its record is the batch's intact one
            assert reopened.catalog.get("a").rows == [(7,)]
            assert reopened.catalog.get("b").rows == []
            assert reopened.catalog.get("s").rows == [(7,)]
        finally:
            reopened.close()


def _insert(engine, table: str, value: int = 7) -> None:
    """One autocommit single-row insert on a fresh session."""
    conn = engine.connect()
    try:
        conn.insert(table, [(value,)])
    finally:
        conn.close()


class TestInlineCheckpoint:
    """``checkpoint_wal_mb``: the commit leader compacts right after the
    batch that takes the WAL past the budget, before that commit
    returns."""

    #: one committed INSERT of this many rows logs ~0.6 MiB
    ROWS = [(i, "x" * 600) for i in range(1000)]

    def _commit_past_one_mib(self, dbdir: str, budget_mb: int):
        conn = connect(path=dbdir, checkpoint_wal_mb=budget_mb)
        conn.execute("CREATE TABLE blob (k int, v text)")
        conn.insert("blob", self.ROWS)
        conn.insert("blob", self.ROWS)
        return conn

    def test_wal_budget_checkpoints_before_the_commit_returns(
            self, tmp_path):
        dbdir = str(tmp_path / "db")
        conn = self._commit_past_one_mib(dbdir, budget_mb=1)
        snapshot = os.path.join(dbdir, SNAPSHOT_FILE)
        wal = os.path.join(dbdir, WAL_FILE)
        assert os.path.getsize(snapshot) > 1024 * 1024
        assert os.path.getsize(wal) == len(WAL_MAGIC)   # compacted
        conn.insert("blob", [(-1, "after")])            # still writable
        conn.close()
        reopened = connect(path=dbdir)
        try:
            assert Counter(reopened.catalog.get("blob").rows) == \
                Counter(self.ROWS * 2 + [(-1, "after")])
        finally:
            reopened.close()

    def test_zero_budget_never_compacts(self, tmp_path):
        dbdir = str(tmp_path / "db")
        conn = self._commit_past_one_mib(dbdir, budget_mb=0)
        assert not os.path.exists(os.path.join(dbdir, SNAPSHOT_FILE))
        assert os.path.getsize(os.path.join(dbdir, WAL_FILE)) \
            > 1024 * 1024
        conn.close()
