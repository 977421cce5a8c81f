"""Engine lock wiring: ``exclusive()`` (commit leadership, then
``engine.lock``) must admit the snapshots and commits the holding
thread performs itself — the bulk-write path and the shell's ``\\tpch``
loader run whole statements under it — and hold off every other
thread's commits and snapshots until it is released.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import Engine
from repro.storage.store import WAL_FILE
from repro.storage.wal import WAL_MAGIC


def _engine_with_table() -> tuple[Engine, object]:
    engine = Engine()
    conn = engine.connect()
    conn.execute("CREATE TABLE t (x int)")
    return engine, conn


class TestEngineLockWiring:
    def test_engine_exclusive_admits_snapshots_and_commits(self):
        engine = Engine()
        conn = engine.connect()
        conn.execute("CREATE TABLE t (x int)")
        conn.insert("t", [(1,), (2,)])
        with engine.exclusive():
            assert engine.snapshot().get("t").rows
            # a commit under it runs inline, as the leader
            conn.insert("t", [(3,)])
            assert len(engine.snapshot().get("t").rows) == 3
        # the session still works afterwards: nothing leaked
        assert conn.execute("SELECT count(*) AS c FROM t").rows == [(3,)]
        assert engine._leader is None
        engine.close()

    def test_nested_exclusive_keeps_leadership_until_the_outer_exit(self):
        engine, conn = _engine_with_table()
        me = threading.get_ident()
        with engine.exclusive():
            with engine.exclusive():
                conn.insert("t", [(1,)])
                assert engine._leader == me
            # the inner exit must not hand leadership away
            assert engine._leader == me
            conn.insert("t", [(2,)])
        assert engine._leader is None
        assert sorted(conn.execute("SELECT x FROM t").rows) == [(1,), (2,)]
        engine.close()

    def test_exclusive_holds_off_another_threads_commit(self):
        engine, conn = _engine_with_table()
        other = engine.connect()
        other.begin()
        other.execute("INSERT INTO t VALUES (9)")
        errors: list = []

        def commit() -> None:
            try:
                other.commit()
            except Exception as exc:      # noqa: BLE001 — asserted on
                errors.append(exc)

        committer = threading.Thread(target=commit, daemon=True)
        with engine.exclusive():
            committer.start()
            deadline = time.monotonic() + 10
            while not engine._queue:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            # queued, not handled: no leader may run while it is held
            assert committer.is_alive()
            assert engine.catalog.get("t").rows == []
        committer.join(10)
        assert not committer.is_alive()
        assert errors == []
        assert conn.execute("SELECT x FROM t").rows == [(9,)]
        other.close()
        engine.close()

    def test_exclusive_holds_off_another_threads_snapshot(self):
        engine, conn = _engine_with_table()
        taken = threading.Event()
        seen: list = []

        def take_snapshot() -> None:
            seen.append(engine.snapshot().get("t").rows)
            taken.set()

        reader = threading.Thread(target=take_snapshot, daemon=True)
        with engine.exclusive():
            reader.start()
            assert not taken.wait(0.05)
            conn.insert("t", [(1,)])
        assert taken.wait(10)
        reader.join(10)
        # the snapshot waited out the whole hold, so it sees its commit
        assert seen == [[(1,)]]
        engine.close()

    def test_exclusive_releases_leadership_when_its_body_raises(self):
        engine, conn = _engine_with_table()
        with pytest.raises(RuntimeError, match="boom"):
            with engine.exclusive():
                conn.insert("t", [(1,)])
                raise RuntimeError("boom")
        assert engine._leader is None
        # another thread can lead and commit right away
        done = threading.Event()

        def commit_elsewhere() -> None:
            other = engine.connect()
            other.insert("t", [(2,)])
            other.close()
            done.set()

        thread = threading.Thread(target=commit_elsewhere, daemon=True)
        thread.start()
        assert done.wait(10)
        thread.join(10)
        assert sorted(conn.execute("SELECT x FROM t").rows) == [(1,), (2,)]
        engine.close()

    def test_checkpoint_inside_exclusive_runs_inline(self, tmp_path):
        dbdir = str(tmp_path / "db")
        engine = Engine(path=dbdir)
        conn = engine.connect()
        conn.execute("CREATE TABLE t (x int)")
        with engine.exclusive():
            conn.insert("t", [(1,)])
            assert engine.checkpoint() == dbdir
            # compacted while still held: the WAL restarted empty
            assert os.path.getsize(os.path.join(dbdir, WAL_FILE)) == \
                len(WAL_MAGIC)
        engine.close()
        reopened = Engine(path=dbdir)
        try:
            assert reopened.catalog.get("t").rows == [(1,)]
        finally:
            reopened.close()
