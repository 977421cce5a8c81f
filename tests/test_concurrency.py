"""Threaded stress tests: N reader + M writer sessions over one shared
Engine, asserting snapshot consistency under concurrent commits.

The invariants:

* **atomic visibility** — every writer transaction inserts a balanced
  pair of rows (``+v`` and ``-v``); a reader summing the table must see
  0 at every instant, never a half-applied transaction;
* **unique indexes never corrupt** — concurrent writers racing inserts
  against one UNIQUE index end with table and index in exact agreement
  and no duplicate keys, however the conflicts and integrity errors
  interleaved.

Synchronization is **event-based**, never wall-clock: a
:class:`threading.Barrier` releases readers and writers together (so
readers actually observe mid-commit windows instead of racing a warmup),
and readers run until a done-event says every writer committed — not for
a fixed iteration count that a loaded CI box could finish before the
first write lands.  Writer retries are bounded by commit *progress*
(first-committer-wins guarantees some transaction wins every round, so
a loser retries at most once per concurrent commit), not by time.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    Engine, IntegrityError, SerializationError, SessionConfig,
    TransactionError,
)

READERS = 4
WRITERS = 3
WRITES_PER_WRITER = 15
#: Ceiling on serialization-conflict retries per transaction.  Losing a
#: first-committer-wins race requires some *other* transaction to have
#: committed, so the retries of one transaction are bounded by the total
#: number of commits in the run — this is that bound, not a timing guess.
MAX_RETRIES = WRITERS * WRITES_PER_WRITER + READERS + 8


def _commit_with_retry(conn, apply, attempts: int = MAX_RETRIES) -> None:
    """Run *apply* in a transaction, retrying serialization conflicts
    (first-committer-wins makes losers retry, like any SI database)."""
    for _ in range(attempts):
        conn.begin()
        try:
            apply(conn)
            conn.commit()
            return
        except TransactionError:
            continue        # commit already rolled the txn back
        except BaseException:
            conn.rollback()
            raise
    raise AssertionError(
        "writer retried more often than the total number of commits in "
        "the run — conflicts are not making progress")


class TestBalancedInvariant:
    def test_readers_never_see_half_applied_transactions(self):
        engine = Engine()
        setup = engine.connect()
        setup.execute("CREATE TABLE acc (tag int, v int)")
        start = threading.Barrier(READERS + WRITERS)
        writers_done = threading.Event()
        done_lock = threading.Lock()
        writers_finished = [0]
        violations: list = []
        reads = [0] * READERS

        def writer(seed: int) -> None:
            conn = engine.connect()
            start.wait()
            try:
                for i in range(WRITES_PER_WRITER):
                    tag = seed * 1000 + i

                    def apply(c, tag=tag):
                        c.execute("INSERT INTO acc VALUES (?, ?)",
                                  (tag, 7))
                        c.execute("INSERT INTO acc VALUES (?, ?)",
                                  (tag, -7))
                    _commit_with_retry(conn, apply)
            finally:
                # the last writer to finish releases the readers
                with done_lock:
                    writers_finished[0] += 1
                    if writers_finished[0] == WRITERS:
                        writers_done.set()
                conn.close()

        def reader(slot: int) -> None:
            conn = engine.connect()
            start.wait()

            def observe() -> None:
                total = conn.execute(
                    "SELECT sum(v) AS s FROM acc").rows[0][0]
                if total not in (None, 0):
                    violations.append(total)
                # pairs must also arrive together, not one-sided
                odd = conn.execute(
                    "SELECT tag FROM acc GROUP BY tag "
                    "HAVING count(*) <> 2").rows
                if odd:
                    violations.append(("unpaired", odd))
                reads[slot] += 1

            while not writers_done.is_set():
                observe()
            observe()       # at least one read sees the final state
            conn.close()

        with ThreadPoolExecutor(max_workers=READERS + WRITERS) as pool:
            futures = [pool.submit(writer, seed)
                       for seed in range(WRITERS)]
            futures += [pool.submit(reader, slot)
                        for slot in range(READERS)]
            for future in futures:
                future.result()

        assert violations == []
        assert all(count >= 1 for count in reads)
        final = setup.execute("SELECT count(*) AS c FROM acc").rows[0][0]
        assert final == WRITERS * WRITES_PER_WRITER * 2
        engine.close()

    def test_snapshot_stable_while_writers_commit(self):
        engine = Engine()
        setup = engine.connect()
        setup.execute("CREATE TABLE log (x int)")
        setup.execute("INSERT INTO log VALUES (1)")

        reader = engine.connect()
        reader.begin()
        first = reader.execute("SELECT count(*) AS c FROM log").rows[0][0]

        def write() -> None:
            conn = engine.connect()
            for i in range(10):
                conn.execute("INSERT INTO log VALUES (?)", (i,))
            conn.close()

        thread = threading.Thread(target=write)
        thread.start()
        thread.join()
        # the open snapshot still sees the world as of BEGIN
        assert reader.execute(
            "SELECT count(*) AS c FROM log").rows[0][0] == first
        reader.commit()
        assert reader.execute(
            "SELECT count(*) AS c FROM log").rows[0][0] == first + 10
        engine.close()


class TestUniqueIndexUnderConcurrency:
    def test_unique_index_never_corrupts(self):
        engine = Engine()
        setup = engine.connect()
        setup.execute("CREATE TABLE reg (k int, who int)")
        setup.execute("CREATE UNIQUE INDEX reg_k ON reg (k)")
        keys = list(range(25))
        start = threading.Barrier(3)     # all claimers race from rest

        def claim(who: int) -> int:
            conn = engine.connect()
            start.wait()
            won = 0
            for key in keys:
                try:
                    def apply(c, key=key, who=who):
                        c.execute("INSERT INTO reg VALUES (?, ?)",
                                  (key, who))
                    _commit_with_retry(conn, apply)
                    won += 1
                except IntegrityError:
                    pass        # someone else claimed the key
            conn.close()
            return won

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(claim, who) for who in range(3)]
            total_claimed = sum(future.result() for future in futures)

        rows = setup.execute("SELECT k, who FROM reg").rows
        assert total_claimed == len(keys)
        assert sorted(k for k, _ in rows) == keys       # each key once
        index = setup.catalog.get_index("reg_k")
        for key, who in rows:
            assert index.lookup(key) == [(key, who)]
        engine.close()


class TestPerTableCommitLocking:
    """The multi-writer conflict matrix of the commit leader: commits
    conflict exactly on overlapping conflict sets (written / dropped /
    created tables plus index-DDL targets), never on mere engine
    sharing, and losing a race raises
    :class:`~repro.SerializationError` — a ``TransactionError`` so every
    existing retry loop keeps working."""

    def _engine(self, **options):
        engine = Engine(config=SessionConfig(**options))
        setup = engine.connect()
        setup.execute("CREATE TABLE a (x int)")
        setup.execute("CREATE TABLE b (x int)")
        return engine, setup

    def test_disjoint_table_writers_never_conflict(self):
        engine, setup = self._engine()
        a, b = engine.connect(), engine.connect()
        a.begin()
        b.begin()
        a.execute("INSERT INTO a VALUES (1)")
        b.execute("INSERT INTO b VALUES (2)")
        a.commit()      # overlapping lifetimes, disjoint write sets:
        b.commit()      # both must commit cleanly
        assert setup.execute("SELECT x FROM a").rows == [(1,)]
        assert setup.execute("SELECT x FROM b").rows == [(2,)]
        engine.close()

    def test_same_table_race_raises_serialization_error(self):
        engine, setup = self._engine()
        a, b = engine.connect(), engine.connect()
        a.begin()
        b.begin()
        a.execute("INSERT INTO a VALUES (1)")
        b.execute("INSERT INTO a VALUES (2)")
        a.commit()
        with pytest.raises(SerializationError,
                           match="could not serialize"):
            b.commit()
        assert isinstance(SerializationError("x"), TransactionError)
        assert setup.execute("SELECT x FROM a").rows == [(1,)]
        engine.close()

    def test_drop_races_with_writer_on_the_same_table(self):
        engine, setup = self._engine()
        a, b = engine.connect(), engine.connect()
        a.begin()
        b.begin()
        a.execute("INSERT INTO a VALUES (1)")
        b.execute("DROP TABLE a")
        b.commit()
        with pytest.raises(SerializationError,
                           match="could not serialize"):
            a.commit()
        assert "a" not in engine.catalog.names()
        engine.close()

    def test_same_index_name_race_is_a_conflict(self):
        """Two sessions racing CREATE INDEX with one name: the index
        name itself (``i:<name>``) is in the conflict set, so the loser
        conflicts (or hits the duplicate check) instead of silently
        clobbering the winner's index."""
        engine, setup = self._engine()
        a, b = engine.connect(), engine.connect()
        a.begin()
        b.begin()
        a.execute("CREATE INDEX ix ON a (x)")
        b.execute("CREATE INDEX ix ON b (x)")
        a.commit()
        with pytest.raises(TransactionError):
            b.commit()
        index = engine.catalog.get_index("ix")
        assert index.table == "a"       # the winner's definition stands
        engine.close()

    def test_autocommit_retries_serialization_losses(self):
        """Statement-level autocommit must absorb first-committer-wins
        losses internally: concurrent single-statement INSERTs on one
        table all land without the caller ever seeing a conflict."""
        engine, setup = self._engine()
        rounds = 30
        start = threading.Barrier(2)

        def hammer(base: int) -> None:
            conn = engine.connect()
            start.wait()
            for i in range(rounds):
                conn.insert("a", [(base + i,)])
            conn.close()

        threads = [threading.Thread(target=hammer, args=(base,))
                   for base in (0, 1000)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        count = setup.execute("SELECT count(*) AS c FROM a").rows[0][0]
        assert count == 2 * rounds
        engine.close()

    def test_balanced_invariant_under_table_locking(self):
        """The atomic-visibility stress from above with writers only:
        batching changes throughput, never isolation semantics."""
        engine = Engine()
        setup = engine.connect()
        setup.execute("CREATE TABLE acc (tag int, v int)")
        writers, per_writer = 3, 8
        start = threading.Barrier(writers)

        def writer(seed: int) -> None:
            conn = engine.connect()
            start.wait()
            for i in range(per_writer):
                tag = seed * 100 + i

                def apply(c, tag=tag):
                    c.execute("INSERT INTO acc VALUES (?, ?)", (tag, 5))
                    c.execute("INSERT INTO acc VALUES (?, ?)", (tag, -5))
                _commit_with_retry(conn, apply)
            conn.close()

        threads = [threading.Thread(target=writer, args=(seed,))
                   for seed in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert setup.execute(
            "SELECT sum(v) AS s FROM acc").rows[0][0] == 0
        assert setup.execute(
            "SELECT count(*) AS c FROM acc").rows[0][0] == \
            writers * per_writer * 2
        engine.close()

    def test_view_ddl_takes_the_catalog_barrier(self):
        """Catalog-wide DDL (views) commits in a batch of its own and
        still serializes correctly against table writers."""
        engine, setup = self._engine()
        setup.insert("a", [(1,), (2,)])
        done = threading.Event()

        def create_view() -> None:
            conn = engine.connect()
            conn.execute("CREATE VIEW va AS SELECT x FROM a")
            done.set()
            conn.close()

        thread = threading.Thread(target=create_view)
        thread.start()
        assert done.wait(10)
        thread.join(10)
        assert sorted(setup.execute("SELECT x FROM va").rows) == \
            [(1,), (2,)]
        engine.close()


class TestCommitLeader:
    """The commit sequencer's liveness: ``exclusive()`` composes with
    queued commits, and a durable engine needs no helper thread."""

    def test_commit_inside_exclusive_while_another_is_queued(self):
        """The exclusive holder commits inline as the leader while
        another thread's commit waits in the queue; both land, neither
        thread hangs."""
        engine = Engine()
        setup = engine.connect()
        setup.execute("CREATE TABLE a (x int)")
        setup.execute("CREATE TABLE b (x int)")
        errors: list = []

        def run(action) -> None:
            try:
                action()
            except Exception as exc:      # noqa: BLE001 — asserted on
                errors.append(exc)

        # opened before the hold: its commit needs no snapshot, so it
        # really reaches the queue while exclusive() is held
        other = engine.connect()
        other.begin()
        other.execute("INSERT INTO b VALUES (2)")
        queued = threading.Thread(target=run, args=(other.commit,),
                                  daemon=True)

        def hold_and_commit() -> None:
            with engine.exclusive():
                queued.start()
                deadline = time.monotonic() + 10
                while not engine._queue:
                    if time.monotonic() > deadline:
                        errors.append("the other commit never queued")
                        break
                    time.sleep(0.001)
                run(lambda: setup.insert("a", [(1,)]))

        holder = threading.Thread(target=hold_and_commit, daemon=True)
        holder.start()
        holder.join(10)
        queued.join(10)
        assert not holder.is_alive() and not queued.is_alive()
        assert errors == []
        assert setup.execute("SELECT x FROM a").rows == [(1,)]
        assert setup.execute("SELECT x FROM b").rows == [(2,)]
        other.close()
        engine.close()

    def test_leader_hand_offs_lose_no_commit(self, tmp_path):
        """Six durable writers, a tiny switch interval: every thread
        leads, waits and hands off many times, half of them colliding
        on one shared table.  A lost or doubled commit would break the
        counts, in memory and after reopen."""
        import sys

        engine = Engine(path=str(tmp_path / "db"))
        setup = engine.connect()
        setup.execute("CREATE TABLE shared (w int)")
        writers, per_writer = 6, 20
        for w in range(writers):
            setup.execute(f"CREATE TABLE own{w} (i int)")
        start = threading.Barrier(writers)
        errors: list = []

        def writer(w: int) -> None:
            try:
                conn = engine.connect()
                start.wait()
                for i in range(per_writer):
                    conn.insert(f"own{w}", [(i,)])
                    if w % 2 == 0:
                        conn.insert("shared", [(w,)])   # retried on loss
                conn.close()
            except Exception as exc:      # noqa: BLE001 — asserted on
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,),
                                        daemon=True)
                       for w in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        expected_shared = per_writer * len(range(0, writers, 2))
        store = engine.storage
        assert store.flushed_records == store.last_lsn
        engine.close()
        reopened = Engine(path=str(tmp_path / "db"))
        try:
            catalog = reopened.catalog
            for w in range(writers):
                assert sorted(catalog.get(f"own{w}").rows) == \
                    [(i,) for i in range(per_writer)]
            assert len(catalog.get("shared").rows) == expected_shared
        finally:
            reopened.close()

    def test_durable_engine_starts_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        engine = Engine(path=str(tmp_path / "db"))
        conn = engine.connect()
        conn.execute("CREATE TABLE t (x int)")
        for value in range(50):
            conn.insert("t", [(value,)])
        assert set(threading.enumerate()) == before
        engine.close()
        assert set(threading.enumerate()) == before


class TestBatchSelection:
    """``Engine._next_batch``: the leader takes the longest queue
    prefix whose conflict sets are pairwise disjoint, and a catalog-wide
    (view DDL) diff always goes alone — so a conflicting commit lands in
    a later batch and validates against the published winner.  Each
    case drains a queue of stub tickets and lists the batches by queue
    position; ``"*"`` marks a catalog-wide diff."""

    @staticmethod
    def _ticket(keys):
        from types import SimpleNamespace

        from repro.api.engine import _CommitTicket

        wide = keys == "*"
        diff = SimpleNamespace(lock_keys=set() if wide else set(keys),
                               catalog_wide=wide)
        return _CommitTicket(None, diff)

    @pytest.mark.parametrize("queue, batches", [
        pytest.param(["a", "b", "c"], [[0, 1, 2]], id="disjoint"),
        pytest.param(["a", "a", "b"], [[0], [1, 2]], id="overlap-second"),
        pytest.param([{"a", "b"}, "c", {"b", "d"}], [[0, 1], [2]],
                     id="overlap-through-multi-key"),
        pytest.param(["", "", "a"], [[0, 1, 2]], id="empty-conflict-sets"),
        pytest.param(["*", "a", "b"], [[0], [1, 2]], id="wide-first"),
        pytest.param(["a", "*", "b"], [[0], [1], [2]], id="wide-middle"),
        pytest.param(["*", "*"], [[0], [1]], id="wide-twice"),
    ])
    def test_drained_batches(self, queue, batches):
        engine = Engine()
        tickets = [self._ticket(keys) for keys in queue]
        drained = []
        with engine._commit_cond:
            engine._queue.extend(tickets)
            while engine._queue:
                drained.append([tickets.index(t)
                                for t in engine._next_batch()])
        # queue order is kept inside and across batches
        assert drained == batches
        engine.close()


class TestSharedPlanCacheUnderConcurrency:
    def test_concurrent_executions_of_one_cached_plan(self):
        """Many threads hammering the same SQL text must each get a
        private physical-plan instance (the pool), never shared operator
        state: results stay correct and complete."""
        engine = Engine()
        setup = engine.connect()
        setup.execute("CREATE TABLE t (x int)")
        setup.insert("t", [(i,) for i in range(500)])
        sql = "SELECT x FROM t WHERE x < 250"
        expected = sorted(setup.execute(sql).rows)

        def run() -> bool:
            conn = engine.connect(batch_size=32)
            ok = all(sorted(conn.execute(sql).rows) == expected
                     for _ in range(20))
            conn.close()
            return ok

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = [future.result()
                       for future in [pool.submit(run) for _ in range(6)]]
        assert all(results)
        engine.close()

    def test_interleaved_streaming_of_one_cached_plan(self):
        """Single-threaded, but two cursors stream the same cached plan
        at once — the instance pool must hand out distinct operator
        trees."""
        engine = Engine()
        conn = engine.connect(batch_size=4)
        conn.execute("CREATE TABLE t (x int)")
        conn.insert("t", [(i,) for i in range(64)])
        sql = "SELECT x FROM t"
        a = conn.cursor().execute(sql)
        b = conn.cursor().execute(sql)
        first_a = a.fetchmany(3)
        first_b = b.fetchmany(5)
        assert first_a == [(0,), (1,), (2,)]
        assert first_b == [(0,), (1,), (2,), (3,), (4,)]
        assert len(a.fetchall()) == 61
        assert len(b.fetchall()) == 59
        engine.close()
