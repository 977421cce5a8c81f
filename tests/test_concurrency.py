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
    """The multi-writer conflict matrix for the per-table lock manager:
    commits conflict exactly on overlapping conflict sets (written /
    dropped / created tables plus index-DDL targets), never on mere
    engine sharing, and losing a race raises
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

    def test_commits_only_block_on_their_own_tables(self):
        """Deterministic proof the lock manager scopes commit mutual
        exclusion by name: while ``t:a`` is held externally, a commit on
        ``b`` completes, a commit on ``a`` parks, and releasing the key
        admits it."""
        engine, setup = self._engine()
        done_b = threading.Event()
        done_a = threading.Event()

        def insert(table: str, done: threading.Event) -> None:
            conn = engine.connect()
            conn.insert(table, [(9,)])      # autocommit: one commit
            done.set()
            conn.close()

        with engine.table_locks.acquire(["t:a"]):
            thread_b = threading.Thread(target=insert, args=("b", done_b))
            thread_b.start()
            assert done_b.wait(10)          # sails past the held a-key
            thread_a = threading.Thread(target=insert, args=("a", done_a))
            thread_a.start()
            thread_b.join(10)
            assert not done_a.is_set()      # parked on t:a (held here)
        assert done_a.wait(10)
        thread_a.join(10)
        assert setup.execute("SELECT x FROM a").rows == [(9,)]
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
        the lock manager changes throughput, never isolation
        semantics."""
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
        """Catalog-wide DDL (views) uses the global barrier path and
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
