"""``commit_mix``: two writer threads over one durable engine at the
default flush policy (``durability="commit"``, ``group_commit_ms=0``).

Each thread runs a size-neutral round against its own table, a shared
20k-row indexed table and a shared 16-row counter table (the contended
part: first-committer-wins is per table, so the two threads collide
there and retry).  A Python model of every table is kept beside the
engine; the durability check compares a crash copy against it.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Sequence

from repro.api import Connection, Engine
from repro.errors import SerializationError

from harness import (
    FsyncRecorder, Tracer, Window, WorkDir, bag_digest, median, now,
    user_bytes, wal_bytes,
)
from wl_read import Checked

THREADS = 2
SINGLES = 8             # autocommit single-row inserts per round
BATCH = 100             # rows of the explicit transaction
PER_ROUND = SINGLES + BATCH
LAG = 10                # a round deletes what the round LAG before wrote
COUNTERS = 16
CTR_RETRIES = 3

CLASSES = ("ins1", "txn100", "ins_big", "del", "ctr", "read")


def own_row(thread: int, key: int) -> tuple:
    return (key, key * 7 % 1000, f"t{thread}-{key:08d}")


def big_row(key: int) -> tuple:
    return (key, key * 7 % 101)


class _Writer:
    """One thread's session, statements and position in its script."""

    def __init__(self, engine: Engine, thread: int) -> None:
        self.thread = thread
        self.conn: Connection = engine.connect()
        table = f"own{thread}"
        prepare = self.conn.prepare
        self.ins_own = prepare(f"INSERT INTO {table} VALUES (?, ?, ?)")
        self.del_own = prepare(
            f"DELETE FROM {table} WHERE k >= ? AND k < ?")
        self.count_own = prepare(f"SELECT count(*) FROM {table}")
        self.ins_big = prepare("INSERT INTO big VALUES (?, ?)")
        self.del_big = prepare("DELETE FROM big WHERE k = ?")
        self.get_ctr = prepare("SELECT n FROM ctr WHERE id = ?")
        self.del_ctr = prepare("DELETE FROM ctr WHERE id = ?")
        self.ins_ctr = prepare("INSERT INTO ctr VALUES (?, ?)")
        self.next_op = 0
        self.increments = [0] * COUNTERS
        self.written_bytes = 0


class CommitMix:
    name = "commit_mix"
    classes = CLASSES
    #: per thread; 3 warm-up + 30 checked rounds of 13 commits on two
    #: threads leave 860 commits in the log, so that recovery replays
    #: for more than 0.2 s
    rounds = 30
    child_pid = None
    wal_bytes_extra = 0

    def __init__(self) -> None:
        self.engines: list[Engine] = []
        self.writers: list[_Writer] = []
        self.big_rows = 5000
        self.records_per_flush = 0.0
        #: set by the runner: the installed ``os.fsync`` recorder
        self.recorder: FsyncRecorder | None = None

    # -- inputs and set-up ----------------------------------------------------

    def setup(self, seed: int, quick: bool, work: WorkDir) -> None:
        # the script is fixed; the seed moves the keys the threads start
        # from (all of them 24 bits wide, so every seed logs integers
        # of the same length)
        self.base = 9_000_000 + (seed % 1000) * 7_000
        self.big_rows = 500 if quick else 5000
        engine = Engine(path=str(work.fresh(self.name)))
        self.engines = [engine]
        conn = engine.connect()
        for thread in range(THREADS):
            conn.create_table(f"own{thread}", [("k", "int"), ("v", "int"),
                                               ("note", "text")])
            conn.insert(f"own{thread}", [
                own_row(thread, key) for op in range(-LAG, 0)
                for key in self._own_keys(op)])
        conn.create_table("big", [("k", "int"), ("v", "int")])
        conn.insert("big", [big_row(k) for k in range(self.big_rows)] + [
            big_row(self._big_key(thread, op))
            for thread in range(THREADS) for op in range(-LAG, 0)])
        conn.execute("CREATE INDEX big_k ON big (k)")
        conn.create_table("ctr", [("id", "int"), ("n", "int")])
        conn.insert("ctr", [(i, 0) for i in range(COUNTERS)])
        conn.execute("ANALYZE")
        conn.close()
        engine.checkpoint()
        self.writers = [_Writer(engine, t) for t in range(THREADS)]

    def teardown(self) -> None:
        for engine in self.engines:
            engine.close()
        self.engines = []
        self.writers = []

    def _own_keys(self, op: int) -> range:
        start = self.base + (op + LAG) * PER_ROUND
        return range(start, start + PER_ROUND)

    def _big_key(self, thread: int, op: int) -> int:
        return self.big_rows + self.base + (op + LAG) * THREADS + thread

    # -- the round script -----------------------------------------------------

    def round(self, writer: _Writer, window: Window | None = None,
              tracer: Tracer | None = None) -> list[str]:
        """One op of *writer*'s script; returns what went wrong."""
        op = writer.next_op
        writer.next_op += 1
        thread = writer.thread
        conn = writer.conn
        keys = self._own_keys(op)
        errors: list[str] = []
        started = now()

        def timed(cls: str, body: Any) -> None:
            t0 = now()
            if tracer is not None:
                with tracer.span("stmt." + cls):
                    body()
            else:
                body()
            if window is not None:
                window.add_class(cls, (now() - t0) * 1e3)

        def singles() -> None:
            for key in keys[:SINGLES]:
                writer.ins_own.execute(own_row(thread, key))

        def batch() -> None:
            with conn.transaction():
                for key in keys[SINGLES:]:
                    writer.ins_own.execute(own_row(thread, key))

        def delete() -> None:
            old = self._own_keys(op - LAG)
            writer.del_own.execute((old.start, old.stop))
            writer.del_big.execute((self._big_key(thread, op - LAG),))

        def counter() -> None:
            ident = (op * THREADS + thread) % COUNTERS
            for attempt in range(CTR_RETRIES + 1):
                try:
                    with conn.transaction():
                        n = writer.get_ctr.execute((ident,)).rows[0][0]
                        writer.del_ctr.execute((ident,))
                        writer.ins_ctr.execute((ident, n + 1))
                    writer.increments[ident] += 1
                    return
                except SerializationError:
                    if window is not None:
                        window.retries += 1
            errors.append(f"ctr@{op}: retries exhausted")

        def read() -> None:
            count = writer.count_own.execute().rows[0][0]
            if count != LAG * PER_ROUND:
                errors.append(f"read@{op}: own{thread} holds {count} "
                              f"rows, expected {LAG * PER_ROUND}")

        timed("ins1", singles)
        timed("txn100", batch)
        timed("ins_big", lambda: writer.ins_big.execute(
            big_row(self._big_key(thread, op))))
        timed("del", delete)
        timed("ctr", counter)
        timed("read", read)
        writer.written_bytes += user_bytes(
            [own_row(thread, key) for key in keys]
            + [big_row(self._big_key(thread, op)), (0, 0)])
        if window is not None:
            window.op_ms.append((now() - started) * 1e3)
            if errors:
                window.failed += 1
        return errors

    def run_threads(self, body: Any) -> list[Any]:
        """``body(writer)`` on one thread per writer; re-raises."""
        results: list[Any] = [None] * len(self.writers)
        failures: list[BaseException] = []

        def run(index: int) -> None:
            try:
                results[index] = body(self.writers[index])
            except BaseException as exc:   # noqa: BLE001 - re-raised below
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(self.writers))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return results

    # -- phases ---------------------------------------------------------------

    def fixed_rounds(self, rounds: int) -> Checked:
        """*rounds* ops per thread, both threads at once; collects
        everything that went wrong."""
        def body(writer: _Writer) -> list[str]:
            errors: list[str] = []
            for _ in range(rounds):
                errors += self.round(writer)
            return errors

        checked = Checked(ops=rounds * len(self.writers))
        for errors in self.run_threads(body):
            checked.errors += errors
        return checked

    def warm_up(self) -> None:
        self.fixed_rounds(3)

    def checked_phase(self) -> Checked:
        checked = self.fixed_rounds(self.rounds)
        catalog = self.engines[0].catalog
        for table, rows in self.model().items():
            live = bag_digest(catalog.get(table).rows)
            if live != bag_digest(rows):
                checked.errors.append(
                    f"{table}: engine holds {live}, model "
                    f"{bag_digest(rows)}")
            checked.digests[table] = list(live)
        return checked

    def run_window(self, seconds: float, first_op: int = 0) -> Window:
        storage = self.engines[0].storage
        batches, records = storage.flush_batches, storage.flushed_records

        def body(writer: _Writer) -> Window:
            window = Window()
            started = now()
            while now() < started + seconds:
                self.round(writer, window)
            window.seconds = now() - started
            return window

        total = Window()
        for window in self.run_threads(body):
            total.merge(window)
        self.records_per_flush = \
            (storage.flushed_records - records) / \
            max(1, storage.flush_batches - batches)
        return total

    def replay(self, rounds: int, tracer: Tracer | None = None
               ) -> list[float]:
        """The script replayed on one thread, one writer after the
        other; returns the time of each op."""
        times = []
        for op in range(rounds):
            if tracer is not None:
                tracer.op = op
            for writer in self.writers:
                started = now()
                with tracer.span("round") if tracer is not None \
                        else nullcontext():
                    errors = self.round(writer, tracer=tracer)
                times.append((now() - started) * 1e3)
                if errors:
                    raise RuntimeError(errors[0])
        return times

    def replay_traced(self, rounds: int, tracer: Tracer
                      ) -> dict[str, float]:
        """The replay with a span around every stage of
        ``Engine.commit_transaction``; returns the exact counts."""
        import repro.api.transaction as txn_mod
        import repro.storage.wal as wal_mod
        from repro.storage import DurableStore
        stages = [
            (Engine, "commit_transaction", "api.commit_transaction"),
            (txn_mod, "compute_commit_diff", "api.commit_diff"),
            (txn_mod, "validate_commit", "api.commit_validate"),
            (txn_mod, "publish_commit", "api.commit_publish"),
            (wal_mod, "collect_commit_ops", "storage.wal_encode"),
            (wal_mod, "encode_commit_ops", "storage.wal_encode"),
            (DurableStore, "append_commit", "storage.wal_append"),
        ]
        engine = self.engines[0]
        bytes_before = wal_bytes(engine)
        fsyncs_before = self.recorder.calls
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in stages]
        try:
            for owner, name, span in stages:
                setattr(owner, name,
                        tracer.wrap(span, getattr(owner, name)))
            self.replay(rounds, tracer)
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
        commits = sum(1 for s in tracer.spans
                      if s.name == "storage.wal_append")
        return {
            "commits": commits,
            "wal_bytes_per_commit":
                (wal_bytes(engine) - bytes_before) / commits,
            "fsyncs_per_commit":
                (self.recorder.calls - fsyncs_before) / commits,
        }

    def traced_phase(self, tracer: Tracer) -> dict[str, float]:
        untraced = median(self.replay(self.rounds))
        counts = self.replay_traced(self.rounds, tracer)
        ops = range(self.rounds)
        by_name = tracer.self_ms_by_op()

        def layer(*names: str) -> float:
            """Per op of one writer."""
            return median([sum(per_op.get(op, 0.0)
                               for name, per_op in by_name.items()
                               if name.startswith(names))
                           for op in ops]) / len(self.writers)

        traced = [(s.end - s.start) * 1e3
                  for s in tracer.spans if s.name == "round"]
        return {
            "api.stmt_apply_ms": layer("stmt."),
            "api.commit_diff_ms": layer("api.commit_diff"),
            "api.commit_validate_ms": layer("api.commit_validate"),
            "api.commit_publish_ms": layer("api.commit_publish"),
            "storage.wal_encode_ms": layer("storage.wal_encode"),
            "storage.wal_append_ms": layer("storage.wal_append"),
            # the commit's own time outside its stages: locks, barrier
            "api.session_overhead_ms": layer("api.commit_transaction"),
            "storage.wal_bytes_per_commit": counts["wal_bytes_per_commit"],
            "storage.fsyncs_per_commit": counts["fsyncs_per_commit"],
            # against the same replay untraced, not against the
            # two-thread phases, whose ops also wait for each other
            "bench.trace_overhead_ratio": median(traced) / untraced,
        }

    def window_metrics(self, window: Window) -> dict[str, float]:
        out = {f"class.{cls}.p50_ms": p50
               for cls, p50 in window.class_p50().items()}
        out["storage.records_per_flush"] = self.records_per_flush
        out["api.serialization_retries"] = \
            1000.0 * window.retries / max(1, len(window.op_ms))
        return out

    # -- the model ------------------------------------------------------------

    def model(self) -> dict[str, list[tuple]]:
        """What every table must hold once all threads are between ops."""
        tables: dict[str, list[tuple]] = {}
        big = [big_row(k) for k in range(self.big_rows)]
        counters = [0] * COUNTERS
        for writer in self.writers:
            live = range(writer.next_op - LAG, writer.next_op)
            tables[f"own{writer.thread}"] = [
                own_row(writer.thread, key)
                for op in live for key in self._own_keys(op)]
            big += [big_row(self._big_key(writer.thread, op))
                    for op in live]
            for ident, n in enumerate(writer.increments):
                counters[ident] += n
        tables["big"] = big
        tables["ctr"] = list(enumerate(counters))
        return tables

    def verify_recovered(self, recovered: Sequence[Engine]) -> bool:
        """Every commit acknowledged before the crash copy is readable:
        count and CRC per table against the model."""
        catalog = recovered[0].catalog
        return all(bag_digest(catalog.get(table).rows) == bag_digest(rows)
                   for table, rows in self.model().items())

    def written_bytes(self) -> int:
        return sum(writer.written_bytes for writer in self.writers)
