"""The shared engine core: one catalog, one plan cache, many sessions.

An :class:`Engine` owns everything that is shared between concurrent
sessions — the :class:`~repro.catalog.Catalog` (tables, views, secondary
indexes, statistics), the lock-guarded LRU plan cache, and the
reader-writer lock that orders readers' snapshots against writers'
commits::

    from repro import Engine

    engine = Engine()
    writer = engine.connect()
    reader = engine.connect(default_strategy="left")

Concurrency model (snapshot isolation, copy-on-write):

* Readers never hold a lock while executing.  Each statement (or each
  explicit transaction) captures a :meth:`snapshot` — a cheap
  dict-level copy of the catalog that pins the current ``Relation``,
  index and statistics *objects* — under the read lock, then plans and
  executes entirely against the pinned objects.
* Writers never mutate a pinned object.  A transaction applies its
  changes to private copy-on-write table/index copies; :meth:`commit`
  locks only its **conflict set** — the tables it wrote, dropped or
  created plus the index names it touched — through the per-name
  :class:`TableLockManager` (canonical sorted order, so overlapping
  committers cannot deadlock), validates first-committer-wins against
  the live catalog (a loser gets
  :class:`~repro.errors.SerializationError`), appends its WAL record
  through the group-commit flusher, and finally takes the write lock
  only for the brief dict-swap publish.  Commits on disjoint tables
  validate, flush and publish in parallel; a short-lived global
  barrier (``commit_barrier``) serializes only catalog-wide DDL
  (views), ``CHECKPOINT`` and close.
* Autocommit statements are one-statement transactions; on a
  serialization conflict the connection retries the statement on a
  fresh snapshot.

The legacy single-user entry points still work: ``repro.connect()``
mints a *private* engine per connection, and a bare
``Connection(config, catalog)`` does the same — nothing breaks, but
every connection now runs on the same transactional machinery.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..catalog import Catalog
from ..errors import InterfaceError
from .config import SessionConfig
from .plan_cache import PlanCache

if TYPE_CHECKING:  # pragma: no cover
    from .connection import Connection
    from .transaction import Transaction


class RWLock:
    """A writer-preferring reader-writer lock.

    Many readers may hold the lock concurrently; a writer holds it
    exclusively.  Writer-preferring: once a writer is waiting, new
    readers queue behind it, so a steady stream of snapshots cannot
    starve commits.  Both sides are reentrant for the holding thread —
    re-acquiring the read side while a writer is queued must not send
    the established reader to the back of the line — and a thread
    holding the write lock may also take (and release) the read side,
    which shares the write depth.  Read-to-write upgrades raise
    :class:`~repro.errors.InterfaceError` instead of deadlocking.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0                     # held read entries, re-entries included
        self._read_depths: dict[int, int] = {}  # thread id -> read depth
        self._writer: int | None = None      # owning thread id
        self._write_depth = 0
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:            # writer may re-enter as reader
                self._write_depth += 1
                return
            depth = self._read_depths.get(me, 0)
            if depth:
                # Re-entrant read.  This thread was already admitted; a
                # waiting writer cannot run until it fully releases, so
                # queueing behind the writer here (as a fresh reader
                # must) would deadlock both threads.
                self._read_depths[me] = depth + 1
                self._readers += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._read_depths[me] = 1
            self._readers += 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # The write-lock owner's read entries share the write
                # depth; route through the write-release bookkeeping so
                # a depth-0 release clears the owner and wakes waiters
                # even under a mismatched guard pairing.
                self._release_write_locked()
                return
            depth = self._read_depths.get(me, 0)
            assert depth > 0, \
                "release_read() without a matching acquire_read()"
            if depth == 1:
                del self._read_depths[me]
            else:
                self._read_depths[me] = depth - 1
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
                return
            if self._read_depths.get(me, 0):
                raise InterfaceError(
                    "read-to-write lock upgrade: this thread holds the "
                    "read side; the writer would wait for its own read "
                    "to release — restructure to release the read lock "
                    "first")
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._write_depth = 1

    def release_write(self) -> None:
        with self._cond:
            assert self._writer == threading.get_ident(), \
                "release_write() by a thread that does not own the lock"
            self._release_write_locked()

    def _release_write_locked(self) -> None:
        """Drop one write-side entry; caller holds ``self._cond``."""
        self._write_depth -= 1
        assert self._write_depth >= 0, "unbalanced write-lock release"
        if not self._write_depth:
            self._writer = None
            self._cond.notify_all()

    class _Guard:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire: Callable[[], None],
                     release: Callable[[], None]) -> None:
            self._acquire = acquire
            self._release = release

        def __enter__(self) -> "RWLock._Guard":
            self._acquire()
            return self

        def __exit__(self, *exc_info: object) -> None:
            self._release()

    def read(self) -> "RWLock._Guard":
        """``with lock.read():`` — shared acquisition."""
        return RWLock._Guard(self.acquire_read, self.release_read)

    def write(self) -> "RWLock._Guard":
        """``with lock.write():`` — exclusive acquisition."""
        return RWLock._Guard(self.acquire_write, self.release_write)


class TableLockManager:
    """Named exclusive locks over the commit path's conflict sets.

    A committing transaction locks every name in its conflict set —
    tables it wrote, dropped or created (``t:<table>``) and index names
    it created or dropped (``i:<index>``) — before validating, so two
    commits can interleave only when their sets are disjoint.
    :meth:`acquire` sorts the keys and always locks in that one
    canonical order; overlapping committers therefore contend on their
    first common key and can never deadlock on each other.

    Locks are created on demand and never discarded: names are few,
    and dropping a lock while another thread holds it would fork the
    mutual exclusion it provides.
    """

    class _Guard:
        __slots__ = ("_locks",)

        def __init__(self, locks: list[threading.Lock]) -> None:
            self._locks = locks

        def __enter__(self) -> "TableLockManager._Guard":
            for lock in self._locks:
                lock.acquire()
            return self

        def __exit__(self, *exc_info: object) -> None:
            for lock in reversed(self._locks):
                lock.release()

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()
        self._locks: dict[str, threading.Lock] = {}

    def _lock_for(self, key: str) -> threading.Lock:
        with self._registry_lock:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    def acquire(self, keys: "Iterable[str]") -> "TableLockManager._Guard":
        """``with table_locks.acquire(keys):`` — all of *keys*,
        exclusively, taken in canonical (sorted, deduplicated) order."""
        ordered = sorted(set(keys))
        return TableLockManager._Guard(
            [self._lock_for(key) for key in ordered])


class Engine:
    """The shared, thread-safe core behind one or many sessions.

    *config* provides the default :class:`SessionConfig` new sessions
    inherit (each :meth:`connect` call may override fields); *catalog*
    adopts an existing catalog (the TPC-H loaders and tests build one up
    front).

    *path* makes the engine **durable**: the directory is created or
    recovered (snapshot + committed WAL suffix; a torn WAL tail —
    a crash mid-commit — is discarded), every commit appends its
    write-set to the WAL per ``config.durability``, and
    :meth:`checkpoint` (SQL: ``CHECKPOINT``) compacts the log into a
    fresh snapshot.
    """

    def __init__(self, config: SessionConfig | None = None,
                 catalog: Catalog | None = None,
                 path: "str | None" = None) -> None:
        self.config = config or SessionConfig()
        self.storage = None
        if path is not None:
            if catalog is not None:
                raise InterfaceError(
                    "pass either a catalog or a path, not both — a "
                    "durable engine recovers its catalog from disk")
            from ..storage.store import DurableStore
            self.storage, catalog = DurableStore.open(
                path, self.config.durability,
                group_commit_ms=self.config.group_commit_ms)
        self.catalog = catalog if catalog is not None else Catalog()
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self.lock = RWLock()
        #: Commit-scope barrier, ordered *before* the table locks and
        #: ``self.lock``.  Table-scoped commits hold its read side for
        #: their whole validate/log/publish span; catalog-wide commits
        #: (view DDL), ``exclusive()``, ``checkpoint()`` and ``close()``
        #: take the write side and therefore see no commit in flight.
        self.commit_barrier = RWLock()
        #: Per-name commit locks (see :class:`TableLockManager`).
        self.table_locks = TableLockManager()
        self._sessions: "weakref.WeakSet[Connection]" = weakref.WeakSet()
        self._closed = False
        # serializes close() against concurrent close()/checkpoint()
        # callers — close must run its teardown exactly once even when
        # several threads (server shutdown, a finalizer, user code) race
        self._close_lock = threading.Lock()
        self._checkpoint_thread: "threading.Thread | None" = None
        self._checkpoint_wakeup = threading.Event()
        if self.storage is not None and self.config.checkpoint_wal_mb > 0:
            # background checkpointing: the group-commit flusher flags
            # the event once the WAL outgrows the configured budget, and
            # this thread compacts it off the commit path
            self.storage.growth_threshold = \
                self.config.checkpoint_wal_mb * 1024 * 1024
            self.storage.growth_event = self._checkpoint_wakeup
            self._checkpoint_thread = threading.Thread(
                target=self._auto_checkpoint_loop,
                name="repro-checkpointer", daemon=True)
            self._checkpoint_thread.start()

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def connect(self, config: SessionConfig | None = None,
                **options: Any) -> "Connection":
        """Mint a new session over this engine's shared state.

        Keyword *options* are :class:`SessionConfig` fields overriding
        the engine's defaults for this session only::

            reader = engine.connect(default_strategy="left")
        """
        if self._closed:
            raise InterfaceError("engine is closed")
        from .connection import Connection
        if config is None:
            config = self.config
        # each session gets its own copy, so runtime mutation of one
        # session's config never leaks into its siblings (Connection
        # validates durability against the opened store)
        config = config.with_options(**options)
        return Connection(config, engine=self)

    def register(self, session: "Connection") -> None:
        """Track a live session (called by ``Connection.__init__``)."""
        self._sessions.add(session)

    def release(self, session: "Connection") -> None:
        """Forget a session (called by ``Connection.close``)."""
        self._sessions.discard(session)

    @property
    def session_count(self) -> int:
        """Number of live (unclosed) sessions on this engine."""
        return len(self._sessions)

    def close(self) -> None:
        """Close the engine and every session still open on it (a
        durable engine flushes and closes its WAL).

        Idempotent and thread-safe: concurrent close() calls run the
        teardown exactly once, and closing while other sessions are
        mid-statement is safe — open transactions are rolled back under
        each session's state lock, readers keep streaming from their
        pinned snapshots, and the WAL is closed under the write lock so
        it is never yanked out from under an in-flight commit.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        checkpointer = self._checkpoint_thread
        if checkpointer is not None:
            self._checkpoint_wakeup.set()   # observe _closed and exit
            checkpointer.join()
            self._checkpoint_thread = None
        for session in list(self._sessions):
            session.close()
        self._sessions.clear()
        self.plan_cache.clear()
        if self.storage is not None:
            # the barrier's write side drains every in-flight commit
            # (each holds the read side across its WAL flush), so the
            # store — and its flusher thread — shut down quiesced
            with self.commit_barrier.write():
                with self.lock.write():
                    self.storage.close()

    # -- durability -----------------------------------------------------------

    @property
    def path(self) -> "str | None":
        """The database directory of a durable engine, or None."""
        return None if self.storage is None else str(self.storage.path)

    def checkpoint(self) -> str:
        """Compact the WAL into a fresh snapshot (SQL: ``CHECKPOINT``).

        Runs under the commit barrier (exclusive) plus the write lock:
        no commit is mid-flush or mid-publish, so the image is a
        committed-state cut and every allocated LSN is both flushed and
        applied.  Returns the database directory.  Raises
        :class:`~repro.errors.StorageError` on an in-memory engine —
        there is nowhere to persist to (``Engine(path=...)`` /
        ``connect(path=...)`` attach one).
        """
        if self.storage is None:
            from ..errors import StorageError
            raise StorageError(
                "engine has no durable storage; open the database with "
                "Engine(path=...) or connect(path=...)")
        with self.commit_barrier.write():
            with self.lock.write():
                # re-checked under the locks: a close() racing this
                # call must not see its WAL resurrected by the
                # checkpoint
                if self._closed:
                    raise InterfaceError("engine is closed")
                self.storage.checkpoint(self.catalog)
        return str(self.storage.path)

    def _auto_checkpoint_loop(self) -> None:
        """Background checkpointer: waits for the flusher's WAL-growth
        signal and compacts without stalling committers for longer than
        one checkpoint's barrier hold."""
        from ..errors import StorageError
        while True:
            self._checkpoint_wakeup.wait()
            if self._closed:
                return
            self._checkpoint_wakeup.clear()
            try:
                self.checkpoint()
            except (InterfaceError, StorageError):
                # closed underneath us, or the store poisoned its WAL —
                # either way the foreground paths surface the error;
                # the background thread just stops compacting
                return

    # -- snapshots and transactions -------------------------------------------

    def snapshot(self) -> Catalog:
        """A consistent point-in-time catalog copy (see
        :meth:`repro.catalog.Catalog.snapshot`), captured under the read
        lock so it can never observe a half-applied commit."""
        with self.lock.read():
            return self.catalog.snapshot()

    def begin(self) -> "Transaction":
        """Open a snapshot-isolated transaction against this engine."""
        from .transaction import Transaction
        return Transaction(self)

    def commit_transaction(self, txn: "Transaction") -> None:
        """Validate and publish *txn* (the engine side of
        :meth:`Transaction.commit`).

        Lock order — the invariant every commit-path change must keep
        (checked by ``repro.analysis``, documented in
        ``docs/invariants.md``):

        1. ``commit_barrier`` — read side for a table-scoped commit,
           write side when the diff is catalog-wide (view DDL);
        2. the per-name commit locks of the transaction's conflict set,
           in :class:`TableLockManager`'s canonical sorted order;
        3. ``self.lock`` — read side while validation gathers live
           state, write side for the publish.

        Commits whose conflict sets are disjoint therefore validate,
        group-flush their WAL records and publish concurrently; losers
        of a name conflict serialize on step 2 and fail validation with
        :class:`~repro.errors.SerializationError`.
        """
        from .transaction import (compute_commit_diff, publish_commit,
                                  validate_commit)
        diff = compute_commit_diff(txn)
        if diff.catalog_wide:
            barrier = self.commit_barrier.write()
        else:
            barrier = self.commit_barrier.read()
        with barrier:
            with self.table_locks.acquire(diff.lock_keys):
                new_indexes, gone_indexes = validate_commit(
                    txn, diff, self.catalog, rlock=self.lock)
                storage = self.storage
                if storage is not None and storage.logs_commits:
                    from ..storage.wal import (collect_commit_ops,
                                               encode_commit_ops)
                    ops = collect_commit_ops(
                        txn, diff.created, diff.dropped, diff.written,
                        diff.new_views, diff.gone_views,
                        new_indexes, gone_indexes)
                    if ops:
                        # blocks until the group-commit flusher made
                        # the record durable per the durability mode; a
                        # flush failure aborts before any shared-state
                        # mutation below
                        storage.append_commit(encode_commit_ops(ops))
                with self.lock.write():
                    publish_commit(txn, diff, new_indexes, gone_indexes,
                                   self.catalog)

    def exclusive(self) -> "RWLock._Guard":
        """Full mutual exclusion against every commit *and* snapshot:
        the commit barrier (write side) plus the engine write lock, in
        the canonical outermost-first order.  The bulk-write path and
        the shell's ``\\tpch`` loader wrap multi-statement work in it;
        commits issued while holding it still succeed (both locks are
        reentrant and the table locks are free)."""
        barrier = self.commit_barrier.write()
        inner = self.lock.write()

        def acquire() -> None:
            barrier.__enter__()
            inner.__enter__()

        def release() -> None:
            inner.__exit__(None, None, None)
            barrier.__exit__(None, None, None)

        return RWLock._Guard(acquire, release)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else \
            f"{self.session_count} session(s)"
        return f"<Engine {len(self.catalog.names())} table(s), {state}>"
