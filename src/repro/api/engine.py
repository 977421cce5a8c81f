"""The shared engine core: one catalog, one plan cache, many sessions.

An :class:`Engine` owns everything that is shared between concurrent
sessions — the :class:`~repro.catalog.Catalog` (tables, views, secondary
indexes, statistics), the lock-guarded LRU plan cache, and the commit
sequencer that orders every change to them::

    from repro import Engine

    engine = Engine()
    writer = engine.connect()
    reader = engine.connect(default_strategy="left")

Concurrency model (snapshot isolation, copy-on-write):

* Readers never hold a lock while executing.  Each statement (or each
  explicit transaction) captures a :meth:`snapshot` — a cheap
  dict-level copy of the catalog that pins the current ``Relation``,
  index and statistics *objects* — under ``engine.lock``, then plans
  and executes entirely against the pinned objects.
* Writers never mutate a pinned object.  A transaction applies its
  changes to private copy-on-write table/index copies; :meth:`commit
  <commit_transaction>` queues the transaction's diff for the **commit
  leader**.  The first committer to find no leader becomes it: it
  takes the queue in batches of pairwise-disjoint conflict sets,
  validates each commit first-committer-wins against the live catalog
  (a loser gets :class:`~repro.errors.SerializationError`), logs the
  batch's WAL records with one write and one fsync, and publishes them
  under ``engine.lock`` — the lock is held only for that dict swap.
  Only the leader ever changes the catalog, so validation needs no
  lock, and no background thread exists.
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
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from ..catalog import Catalog
from ..errors import InterfaceError, StorageError
from .config import SessionConfig
from .plan_cache import PlanCache

if TYPE_CHECKING:  # pragma: no cover
    from .connection import Connection
    from .transaction import CommitDiff, Transaction


class _CommitTicket:
    """One queued commit: the transaction, its diff, and — once the
    leader has handled it — ``done`` plus the error to raise, if any."""

    __slots__ = ("txn", "diff", "keys", "indexes", "done", "error")

    def __init__(self, txn: "Transaction", diff: "CommitDiff") -> None:
        self.txn = txn
        self.diff = diff
        self.keys = diff.lock_keys
        self.indexes: tuple = ()
        self.done = False
        self.error: "BaseException | None" = None


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
                path, self.config.durability)
        self.catalog = catalog if catalog is not None else Catalog()
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        #: Orders snapshots against publishes; taken after commit
        #: leadership, never before it.
        self.lock = threading.RLock()
        # -- the commit sequencer (see commit_transaction) ---------------
        self._commit_cond = threading.Condition(threading.Lock())
        self._queue: list[_CommitTicket] = []
        self._leader: "int | None" = None    # thread id of the leader
        #: WAL bytes past which the leader checkpoints (0: never)
        self._checkpoint_bytes = (self.config.checkpoint_wal_mb
                                  * 1024 * 1024)
        self._sessions: "weakref.WeakSet[Connection]" = weakref.WeakSet()
        self._closed = False
        # serializes close() against concurrent close()/checkpoint()
        # callers — close must run its teardown exactly once even when
        # several threads (server shutdown, a finalizer, user code) race
        self._close_lock = threading.Lock()

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
        pinned snapshots, and the WAL is closed under commit leadership
        so it is never yanked out from under an in-flight batch.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for session in list(self._sessions):
            session.close()
        self._sessions.clear()
        self.plan_cache.clear()
        if self.storage is not None:
            with self.exclusive():
                self.storage.close()

    # -- durability -----------------------------------------------------------

    @property
    def path(self) -> "str | None":
        """The database directory of a durable engine, or None."""
        return None if self.storage is None else str(self.storage.path)

    def checkpoint(self) -> str:
        """Compact the WAL into a fresh snapshot (SQL: ``CHECKPOINT``).

        Runs as the commit leader plus ``engine.lock``: no batch is
        between its WAL append and its publish, so the image is a
        committed-state cut and every logged LSN is applied.  Returns
        the database directory.  Raises
        :class:`~repro.errors.StorageError` on an in-memory engine —
        there is nowhere to persist to (``Engine(path=...)`` /
        ``connect(path=...)`` attach one).
        """
        if self.storage is None:
            raise StorageError(
                "engine has no durable storage; open the database with "
                "Engine(path=...) or connect(path=...)")
        with self.exclusive():
            # re-checked under leadership: a close() racing this call
            # must not see its WAL resurrected by the checkpoint
            if self._closed:
                raise InterfaceError("engine is closed")
            self.storage.checkpoint(self.catalog)
        return str(self.storage.path)

    # -- snapshots and transactions -------------------------------------------

    def snapshot(self) -> Catalog:
        """A consistent point-in-time catalog copy (see
        :meth:`repro.catalog.Catalog.snapshot`), captured under
        ``engine.lock`` so it can never observe a half-published
        batch."""
        with self.lock:
            return self.catalog.snapshot()

    def begin(self) -> "Transaction":
        """Open a snapshot-isolated transaction against this engine."""
        from .transaction import Transaction
        return Transaction(self)

    def commit_transaction(self, txn: "Transaction") -> None:
        """Validate, log and publish *txn* (the engine side of
        :meth:`Transaction.commit`); returns once its record is durable
        per ``durability`` and published.

        The committer queues its diff.  If no thread leads, it becomes
        the leader and handles batches (:meth:`_commit_batch`) until its
        own commit is done, plus one more, then steps down.  Otherwise it sleeps until
        a leader has handled its ticket, or leadership is free.  A commit made by the thread that
        holds :meth:`exclusive` is already the leader and runs alone,
        inline.  Lock order (``docs/invariants.md``): commit leadership,
        then ``engine.lock``.
        """
        from .transaction import compute_commit_diff
        ticket = _CommitTicket(txn, compute_commit_diff(txn))
        me = threading.get_ident()
        if self._leader == me:
            self._commit_batch([ticket])
        else:
            cond = self._commit_cond
            with cond:
                self._queue.append(ticket)
                while not ticket.done and self._leader is not None:
                    cond.wait()
                if not ticket.done:
                    self._leader = me
            if self._leader == me:
                self._lead(ticket)
        if ticket.error is not None:
            raise ticket.error

    def _lead(self, own: _CommitTicket) -> None:
        """Handle batches until *own* is done, plus one more — the
        commits that queued during its last fsync, handled at once
        instead of after a thread wake-up — then step down and wake the
        queue: a waiter whose ticket is still queued takes over.  So no
        thread leads for long and :meth:`exclusive` cannot starve
        behind a busy queue.  If a batch raises, the leader withdraws
        its own ticket (when still queued) before stepping down."""
        cond = self._commit_cond
        try:
            while not own.done:
                with cond:
                    batch = self._next_batch()
                self._commit_batch(batch)
            with cond:
                batch = self._next_batch()
            if batch:
                self._commit_batch(batch)
        finally:
            with cond:
                if own in self._queue:
                    self._queue.remove(own)
                self._leader = None
                cond.notify_all()

    def _next_batch(self) -> list[_CommitTicket]:
        """Pop the longest queue prefix whose conflict sets are pairwise
        disjoint; a catalog-wide diff (view DDL) is a batch of its own.
        Conflicting commits therefore land in different batches, and
        the later one validates against the published winner.  Caller
        holds ``_commit_cond``."""
        batch: list[_CommitTicket] = []
        taken: set[str] = set()
        for ticket in self._queue:
            if batch and (ticket.diff.catalog_wide
                          or batch[0].diff.catalog_wide
                          or not taken.isdisjoint(ticket.keys)):
                break
            batch.append(ticket)
            taken.update(ticket.keys)
        del self._queue[:len(batch)]
        return batch

    def _commit_batch(self, batch: list[_CommitTicket]) -> None:
        """The leader's work for one batch: validate each commit, append
        each WAL record, one write + fsync for all of them, publish
        them under ``engine.lock``, wake their committers — then
        checkpoint if the WAL is over ``checkpoint_wal_mb``.

        A failed flush fails every commit in the batch with
        :class:`~repro.errors.StorageError` before any of them
        publishes."""
        from ..storage.wal import collect_commit_ops, encode_commit_ops
        from .transaction import publish_commit, validate_commit
        storage = self.storage
        logged = storage is not None and storage.logs_commits
        try:
            ready = []
            for ticket in batch:
                txn, diff = ticket.txn, ticket.diff
                try:
                    ticket.indexes = validate_commit(txn, diff,
                                                     self.catalog)
                    if logged:
                        ops = collect_commit_ops(
                            txn, diff.created, diff.dropped, diff.written,
                            diff.new_views, diff.gone_views,
                            *ticket.indexes)
                        if ops:
                            storage.append_commit(encode_commit_ops(ops))
                except Exception as exc:   # raised in the committer
                    ticket.error = exc
                else:
                    ready.append(ticket)
            if logged:
                try:
                    storage.flush()
                except StorageError as exc:
                    for ticket in ready:
                        ticket.error = StorageError(str(exc))
                    ready = []
            with self.lock:
                for ticket in ready:
                    publish_commit(ticket.txn, ticket.diff,
                                   *ticket.indexes, self.catalog)
        except BaseException as exc:
            if storage is not None:
                storage.discard_staged()
            for ticket in batch:
                if ticket.error is None:
                    ticket.error = exc
            raise
        finally:
            with self._commit_cond:
                for ticket in batch:
                    ticket.done = True
                self._commit_cond.notify_all()
        if logged and self._checkpoint_bytes and \
                storage.bytes_since_checkpoint >= self._checkpoint_bytes:
            try:
                self.checkpoint()
            except (InterfaceError, StorageError, OSError):
                # the batch is durable and published already; a closed
                # engine or a failing compaction stops auto-checkpoints
                # and an explicit CHECKPOINT surfaces the error
                self._checkpoint_bytes = 0

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Full mutual exclusion against every commit *and* snapshot:
        commit leadership plus ``engine.lock``, in that order.  The
        bulk-write path and the shell's ``\\tpch`` loader wrap
        multi-statement work in it; commits (and checkpoints) issued
        while holding it run inline as the leader."""
        me = threading.get_ident()
        if self._leader == me:
            with self.lock:
                yield
            return
        cond = self._commit_cond
        with cond:
            while self._leader is not None:
                cond.wait()
            self._leader = me
        try:
            with self.lock:
                yield
        finally:
            with cond:
                self._leader = None
                cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else \
            f"{self.session_count} session(s)"
        return f"<Engine {len(self.catalog.names())} table(s), {state}>"
