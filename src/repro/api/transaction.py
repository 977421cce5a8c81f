"""Snapshot-isolated transactions over a shared :class:`Engine`.

A :class:`Transaction` owns a private snapshot of the engine's catalog
(:meth:`repro.catalog.Catalog.snapshot` — copied dicts, shared
``Relation``/index/statistics objects).  All of the transaction's reads
and writes go through that private catalog:

* the first write to a table **privatizes** it — the rows list is copied
  and every index on it is cloned, so mutations never touch the objects
  concurrent readers have pinned (copy-on-write);
* DDL (CREATE/DROP of tables, views, indexes; ANALYZE) applies to the
  private catalog directly, visible to this transaction only.

``commit()`` hands the transaction to the engine's commit leader, which
validates *first-committer-wins* against the per-table data generations
captured at snapshot time and then **swaps** the private objects into
the shared catalog under ``engine.lock``.  A conflict raises
:class:`~repro.errors.SerializationError` and leaves the shared state
untouched; ``rollback()`` (or an abandoned transaction) simply discards
the private snapshot — tables, indexes and statistics all revert for
free because they were never changed.

The commit's change set is computed by *identity diff* against the
snapshot: a table whose ``Relation`` object differs from the snapshot's
was written (privatized); names present on one side only were created or
dropped.  Explicit op tracking is only needed for the drop-then-recreate
corner, which must behave as DDL (plan invalidation), not as a data swap.

On a durable engine (``Engine(path=...)``) the validated write-set is
additionally appended to the write-ahead log — and, in ``"commit"``
durability, fsynced — before the in-memory apply, so every published
commit is recoverable (:mod:`repro.storage.wal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..catalog import Catalog
from ..errors import CatalogError, SerializationError, TransactionError
from ..relation import Relation
from ..schema import Schema
from ..storage.index import SecondaryIndex, build_index

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class Transaction:
    """One snapshot-isolated unit of work (see the module docstring)."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: the private catalog this transaction reads from and writes to
        self.catalog: Catalog = engine.snapshot()
        self._base_tables = dict(self.catalog._tables)
        self._base_views = dict(self.catalog._views)
        self._base_indexes = dict(self.catalog._indexes)
        self._base_stats = dict(self.catalog.stats._stats)
        self._base_data_versions = self.catalog.data_versions()
        self._base_catalog_version = self.catalog.version
        self._base_stats_version = self.catalog.stats_version
        self._recreated: set[str] = set()   # dropped-then-recreated names
        # Row-level write-set, tracked only when commits are WAL-logged:
        # table -> (deleted rows, inserted rows).  Lets the commit log a
        # big table's small DML in O(delta) instead of re-diffing the
        # whole table under the write lock.
        storage = engine.storage
        self._track_wal = storage is not None and storage.logs_commits
        self._wal_deltas: dict[str, tuple[list, list]] = {}
        self._finished = False

    # -- state ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def diverged(self) -> bool:
        """True once the transaction performed private DDL or ANALYZE —
        its plans must stop sharing the engine-wide plan cache, whose
        keys are only meaningful for states the live catalog has had."""
        return (self.catalog.version != self._base_catalog_version
                or self.catalog.stats_version != self._base_stats_version)

    def _check_active(self) -> None:
        if self._finished:
            raise TransactionError("transaction is already finished")

    # -- write operations (against the private catalog) ------------------------

    def table_for_write(self, name: str) -> Relation:
        """The private, mutation-safe copy of *name* (copy-on-write).

        Callers must treat the returned relation's ``rows`` *list* as
        immutable once a statement finished: DML rebinds ``rows`` to a
        fresh list instead of mutating in place, so the transaction's
        own still-streaming results (whose scans captured the previous
        list at ``open``) are never torn by a later statement.
        """
        self._check_active()
        key = name.lower()
        stored = self.catalog.get(key)
        if stored is not self._base_tables.get(key):
            return stored           # created in-txn, or already privatized
        private = Relation.from_trusted_rows(stored.schema,
                                             list(stored.rows))
        clones = [index.clone() for index in self.catalog.indexes_on(key)]
        self.catalog.swap_table(key, private, clones)
        return private

    def insert_rows(self, name: str,
                    rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows with statement-level atomicity: on any failure
        (unique violation, arity mismatch) every row this statement
        already inserted is backed out of the private indexes and the
        table is left exactly as before the statement — also inside an
        explicit transaction, whose earlier statements survive."""
        stored = self.table_for_write(name)
        indexes = self.catalog.indexes_on(name)
        new_rows = list(stored.rows)
        added: list[tuple] = []
        try:
            for row in rows:
                coerced = Relation._coerce(stored.schema, row)
                if indexes:
                    self.catalog.note_insert(name, (coerced,), indexes)
                new_rows.append(coerced)
                added.append(coerced)
        except BaseException:
            for row in reversed(added):
                for index in indexes:
                    index.remove(row)
            raise
        stored.rows = new_rows      # rebind: open streams keep the old list
        if self._track_wal:
            self._wal_deltas.setdefault(
                name.lower(), ([], []))[1].extend(added)
        return len(added)

    def delete_rows(self, name: str, removed: list[tuple]) -> None:
        """Index-maintenance hook after the caller filtered the private
        table's rows in place."""
        self._check_active()
        self.catalog.note_delete(name, removed)
        if self._track_wal:
            self._wal_deltas.setdefault(
                name.lower(), ([], []))[0].extend(removed)

    def create_table(self, name: str, schema: Schema,
                     rows: Iterable[tuple] = (),
                     partition: tuple[str, int] | None = None) -> None:
        """Create a table privately; *partition* is the optional
        ``PARTITION BY HASH(column) PARTITIONS count`` declaration."""
        self._check_active()
        key = name.lower()
        existed_in_base = key in self._base_tables
        self.catalog.create(key, schema, rows)
        if partition is not None:
            self.catalog.set_partition(key, partition[0], partition[1])
        if existed_in_base:
            self._recreated.add(key)

    def drop_table(self, name: str) -> None:
        self._check_active()
        self.catalog.drop(name)

    def run_ddl(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Apply a catalog DDL method (``create_view`` / ``drop_view`` /
        ``create_index`` / ``drop_index`` / ``analyze``) privately."""
        self._check_active()
        return getattr(self.catalog, method)(*args, **kwargs)

    # -- finishing ------------------------------------------------------------

    def commit(self) -> None:
        """Validate and publish this transaction's changes atomically.

        The engine drives the commit (see
        :meth:`repro.api.engine.Engine.commit_transaction`): its commit
        leader validates first-committer-wins, logs the WAL record with
        the rest of its batch, and publishes under ``engine.lock``.  A
        loser raises
        :class:`~repro.errors.SerializationError` and leaves the shared
        state untouched."""
        self._check_active()
        try:
            self.engine.commit_transaction(self)
        finally:
            self._finished = True

    def rollback(self) -> None:
        """Discard the private snapshot; shared state was never touched."""
        self._finished = True


# ---------------------------------------------------------------------------
# Commit, in three phases driven by Engine.commit_transaction:
#   compute_commit_diff — pure diff of the private snapshot, on the
#                         committer's own thread,
#   validate_commit     — first-committer-wins checks against the live
#                         catalog, on the commit leader,
#   publish_commit      — the apply step, on the leader under engine.lock.
# ---------------------------------------------------------------------------

def same_index_def(left: "SecondaryIndex",
                   right: "SecondaryIndex") -> bool:
    """Whether two same-named index objects define the same index.

    The commit diff cannot use object identity alone — privatizing a
    written table *clones* its indexes — so an index counts as changed
    only when its definition does.  Shared with the WAL writer, which
    must log exactly the drops/creates the live apply performs.
    """
    return (left.table == right.table and left.column == right.column
            and left.kind == right.kind and left.unique == right.unique)

@dataclass
class CommitDiff:
    """One transaction's private write-set, as names.

    Computed by :func:`compute_commit_diff` from the transaction's own
    snapshot only — no live-catalog reads — so the committer can build
    it before it queues for the commit leader.
    """

    created: list[str]
    dropped: list[str]
    written: list[str]
    new_views: list[tuple[str, Any]]
    gone_views: list[str]
    #: private index objects whose definition is new or changed vs base
    added_indexes: list[SecondaryIndex]
    #: (name, base index) pairs dropped or replaced by this transaction
    removed_indexes: list[tuple[str, SecondaryIndex]]
    #: tables whose statistics this transaction re-ANALYZEd
    stats_tables: list[str]

    @property
    def touched(self) -> set[str]:
        """Tables whose live entry the publish will swap or install."""
        return set(self.created) | set(self.written)

    @property
    def catalog_wide(self) -> bool:
        """View DDL rewrites name→AST bindings that *every* concurrent
        commit validates against by identity; the leader commits it in
        a batch of its own."""
        return bool(self.new_views or self.gone_views)

    @property
    def lock_keys(self) -> set[str]:
        """The conflict set: ``t:<table>`` for each table
        written/dropped/created/re-ANALYZEd or carrying index DDL, plus
        ``i:<index>`` for each index name created or dropped (two
        transactions creating the same index name on *different* tables
        must still conflict).  Commits whose sets intersect never share
        a batch."""
        keys = {f"t:{name}" for name in self.created}
        keys.update(f"t:{name}" for name in self.dropped)
        keys.update(f"t:{name}" for name in self.written)
        keys.update(f"t:{name}" for name in self.stats_tables)
        for index in self.added_indexes:
            keys.add(f"t:{index.table}")
            keys.add(f"i:{index.name}")
        for name, index in self.removed_indexes:
            keys.add(f"t:{index.table}")
            keys.add(f"i:{name}")
        return keys


def compute_commit_diff(txn: Transaction) -> CommitDiff:
    """Identity-diff the transaction's private catalog against its
    snapshot baseline (see the module docstring for why identity is the
    right equality here)."""
    private = txn.catalog
    final_tables = private._tables
    created = [k for k in final_tables
               if k not in txn._base_tables or k in txn._recreated]
    dropped = [k for k in txn._base_tables
               if k not in final_tables or k in txn._recreated]
    written = [k for k, rel in final_tables.items()
               if k in txn._base_tables and k not in txn._recreated
               and rel is not txn._base_tables[k]]
    new_views = [(name, query) for name, query in private._views.items()
                 if txn._base_views.get(name) is not query]
    gone_views = [name for name in txn._base_views
                  if name not in private._views]
    added_indexes = []
    for name, index in private._indexes.items():
        base = txn._base_indexes.get(name)
        if base is not None and same_index_def(base, index):
            continue    # pre-existing index, or its copy-on-write clone
        added_indexes.append(index)
    removed_indexes = []
    for name, index in txn._base_indexes.items():
        survivor = private._indexes.get(name)
        if survivor is not None and same_index_def(survivor, index):
            continue    # kept (possibly as a clone), not dropped/replaced
        removed_indexes.append((name, index))
    # stats only for tables that are not *finally* gone — a
    # dropped-and-recreated table's in-txn ANALYZE must publish
    finally_gone = set(dropped) - set(created)
    stats_tables = [table for table, stats in private.stats._stats.items()
                    if table not in finally_gone
                    and txn._base_stats.get(table) is not stats]
    return CommitDiff(created=created, dropped=dropped, written=written,
                      new_views=new_views, gone_views=gone_views,
                      added_indexes=added_indexes,
                      removed_indexes=removed_indexes,
                      stats_tables=stats_tables)


def validate_commit(
    txn: Transaction, diff: CommitDiff, live: Catalog,
) -> tuple[list[tuple[SecondaryIndex, bool]], list[tuple[str, bool]]]:
    """First-committer-wins validation against the live catalog.

    Runs on the commit leader, the only thread that changes the live
    catalog, so it reads without a lock.  Returns ``(new_indexes,
    gone_indexes)`` for :func:`publish_commit`: index objects (rebuilt
    where needed) paired with their installed-via-table-swap flag.  Any
    conflict raises :class:`~repro.errors.SerializationError`.
    """
    new_indexes: list[tuple[SecondaryIndex, bool]] = []
    gone_indexes: list[tuple[str, bool]] = []
    touched = diff.touched
    dropped = set(diff.dropped)
    for key in set(diff.written) | dropped:
        if key not in live:
            raise SerializationError(
                f"could not serialize access: table {key!r} was "
                f"concurrently dropped")
        if live.data_version(key) != txn._base_data_versions.get(key, 0):
            raise SerializationError(
                f"could not serialize access: table {key!r} was "
                f"concurrently updated")
        # swapping/dropping this table replaces its index list
        # wholesale with the snapshot-era (plus in-txn) objects —
        # concurrent index DDL on it would be silently undone, so it
        # must conflict
        base_ids = {id(ix) for ix in txn._base_indexes.values()
                    if ix.table == key}
        live_ids = {id(ix) for ix in live.indexes_on(key)}
        if base_ids != live_ids:
            raise SerializationError(
                f"could not serialize access: indexes on table "
                f"{key!r} were concurrently changed")
    for key in diff.created:
        if key in live and key not in dropped:
            raise SerializationError(
                f"could not serialize access: table {key!r} was "
                f"concurrently created")
    for name, _ in diff.new_views:
        base_query = txn._base_views.get(name)
        live_query = live._views.get(name)
        if base_query is None:
            if live_query is not None:
                raise SerializationError(
                    f"could not serialize access: view {name!r} was "
                    f"concurrently created")
        elif live_query is not base_query:
            raise SerializationError(
                f"could not serialize access: view {name!r} was "
                f"concurrently replaced or dropped")
    for name in diff.gone_views:
        if live._views.get(name) is not txn._base_views.get(name):
            raise SerializationError(
                f"could not serialize access: view {name!r} was "
                f"concurrently replaced or dropped")
    for index in diff.added_indexes:
        base = txn._base_indexes.get(index.name)
        if base is None and index.name in live._indexes:
            raise SerializationError(
                f"could not serialize access: index {index.name!r} was "
                f"concurrently created")
        if index.table in touched:
            new_indexes.append((index, True))  # installed via swap
            continue
        if live.data_version(index.table) != \
                txn._base_data_versions.get(index.table, 0):
            # the indexed table moved under us: rebuild over the live
            # rows, so a unique violation surfaces as a conflict rather
            # than failing mid-apply
            try:
                index = build_index(
                    index.kind, index.name, index.table, index.column,
                    index.position, live.get(index.table).rows,
                    index.unique)
            except CatalogError as exc:
                raise SerializationError(
                    f"could not serialize access: {exc}") from exc
        new_indexes.append((index, False))
    for name, index in diff.removed_indexes:
        if index.table in touched or index.table in dropped:
            gone_indexes.append((name, True))  # removed via swap/drop
            continue
        live_index = live._indexes.get(name)
        if live_index is None:
            raise SerializationError(
                f"could not serialize access: index {name!r} was "
                f"concurrently dropped")
        if not same_index_def(live_index, index):
            # definition, not just presence: a concurrent transaction
            # replaced the index — dropping the *name* would clobber its
            # committed definition (first-committer-wins).  A mere clone
            # (concurrent DML on the table) keeps the definition and may
            # be dropped.
            raise SerializationError(
                f"could not serialize access: index {name!r} was "
                f"concurrently replaced")
        gone_indexes.append((name, False))
    return new_indexes, gone_indexes


def publish_commit(txn: Transaction, diff: CommitDiff,
                   new_indexes: list[tuple[SecondaryIndex, bool]],
                   gone_indexes: list[tuple[str, bool]],
                   live: Catalog) -> None:
    """The apply step — it cannot fail halfway: everything that *could*
    fail ran in :func:`validate_commit`.  The caller is the commit
    leader that validated *diff*, and holds ``engine.lock``.

    Index drops run before installs so that a replaced index name
    (``DROP INDEX i; CREATE INDEX i ON other...``) frees its entry
    first."""
    private = txn.catalog
    final_tables = private._tables
    for key in diff.dropped:
        live.drop(key)
    for name, swapped in gone_indexes:
        if swapped:
            live.bump_ddl()
        else:
            live.drop_index(name)
    for key in diff.created:
        live.install_table(key, final_tables[key],
                           private.indexes_on(key))
        declared = private.partition_of(key)
        if declared is not None:
            live.set_partition(key, declared[0], declared[1])
    for key in diff.written:
        live.swap_table(key, final_tables[key], private.indexes_on(key))
    for name, query in diff.new_views:
        live.create_view(name, query)
    for name in diff.gone_views:
        live.drop_view(name)
    for index, swapped in new_indexes:
        if swapped:
            live.bump_ddl()
        else:
            live.install_index(index)
    for table in diff.stats_tables:
        live.stats.put(table, private.stats._stats[table])
