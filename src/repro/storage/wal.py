"""The write-ahead log: committed write-sets as replayable logical ops.

Each committed transaction appends **one** CRC32-framed record
(:mod:`repro.storage.codec`), so transaction atomicity and record
atomicity coincide: a torn tail record is an uncommitted transaction
and is discarded wholesale on recovery — the database reopens exactly
as of the last fully-written commit.

A record's payload is ``varint LSN`` + ``varint op count`` + the ops.
Ops are *logical*, not physical: row changes travel as bag deltas
(deleted rows + inserted rows against the pre-transaction contents), so
a small DML against a big table logs only its delta, and DDL travels as
definitions (an index op stores name/table/column/kind/unique and is
rebuilt from the replayed rows, never its internal structure).

Op set::

    1  create_table  name, schema, rows
    2  drop_table    name
    3  rows_delta    name, deleted rows, inserted rows
    4  create_view   name, pickled parsed SELECT
    5  drop_view     name
    6  create_index  name, table, column, kind, unique
    7  drop_index    name
    8  put_stats     TableStats
    9  set_partition name, column, count  (hash-partitioning declaration)

Replay applies ops in record order through the plain
:class:`~repro.catalog.Catalog` mutators; after a ``rows_delta`` the
table's indexes are rebuilt from the resulting rows (replay is offline,
single-threaded, and a committed transaction's ops cannot re-raise
integrity errors they already passed once).
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from ..catalog import Catalog
from ..errors import StorageError
from .codec import (
    decode_rows, decode_schema, decode_str, decode_table_stats,
    decode_varint, dumps_ast, encode_rows, encode_schema, encode_str,
    encode_table_stats, encode_varint, loads_ast,
)

WAL_MAGIC = b"RPROWL01"

_OP_CREATE_TABLE = 1
_OP_DROP_TABLE = 2
_OP_ROWS_DELTA = 3
_OP_CREATE_VIEW = 4
_OP_DROP_VIEW = 5
_OP_CREATE_INDEX = 6
_OP_DROP_INDEX = 7
_OP_PUT_STATS = 8
_OP_SET_PARTITION = 9


# -- building ops ------------------------------------------------------------

_PACK_FLOAT = struct.Struct("<d").pack


def _delta_key(row: tuple) -> tuple:
    """Bit-exact multiset identity for delta matching.

    Python equality is too coarse for durability: ``1 == 1.0 == True``
    and ``float('nan') != float('nan')``, so an equality-keyed delta
    either logs nothing for a type-changing rewrite or can never be
    re-matched against the bit-exactly decoded rows on replay.  Keying
    by (type name, float bit pattern | value) makes commit-time and
    replay-time agree on exactly the codec's notion of sameness.
    """
    return tuple(
        (t.__name__, _PACK_FLOAT(value) if t is float else value)
        for value in row for t in (type(value),))


def bag_delta(old_rows: Sequence[tuple],
              new_rows: Sequence[tuple]) -> tuple[list[tuple], list[tuple]]:
    """``(deleted, inserted)`` multiset difference between two row lists.

    DML only appends and filters, so replaying "remove the deleted
    multiset, append the inserted rows" over the old list reproduces the
    committed contents (rows with equal :func:`_delta_key` are
    interchangeable).  The O(|old| + |new|) fallback for write-sets the
    transaction did not track row by row.
    """
    counts: dict[tuple, list] = {}
    for row in new_rows:
        key = _delta_key(row)
        entry = counts.get(key)
        if entry is None:
            counts[key] = [1, row]
        else:
            entry[0] += 1
    for row in old_rows:
        key = _delta_key(row)
        entry = counts.get(key)
        if entry is None:
            counts[key] = [-1, row]
        else:
            entry[0] -= 1
    deleted: list[tuple] = []
    inserted: list[tuple] = []
    for surplus, row in counts.values():
        if surplus > 0:
            inserted.extend([row] * surplus)
        elif surplus < 0:
            deleted.extend([row] * (-surplus))
    return deleted, inserted


def net_delta(deleted: Sequence[tuple],
              inserted: Sequence[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Cancel rows inserted and later deleted inside one transaction.

    The tracked write-set logs every DML row it touched; a row both
    inserted and deleted in the same transaction must net out, because
    replay matches deletions against the *pre-transaction* table.
    O(|delta|).
    """
    if not deleted or not inserted:
        return list(deleted), list(inserted)
    available: dict[tuple, int] = {}
    for row in inserted:
        key = _delta_key(row)
        available[key] = available.get(key, 0) + 1
    kept_deleted: list[tuple] = []
    cancelled: dict[tuple, int] = {}
    for row in deleted:
        key = _delta_key(row)
        if available.get(key, 0) > 0:
            available[key] -= 1
            cancelled[key] = cancelled.get(key, 0) + 1
        else:
            kept_deleted.append(row)
    kept_inserted: list[tuple] = []
    for row in inserted:
        key = _delta_key(row)
        if cancelled.get(key, 0) > 0:
            cancelled[key] -= 1
        else:
            kept_inserted.append(row)
    return kept_deleted, kept_inserted


def encode_commit_ops(ops: list[tuple]) -> bytes:
    """Encode a commit's op list (without the LSN prefix — the store
    prepends it when the record is sequenced)."""
    out = bytearray()
    encode_varint(out, len(ops))
    for op in ops:
        kind = op[0]
        if kind == "create_table":
            _, name, schema, rows = op
            out.append(_OP_CREATE_TABLE)
            encode_str(out, name)
            encode_schema(out, schema)
            encode_rows(out, rows)
        elif kind == "drop_table":
            out.append(_OP_DROP_TABLE)
            encode_str(out, op[1])
        elif kind == "rows_delta":
            _, name, deleted, inserted = op
            out.append(_OP_ROWS_DELTA)
            encode_str(out, name)
            encode_rows(out, deleted)
            encode_rows(out, inserted)
        elif kind == "create_view":
            _, name, query = op
            out.append(_OP_CREATE_VIEW)
            encode_str(out, name)
            body = dumps_ast(query)
            encode_varint(out, len(body))
            out += body
        elif kind == "drop_view":
            out.append(_OP_DROP_VIEW)
            encode_str(out, op[1])
        elif kind == "create_index":
            _, name, table, column, index_kind, unique = op
            out.append(_OP_CREATE_INDEX)
            encode_str(out, name)
            encode_str(out, table)
            encode_str(out, column)
            encode_str(out, index_kind)
            out.append(1 if unique else 0)
        elif kind == "drop_index":
            out.append(_OP_DROP_INDEX)
            encode_str(out, op[1])
        elif kind == "put_stats":
            out.append(_OP_PUT_STATS)
            encode_table_stats(out, op[1])
        elif kind == "set_partition":
            _, name, column, count = op
            out.append(_OP_SET_PARTITION)
            encode_str(out, name)
            encode_str(out, column)
            encode_varint(out, count)
        else:
            raise StorageError(f"unknown commit op {kind!r}")
    return bytes(out)


# -- replaying ops -----------------------------------------------------------

# repro: allow(lock-discipline) - replay mutates a catalog that is
# private to the recovery pass: DurableStore.open rebuilds it before
# the Engine exists or any session can see it.
def _apply_rows_delta(catalog: Catalog, name: str,
                      deleted: list[tuple], inserted: list[tuple],
                      dirty: "set[str] | None") -> None:
    relation = catalog.get(name)
    if deleted:
        remaining: dict[tuple, int] = {}
        for row in deleted:
            key = _delta_key(row)
            remaining[key] = remaining.get(key, 0) + 1
        pending = len(deleted)
        rows = []
        for position, row in enumerate(relation.rows):
            key = _delta_key(row)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                pending -= 1
                if not pending:
                    # all deletions matched: adopt the rest un-keyed,
                    # so a small delete costs O(matched prefix + delta)
                    rows.extend(relation.rows[position + 1:])
                    break
            else:
                rows.append(row)
        if pending:
            raise StorageError(
                f"WAL rows_delta for table {name!r} deletes rows the "
                f"table does not hold (log and snapshot disagree)")
    else:
        rows = list(relation.rows)
    rows.extend(inserted)
    relation.rows = rows
    if dirty is None:
        for index in catalog.indexes_on(name):
            index.build(rows)
    else:
        # recovery replays many records back to back and nothing reads
        # the indexes in between: note the table and let the caller
        # rebuild each index once, after the last record
        dirty.add(name)
    catalog._bump_data(name)


def rebuild_dirty_indexes(catalog: Catalog, dirty: "set[str]") -> None:
    """Rebuild the indexes of every replayed-into table, once each —
    the deferred half of the replay-time ``dirty`` optimization."""
    for name in dirty:
        if name not in catalog:
            continue            # dropped (or replaced) later in the log
        rows = catalog.get(name).rows
        for index in catalog.indexes_on(name):
            index.build(rows)


# repro: allow(lock-discipline) - same as _apply_rows_delta: the
# catalog being replayed into is recovery-private, not yet shared.
def apply_commit_ops(catalog: Catalog, payload: "bytes | memoryview",
                     pos: int,
                     dirty: "set[str] | None" = None) -> None:
    """Replay one commit record's ops (payload after the LSN) onto
    *catalog*.

    With *dirty*, row deltas skip per-record index maintenance and add
    the table name to the set instead; the caller must finish with
    :func:`rebuild_dirty_indexes` — O(commits × delta) recovery instead
    of O(commits × table size)."""
    count, pos = decode_varint(payload, pos)
    for _ in range(count):
        if pos >= len(payload):
            raise StorageError("truncated commit op")
        op = payload[pos]
        pos += 1
        if op == _OP_CREATE_TABLE:
            name, pos = decode_str(payload, pos)
            schema, pos = decode_schema(payload, pos)
            rows, pos = decode_rows(payload, pos)
            from ..relation import Relation
            catalog.install_table(
                name, Relation.from_trusted_rows(schema, rows))
        elif op == _OP_DROP_TABLE:
            name, pos = decode_str(payload, pos)
            catalog.drop(name)
        elif op == _OP_ROWS_DELTA:
            name, pos = decode_str(payload, pos)
            deleted, pos = decode_rows(payload, pos)
            inserted, pos = decode_rows(payload, pos)
            _apply_rows_delta(catalog, name, deleted, inserted, dirty)
        elif op == _OP_CREATE_VIEW:
            name, pos = decode_str(payload, pos)
            length, pos = decode_varint(payload, pos)
            if pos + length > len(payload):
                raise StorageError("truncated view op")
            query = loads_ast(bytes(payload[pos:pos + length]))
            pos += length
            catalog.create_view(name, query)
        elif op == _OP_DROP_VIEW:
            name, pos = decode_str(payload, pos)
            catalog.drop_view(name)
        elif op == _OP_CREATE_INDEX:
            name, pos = decode_str(payload, pos)
            table, pos = decode_str(payload, pos)
            column, pos = decode_str(payload, pos)
            index_kind, pos = decode_str(payload, pos)
            if pos >= len(payload):
                raise StorageError("truncated index op")
            unique = payload[pos] != 0
            pos += 1
            catalog.create_index(name, table, column, kind=index_kind,
                                 unique=unique)
        elif op == _OP_DROP_INDEX:
            name, pos = decode_str(payload, pos)
            catalog.drop_index(name)
        elif op == _OP_PUT_STATS:
            stats, pos = decode_table_stats(payload, pos)
            catalog.stats.put(stats.table, stats)
        elif op == _OP_SET_PARTITION:
            name, pos = decode_str(payload, pos)
            column, pos = decode_str(payload, pos)
            count, pos = decode_varint(payload, pos)
            catalog.set_partition(name, column, count)
        else:
            raise StorageError(f"unknown WAL op 0x{op:02x}")


def collect_commit_ops(txn: Any, created: list, dropped: list,
                       written: list, new_views: list, gone_views: list,
                       new_indexes: list, gone_indexes: list
                       ) -> list[tuple]:
    """The logical write-set of a validated transaction, as replayable
    ops.

    Consumes the diff :func:`repro.api.transaction.compute_commit_diff`
    computed and :func:`~repro.api.transaction.validate_commit` refined
    (the recovered catalog must equal the live one op for op, so there
    is exactly one diff), and only adds what replay needs that the
    apply does not: row deltas for written tables, and the definitions
    of indexes the apply installs implicitly via table swaps.  Replay
    order mirrors the apply order — table drops, index drops, table
    creates (with their indexes), row deltas, views, index creates,
    statistics."""
    private = txn.catalog
    final_tables = private._tables
    dropped_set = set(dropped)
    created_set = set(created)

    ops: list[tuple] = []
    for key in dropped:
        ops.append(("drop_table", key))
    for name, _swapped in gone_indexes:
        if txn._base_indexes[name].table in dropped_set:
            continue        # vanished with its table's drop op
        ops.append(("drop_index", name))
    for key in created:
        relation = final_tables[key]
        ops.append(("create_table", key, relation.schema, relation.rows))
        declared = private.partition_of(key)
        if declared is not None:
            ops.append(("set_partition", key, declared[0], declared[1]))
        for index in private.indexes_on(key):
            ops.append(("create_index", index.name, index.table,
                        index.column, index.kind, index.unique))
    for key in written:
        tracked = txn._wal_deltas.get(key)
        if tracked is not None:
            deleted, inserted = net_delta(tracked[0], tracked[1])
        else:
            # privatized through a path that did not track its rows:
            # diff the whole table (correct, just not O(delta))
            deleted, inserted = bag_delta(txn._base_tables[key].rows,
                                          final_tables[key].rows)
        if deleted or inserted:
            ops.append(("rows_delta", key, deleted, inserted))

    for name in gone_views:
        ops.append(("drop_view", name))
    for name, query in new_views:
        ops.append(("create_view", name, query))

    for index, _swapped in new_indexes:
        if index.table in created_set:
            continue        # logged with its table's create op
        ops.append(("create_index", index.name, index.table,
                    index.column, index.kind, index.unique))

    finally_gone = dropped_set - created_set
    for table, stats in private.stats._stats.items():
        if table in finally_gone:
            continue
        if txn._base_stats.get(table) is not stats:
            ops.append(("put_stats", stats))
    return ops
