"""Intra-query parallelism: hash-partitioned tables and exchange
operators over a persistent ``multiprocessing`` worker pool.

Three moving parts:

* **Hash partitioning** — ``CREATE TABLE t (...) PARTITION BY HASH(col)
  PARTITIONS n`` records ``(col, n)`` in the catalog.  Partition
  membership is ``stable_hash(value) % n`` (:func:`stable_hash` is
  process-independent, unlike ``hash(str)`` under hash randomization —
  every worker must agree).  Partitions are *virtual over the stored row
  order*: :func:`partition_map` lazily computes (and caches, keyed by the
  Relation's row-list identity — commits swap row lists wholesale, so
  identity is a correct cache key) the ascending row-index list of each
  partition.  The map is the unit of parallelism here and of sharding
  later.

* **Exchange operators** — :class:`Gather` is the parent-side exchange:
  it replaces a parallelizable subtree at lowering time (the serial
  subtree is kept as its child, for EXPLAIN and as the fallback path)
  and fans the work out at execution time.  Four fragment shapes:

  - ``scan``      — Filter/Project pipelines over one base table,
                    split into contiguous row slices; concatenating the
                    worker outputs in slice order reproduces the serial
                    output exactly.
  - ``twophase``  — partial -> final HashAggregate: workers aggregate
                    their slice into per-group accumulator *states*
                    (:meth:`~repro.expressions.aggregates.Accumulator.
                    state`), the parent merges states and emits finals.
  - ``repartition`` — the shuffle: the parent hash-buckets base rows by
                    group key and ships each bucket to one worker, which
                    runs the *full* aggregation on its bucket.  Groups
                    are disjoint across workers, so no merge — and every
                    group is folded in serial row order, which keeps
                    even floating-point aggregates bit-identical.
  - ``partition`` — partition-wise aggregation: like ``repartition``
                    but the grouping key includes the table's hash-
                    partitioning column, so the buckets *are* the stored
                    partitions and nothing needs to be shipped per query.

  In every aggregate shape the workers report each group's first
  surviving global row index; the parent emits groups in ascending
  first-occurrence order — exactly the serial engine's dict-insertion
  order.  :class:`PartitionScan` is the serial partition-pruning scan:
  an equality filter on the partition column reads one partition's index
  list instead of the whole table (the filter stays above it — hash
  collisions share a partition).

* **The worker pool** — a process-global pool of fork-spawned daemon
  workers, one duplex pipe each.  Tables travel once per (worker,
  table-version) as columnar codec blocks (the snapshot wire format) and
  are cached worker-side; fragment *specs* (pickled expression ASTs —
  never compiled closures) also ship once and are cached, so a warm
  repeated query ships only slice bounds and parameters.  A worker death
  mid-query surfaces as a clean :class:`~repro.errors.ExecutionError`;
  the pool respawns the dead worker before the next query.  Workers are
  daemons: they can never outlive the parent.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import threading
import zlib
from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import CatalogError, ExecutionError
from ..expressions.aggregates import make_accumulator
from ..expressions.ast import BoolOp, Col, Comparison, Const, Expr
from ..expressions.compiler import (
    compile_batch_predicate, compile_batch_projector, compile_batch_values,
    compile_vector_predicate,
)
from ..storage.codec import decode_columnar_rows, encode_columnar_rows
from .physical import (
    Filter, HashAggregate, PhysicalOperator, PhysicalPlan, Project, SeqScan,
    SortNode, StreamingLimit,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from ..catalog import Catalog

_FLOAT = struct.Struct("<d")
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Exchange costing: fixed per-fanout overhead and per-row transfer cost,
#: in the cost model's SeqScan-row units.  A Gather is only planned when
#: the estimated input clears ``SessionConfig.parallel_threshold``, so
#: these mostly shape EXPLAIN's relative numbers.
GATHER_SETUP_COST = 500.0
GATHER_ROW_COST = 0.2


# ---------------------------------------------------------------------------
# Stable hashing + partition maps
# ---------------------------------------------------------------------------

def stable_hash(value: Any) -> int:
    """A process-independent hash of one SQL value.

    Values that compare equal under SQL ``=`` must land in the same
    partition, so bools hash as their integer value and integral floats
    hash as integers (``1 = 1.0`` is true).  NULL rows all live in
    partition 0 — they never match an equality probe anyway.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float):
        if value.is_integer() and _INT64_MIN <= value <= _INT64_MAX:
            value = int(value)
        else:
            return zlib.crc32(b"f" + _FLOAT.pack(value))
    if isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8, "little",
                              signed=True)
        return zlib.crc32(b"i" + body)
    if isinstance(value, str):
        return zlib.crc32(b"s" + value.encode("utf-8"))
    return zlib.crc32(repr(value).encode("utf-8"))


def _hash_key(row: tuple, positions: tuple[int, ...]) -> int:
    code = 0
    for p in positions:
        code = (code * 1000003 + stable_hash(row[p])) & 0xFFFFFFFF
    return code


#: rows-list identity -> (rows ref, position, count, index lists).  The
#: rows reference keeps the list alive so its id cannot be recycled
#: while cached; commits swap Relations (and their row lists) wholesale,
#: so identity equality means the map is current.
_MAP_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_MAP_CACHE_CAP = 32
_map_lock = threading.Lock()


def _reset_after_fork() -> None:  # pragma: no cover - runs inside fork()
    """Re-arm the cache lock in the child.

    A forked child inherits ``_map_lock`` in whatever state some parent
    thread left it at ``fork()`` — acquiring an inherited *held* lock
    deadlocks forever.  The child gets a fresh, unlocked lock and an
    empty cache (its tables are decoded per worker, so parent entries
    would only pin copied row lists anyway).
    """
    global _map_lock
    _map_lock = threading.Lock()
    _MAP_CACHE.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


# repro: allow(lock-fork) - _map_lock is re-created unlocked in the
# child by _reset_after_fork (os.register_at_fork above), so workers
# can never block on a lock a parent thread held across fork().
def partition_map(rows: list, position: int,
                  count: int) -> list[list[int]]:
    """Ascending row-index lists, one per partition, for *rows* hash-
    partitioned on column *position* into *count* buckets (cached)."""
    key = (id(rows), position, count)
    with _map_lock:
        entry = _MAP_CACHE.get(key)
        if entry is not None and entry[0] is rows \
                and entry[1] == len(rows):
            _MAP_CACHE.move_to_end(key)
            return entry[2]
    buckets: list[list[int]] = [[] for _ in range(count)]
    for i, row in enumerate(rows):
        buckets[stable_hash(row[position]) % count].append(i)
    with _map_lock:
        _MAP_CACHE[key] = (rows, len(rows), buckets)
        while len(_MAP_CACHE) > _MAP_CACHE_CAP:
            _MAP_CACHE.popitem(last=False)
    return buckets


# ---------------------------------------------------------------------------
# Serial partition pruning
# ---------------------------------------------------------------------------

class PartitionScan(PhysicalOperator):
    """Scan of the partitions an equality predicate can match.

    Emits the selected partitions' rows in stored order (the index lists
    are ascending and disjoint), so every plan above sees the same order
    a :class:`~repro.engine.physical.SeqScan` minus the pruned rows.
    """

    __slots__ = ("table", "alias", "names", "position", "count", "parts",
                 "_rows", "_order", "_pos")

    def __init__(self, table: str, alias: str, names: tuple[str, ...],
                 position: int, count: int,
                 parts: tuple[int, ...]) -> None:
        super().__init__()
        self.table = table
        self.alias = alias
        self.names = names
        self.position = position
        self.count = count
        self.parts = parts
        self._rows: list = []
        self._order: list[int] = []
        self._pos = 0

    def _reset(self) -> None:
        self._rows = self.engine.catalog.get(self.table).rows
        buckets = partition_map(self._rows, self.position, self.count)
        if len(self.parts) == 1:
            self._order = buckets[self.parts[0]]
        else:
            merged: list[int] = []
            for part in sorted(self.parts):
                merged.extend(buckets[part])
            merged.sort()
            self._order = merged
        self._pos = 0

    def _release(self) -> None:
        self._rows = []
        self._order = []

    def next_batch(self) -> list | None:
        if self._pos >= len(self._order):
            return None
        rows = self._rows
        chunk = self._order[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(chunk)
        return [rows[i] for i in chunk]

    def label(self) -> str:
        return (f"PartitionScan {self.table} as {self.alias} "
                f"partitions {sorted(self.parts)}/{self.count}")


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------

_TABLE_CACHE_CAP = 8      # decoded tables kept per worker
_SPEC_CACHE_CAP = 64      # fragment specs kept per worker


def _worker_main(conn: "Connection") -> None:  # pragma: no cover - runs in a subprocess
    """Worker loop: cache tables and specs, answer tasks."""
    tables: "OrderedDict[int, list]" = OrderedDict()
    specs: "OrderedDict[int, dict]" = OrderedDict()
    pending_error: str | None = None
    while True:
        try:
            # repro: allow(hygiene-pickle) - parent<->child pipe created
            # by this process; never carries attacker-controlled bytes
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "exit":
            return
        try:
            if kind == "table":
                _, token, n_cols, blob = message
                rows, _ = decode_columnar_rows(blob, 0, n_cols)
                tables[token] = rows
                tables.move_to_end(token)
                while len(tables) > _TABLE_CACHE_CAP:
                    tables.popitem(last=False)
            elif kind == "spec":
                _, spec_id, spec = message
                specs[spec_id] = spec
                specs.move_to_end(spec_id)
                while len(specs) > _SPEC_CACHE_CAP:
                    specs.popitem(last=False)
            elif kind == "task":
                if pending_error is not None:
                    error, pending_error = pending_error, None
                    conn.send_bytes(pickle.dumps(("err", error)))
                    continue
                payload = _run_task(message[1], specs, tables)
                conn.send_bytes(pickle.dumps(("ok", payload)))
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            import traceback
            text = f"{type(exc).__name__}: {exc}\n" \
                   f"{traceback.format_exc(limit=8)}"
            if kind == "task":
                conn.send_bytes(pickle.dumps(("err", text)))
            else:
                pending_error = text


def _run_task(task: dict, specs: dict,
              tables: dict) -> Any:  # pragma: no cover - subprocess
    spec = specs[task["spec"]]
    mode = spec["mode"]
    params = task["params"]
    if mode == "repartition":
        tagged, _ = decode_columnar_rows(task["blob"], 0,
                                         task["blob_cols"])
        idxs = [row[0] for row in tagged]
        rows = [row[1:] for row in tagged]
    elif mode == "partition":
        full = tables[task["table"]]
        position, count = spec["partition"]
        buckets = partition_map(full, position, count)
        order: list[int] = []
        for part in sorted(task["parts"]):
            order.extend(buckets[part])
        order.sort()
        idxs = order
        rows = [full[i] for i in order]
    else:
        full = tables[task["table"]]
        lo, hi = task["lo"], task["hi"]
        rows = full[lo:hi]
        idxs = range(lo, hi)
    track = spec["agg"] is not None
    rows, idxs = _apply_steps(rows, idxs, spec["steps"], params,
                              spec["engine"], track)
    if not track:
        return rows
    return _aggregate_fragment(rows, idxs, spec["agg"], params,
                               partial=(mode == "twophase"))


def _apply_steps(rows: list, idxs: "Sequence[int]",
                 steps: "Sequence[tuple]", params: tuple, engine: str,
                 track: bool) -> "tuple[list, Sequence[int]]":
    """Run a fragment's Filter/Project steps over *rows*.

    *idxs* holds each row's global index (tracked only when *track* —
    the aggregate modes need first-occurrence ranks).  Filters preserve
    object identity and order, so surviving indices realign by
    order-preserving identity matching; projections are 1:1.
    Under the vectorized engine, a leading run of filters whose
    predicates compile to vector kernels runs columnar.
    """
    steps = list(steps)
    if engine == "vectorized" and rows and steps \
            and steps[0][0] == "filter":
        from .columnar import ColumnBatch
        batch = ColumnBatch.from_rows(rows, len(rows[0]))
        sel = batch.sel
        used = 0
        for kind, payload, index in steps:
            if kind != "filter":
                break
            kernel = compile_vector_predicate(payload, index)
            if kernel is None:
                break
            sel = kernel(batch.columns, sel, params)
            used += 1
        if used:
            steps = steps[used:]
            rows = [rows[i] for i in sel]
            if track:
                idxs = [idxs[i] for i in sel]
    for kind, payload, index in steps:
        if kind == "filter":
            fn = compile_batch_predicate(payload, index)
            out = fn(rows, (), None, params)
            if track and len(out) != len(rows):
                idxs = _realign(rows, idxs, out)
            rows = out
        else:
            fn = compile_batch_projector(payload, index)
            rows = fn(rows, (), None, params)
    return rows, idxs


def _realign(rows: list, idxs: "Sequence[int]",
             survivors: list) -> list[int]:
    """Global indices of *survivors*, an order-preserving subsequence of
    *rows* (matched by object identity, so duplicate tuples are safe)."""
    out = []
    j = 0
    for row in survivors:
        while rows[j] is not row:
            j += 1
        out.append(idxs[j])
        j += 1
    return out


def _make_accumulators(aggregates: "Sequence[tuple]") -> list:
    return [make_accumulator(call.name, star=call.arg is None,
                             distinct=call.distinct)
            for _, call in aggregates]


def _aggregate_fragment(rows: list, idxs: "Sequence[int]",
                        agg: dict, params: tuple,
                        partial: bool) -> list[tuple]:
    """One worker's aggregation over its fragment: ``(key, payload,
    first_global_index)`` per group — *payload* is the accumulator
    states under two-phase mode, final results otherwise."""
    aggregates = agg["aggregates"]
    positions = agg["positions"]
    index = agg["index"]
    arg_fns = [None if call.arg is None
               else compile_batch_values(call.arg, index)
               for _, call in aggregates]
    columns = [None if fn is None else fn(rows, (), None, params)
               for fn in arg_fns]
    groups: dict[tuple, list] = {}
    for i, row in enumerate(rows):
        key = tuple(row[p] for p in positions)
        entry = groups.get(key)
        if entry is None:
            entry = [_make_accumulators(aggregates), idxs[i]]
            groups[key] = entry
        for column, accumulator in zip(columns, entry[0]):
            accumulator.add(1 if column is None else column[i])
    if partial:
        return [(key, [acc.state() for acc in accs], first)
                for key, (accs, first) in groups.items()]
    return [(key, tuple(acc.result() for acc in accs), first)
            for key, (accs, first) in groups.items()]


class _Worker:
    __slots__ = ("process", "conn", "tables", "specs")

    def __init__(self, process: "BaseProcess",
                 conn: "Connection") -> None:
        self.process = process
        self.conn = conn
        self.tables: set[int] = set()
        self.specs: set[int] = set()

    def send(self, message: tuple) -> None:
        self.conn.send_bytes(pickle.dumps(
            message, protocol=pickle.HIGHEST_PROTOCOL))

    def recv(self) -> tuple:
        # repro: allow(hygiene-pickle) - same trusted pipe, parent side
        return pickle.loads(self.conn.recv_bytes())

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, join: bool = True) -> None:
        try:
            if self.process.is_alive():
                self.send(("exit",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        if join:
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)


class WorkerPool:
    """A lazily grown pool of daemon worker processes (one pipe each).

    ``run`` dispatches one task per worker and collects the replies in
    task order.  A dead worker raises :class:`ExecutionError` for the
    *current* query and is respawned, so the next query sees a healthy
    pool; per-worker caches die with the worker, which only costs a
    re-ship.
    """

    def __init__(self) -> None:
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._context = None

    def _ctx(self) -> "BaseContext":
        if self._context is None:
            import multiprocessing
            try:
                self._context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX
                self._context = multiprocessing.get_context("spawn")
        return self._context

    def _spawn(self) -> _Worker:
        ctx = self._ctx()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(target=_worker_main, args=(child_conn,),
                              name="repro-parallel-worker", daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def lease(self, count: int) -> list[_Worker]:
        """*count* healthy workers, spawning/respawning as needed."""
        with self._lock:
            for i, worker in enumerate(self._workers):
                if not worker.alive():
                    worker.stop(join=False)
                    self._workers[i] = self._spawn()
            while len(self._workers) < count:
                self._workers.append(self._spawn())
            return self._workers[:count]

    @property
    def size(self) -> int:
        return len(self._workers)

    def processes(self) -> list:
        """Live worker process objects (crash-injection tests)."""
        return [worker.process for worker in self._workers]

    def run(self, assignments: list[tuple["_Worker", list[tuple], tuple]]
            ) -> list[Any]:
        """Send every worker its shipments + task, then collect replies.

        *assignments* is ``(worker, shipments, task_message)`` per task.
        Shipments (table blocks, fragment specs) are fire-and-forget;
        the task message gets exactly one reply.
        """
        try:
            for worker, shipments, task in assignments:
                for shipment in shipments:
                    worker.send(shipment)
                worker.send(task)
        except (OSError, ValueError) as exc:
            self._reap()
            raise ExecutionError(
                f"parallel worker unreachable: {exc}") from exc
        results = []
        for worker, _, _ in assignments:
            try:
                reply = worker.recv()
            except (EOFError, OSError) as exc:
                self._reap()
                raise ExecutionError(
                    "parallel worker died mid-query; the pool was "
                    "respawned — re-run the statement") from exc
            if reply[0] == "err":
                raise ExecutionError(
                    f"parallel worker failed: {reply[1]}")
            results.append(reply[1])
        return results

    def _reap(self) -> None:
        """Replace dead workers after a failed dispatch."""
        with self._lock:
            for i, worker in enumerate(self._workers):
                if not worker.alive():
                    worker.stop(join=False)
                    self._workers[i] = self._spawn()

    def shutdown(self) -> None:
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()


_POOL: WorkerPool | None = None
_pool_lock = threading.Lock()


def get_pool() -> WorkerPool | None:
    """The process-global worker pool (created on first use), or None
    when worker processes cannot be started on this platform."""
    global _POOL
    with _pool_lock:
        if _POOL is None:
            pool = WorkerPool()
            try:
                pool.lease(1)
            except Exception:
                return None
            atexit.register(pool.shutdown)
            _POOL = pool
        return _POOL


def shutdown_pool() -> None:
    """Stop the global pool (tests); the next query recreates it."""
    global _POOL
    with _pool_lock:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


# -- parent-side shipping caches ---------------------------------------------

#: rows-list identity -> (rows ref, token, n_cols, encoded block).
_BLOB_CACHE: "OrderedDict[int, tuple]" = OrderedDict()
_BLOB_CACHE_CAP = 8
_blob_lock = threading.Lock()
_token_counter = 0


def _table_blob(rows: list, n_cols: int) -> tuple[int, bytes]:
    """``(token, columnar block)`` for one table version, cached by the
    row list's identity (kept alive by the cache entry)."""
    global _token_counter
    key = id(rows)
    with _blob_lock:
        entry = _BLOB_CACHE.get(key)
        if entry is not None and entry[0] is rows \
                and entry[1] == len(rows):
            _BLOB_CACHE.move_to_end(key)
            return entry[2], entry[3]
    out = bytearray()
    encode_columnar_rows(out, n_cols, rows)
    blob = bytes(out)
    with _blob_lock:
        _token_counter += 1
        token = _token_counter
        _BLOB_CACHE[key] = (rows, len(rows), token, blob)
        while len(_BLOB_CACHE) > _BLOB_CACHE_CAP:
            _BLOB_CACHE.popitem(last=False)
    return token, blob


_spec_counter = 0
_spec_lock = threading.Lock()


def _next_spec_id() -> int:
    global _spec_counter
    with _spec_lock:
        _spec_counter += 1
        return _spec_counter


# ---------------------------------------------------------------------------
# The Gather exchange operator
# ---------------------------------------------------------------------------

class Gather(PhysicalOperator):
    """Parent-side exchange: fans a fragment out over the worker pool
    and merges the results; its child is the equivalent serial subtree
    (run verbatim when the pool is unavailable or the live table shrank
    below the threshold)."""

    __slots__ = ("child", "workers", "mode", "table", "n_cols", "spec",
                 "threshold", "group", "aggregates", "positions",
                 "_spec_id", "_result", "_pos", "worker_stats")

    def __init__(self, child: PhysicalOperator, workers: int, mode: str,
                 table: str, n_cols: int, spec: dict, threshold: int,
                 group: tuple = (), aggregates: tuple = (),
                 positions: tuple = ()) -> None:
        super().__init__()
        self.child = child
        self.workers = workers
        self.mode = mode
        self.table = table
        self.n_cols = n_cols
        self.spec = spec
        self.threshold = threshold
        self.group = group
        self.aggregates = aggregates
        self.positions = positions
        self._spec_id = _next_spec_id()
        self._result: list | None = None
        self._pos = 0
        #: ``[(worker_index, rows_returned, seconds)]`` of the last
        #: parallel execution — rendered by EXPLAIN ANALYZE.
        self.worker_stats: list[tuple[int, int, float]] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _reset(self) -> None:
        self._result = None
        self._pos = 0

    def _release(self) -> None:
        self._result = None

    def next_batch(self) -> list | None:
        if self._result is None:
            self._result = self._execute()
            self._pos = 0
        if self._pos >= len(self._result):
            return None
        batch = self._result[self._pos:self._pos + self.engine.batch_size]
        self._pos += len(batch)
        return batch

    # -- execution -----------------------------------------------------------

    def _serial(self) -> list[tuple]:
        engine = self.engine
        engine.stats.parallel_fallbacks += 1
        rows: list[tuple] = []
        while True:
            batch = engine.pull(self.child)
            if batch is None:
                return rows
            rows.extend(batch)

    def _execute(self) -> list[tuple]:
        engine = self.engine
        rows = engine.catalog.get(self.table).rows
        if self.workers < 2 or len(rows) < self.threshold:
            return self._serial()
        pool = get_pool()
        if pool is None:
            return self._serial()
        self.worker_stats = None
        tasks = self._plan_tasks(rows, engine.params)
        if tasks is None:
            return self._serial()
        workers = pool.lease(len(tasks))
        assignments = []
        for worker, (shipments, dynamic) in zip(workers, tasks):
            pending = []
            for shipment in shipments:
                kind = shipment[0]
                if kind == "table" and shipment[1] in worker.tables:
                    continue
                if kind == "spec" and shipment[1] in worker.specs:
                    continue
                pending.append(shipment)
                if kind == "table":
                    worker.tables.add(shipment[1])
                else:
                    worker.specs.add(shipment[1])
            assignments.append((worker, pending, ("task", dynamic)))
        started = perf_counter()
        results = pool.run(assignments)
        elapsed = perf_counter() - started
        engine.stats.parallel_fanouts += 1
        engine.stats.parallel_workers = max(
            engine.stats.parallel_workers, len(tasks))
        self.worker_stats = [
            (i, len(part), elapsed) for i, part in enumerate(results)]
        if self.mode == "scan":
            merged: list[tuple] = []
            for part in results:
                merged.extend(part)
            return merged
        return self._merge_groups(results)

    def _plan_tasks(self, rows: list, params: tuple
                    ) -> "list[tuple[list, dict]] | None":
        """Per-worker ``(shipments, dynamic-task)`` pairs, or None when
        this execution cannot be split (e.g. nothing to shuffle)."""
        spec_ship = ("spec", self._spec_id, self.spec)
        count = min(self.workers, max(1, len(rows)))
        if count < 2:
            return None
        tasks = []
        if self.mode in ("scan", "twophase"):
            token, blob = _table_blob(rows, self.n_cols)
            table_ship = ("table", token, self.n_cols, blob)
            step = -(-len(rows) // count)   # ceil division
            for i in range(count):
                lo, hi = i * step, min((i + 1) * step, len(rows))
                if lo >= hi:
                    break
                tasks.append((
                    [table_ship, spec_ship],
                    {"spec": self._spec_id, "params": params,
                     "table": token, "lo": lo, "hi": hi}))
        elif self.mode == "partition":
            token, blob = _table_blob(rows, self.n_cols)
            table_ship = ("table", token, self.n_cols, blob)
            position, parts_count = self.spec["partition"]
            assigned: list[list[int]] = [[] for _ in range(count)]
            for part in range(parts_count):
                assigned[part % count].append(part)
            for i in range(count):
                if not assigned[i]:
                    continue
                tasks.append((
                    [table_ship, spec_ship],
                    {"spec": self._spec_id, "params": params,
                     "table": token, "parts": assigned[i]}))
        else:   # repartition: ship hash buckets of (index, row) pairs
            positions = self.positions
            buckets: list[list[tuple]] = [[] for _ in range(count)]
            for i, row in enumerate(rows):
                buckets[_hash_key(row, positions) % count].append(
                    (i, *row))
            for bucket in buckets:
                if not bucket:
                    continue
                out = bytearray()
                encode_columnar_rows(out, self.n_cols + 1, bucket)
                tasks.append((
                    [spec_ship],
                    {"spec": self._spec_id, "params": params,
                     "blob": bytes(out), "blob_cols": self.n_cols + 1}))
        return tasks if len(tasks) >= 2 else None

    def _merge_groups(self, results: list) -> list[tuple]:
        """Final phase of the aggregate modes: merge partial states
        (two-phase) or adopt disjoint finals (shuffles), then emit in
        ascending first-occurrence order — the serial group order."""
        partial = self.mode == "twophase"
        merged: dict[tuple, list] = {}
        for part in results:
            for key, payload, first in part:
                entry = merged.get(key)
                if entry is None:
                    if partial:
                        accumulators = _make_accumulators(self.aggregates)
                        for acc, state in zip(accumulators, payload):
                            acc.merge(state)
                        merged[key] = [accumulators, first]
                    else:
                        merged[key] = [payload, first]
                else:
                    # disjoint by construction in the shuffle modes
                    for acc, state in zip(entry[0], payload):
                        acc.merge(state)
                    if first < entry[1]:
                        entry[1] = first
        if not merged and not self.group:
            finals = tuple(acc.result()
                           for acc in _make_accumulators(self.aggregates))
            return [finals]
        ordered = sorted(merged.items(), key=lambda item: item[1][1])
        if partial:
            return [key + tuple(acc.result() for acc in accs)
                    for key, (accs, _) in ordered]
        return [key + finals for key, (finals, _) in ordered]

    def label(self) -> str:
        return (f"Gather (workers={self.workers}, mode={self.mode}) "
                f"on {self.table}")


# ---------------------------------------------------------------------------
# The parallel lowering pass
# ---------------------------------------------------------------------------

def parallelize_plan(plan: PhysicalPlan, catalog: Catalog, workers: int,
                     threshold: int,
                     engine_name: str = "pipelined") -> PhysicalPlan:
    """Rewrite *plan* in place, inserting :class:`Gather` exchanges (and
    :class:`PartitionScan` pruning) where the cost model expects
    parallelism to pay: the fragment's base table must clear *threshold*
    estimated rows.  Serial semantics are preserved exactly — every
    Gather keeps its serial subtree as the fallback child.

    Partition pruning is applied regardless of *workers* — cutting a
    scan to one partition pays even (especially) in a serial plan."""
    plan.root = _prune_partitions(plan.root, catalog)
    if workers >= 2:
        plan.root = _parallelize(plan.root, catalog, workers, threshold,
                                 engine_name)
    return plan


def _table_size(scan: SeqScan, catalog: Catalog) -> float:
    if scan.est_rows is not None:
        return scan.est_rows
    try:
        return len(catalog.get(scan.table).rows)
    except CatalogError:
        return 0.0


def _scan_pipeline(node: PhysicalOperator
                   ) -> "tuple[SeqScan, list[tuple], bool] | None":
    """Decompose a Filter/Project(plain) chain over a SeqScan into
    ``(scan, steps, saw_project)`` with steps innermost-first, or None.
    Nodes carrying sublink plans cannot ship to a worker."""
    steps: list[tuple] = []
    saw_project = False
    current = node
    while True:
        if current.sublinks:
            return None
        if isinstance(current, SeqScan):
            steps.reverse()
            return current, steps, saw_project
        if isinstance(current, Filter):
            steps.append(("filter", current.condition, current.index))
            current = current.child
        elif isinstance(current, Project) and not current.distinct:
            steps.append(("project", current.exprs, current.index))
            saw_project = True
            current = current.child
        else:
            return None


def _try_gather(node: PhysicalOperator, catalog: Catalog, workers: int,
                threshold: int, engine_name: str) -> Gather | None:
    if isinstance(node, HashAggregate) and not node.sublinks:
        decomposed = _scan_pipeline(node.child)
        if decomposed is None:
            return None
        scan, steps, saw_project = decomposed
        if _table_size(scan, catalog) < threshold:
            return None
        if any(call.arg is not None and _has_sublink(call.arg)
               for _, call in node.aggregates):
            return None
        n_cols = len(scan.names)
        agg_spec = {"aggregates": node.aggregates,
                    "positions": node.group_positions,
                    "index": node.index}
        combinable = all(not call.distinct
                         for _, call in node.aggregates)
        keyed_on_base = bool(node.group) and not saw_project
        mode = None
        spec_partition = None
        if keyed_on_base:
            declared = catalog.partition_of(scan.table)
            if declared is not None:
                column, count = declared
                position = _base_position(catalog, scan.table, column)
                if position is not None \
                        and position in node.group_positions:
                    mode = "partition"
                    spec_partition = (position, count)
            if mode is None:
                mode = "repartition"
        elif combinable:
            mode = "twophase"
        if mode is None:
            return None
        spec = {"mode": mode, "steps": steps, "agg": agg_spec,
                "partition": spec_partition, "engine": engine_name}
        gather = Gather(node, workers, mode, scan.table, n_cols, spec,
                        threshold, group=node.group,
                        aggregates=node.aggregates,
                        positions=node.group_positions)
        _cost_gather(gather, node)
        return gather
    decomposed = _scan_pipeline(node)
    if decomposed is None or isinstance(node, SeqScan):
        return None
    scan, steps, _ = decomposed
    if not any(kind == "filter" for kind, _, _ in steps):
        return None   # fan-out without reduction never pays
    if _table_size(scan, catalog) < threshold:
        return None
    spec = {"mode": "scan", "steps": steps, "agg": None,
            "partition": None, "engine": engine_name}
    gather = Gather(node, workers, "scan", scan.table, len(scan.names),
                    spec, threshold)
    _cost_gather(gather, node)
    return gather


def _cost_gather(gather: Gather, child: PhysicalOperator) -> None:
    gather.est_rows = child.est_rows
    if child.est_cost is not None:
        rows = child.est_rows or 0.0
        gather.est_cost = (child.est_cost / gather.workers
                           + GATHER_SETUP_COST + GATHER_ROW_COST * rows)


def _has_sublink(expr: Expr) -> bool:
    from ..expressions.ast import Sublink
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sublink):
            return True
        stack.extend(node.children())
    return False


def _base_position(catalog: Catalog, table: str,
                   column: str) -> int | None:
    try:
        schema = catalog.get(table).schema
    except CatalogError:
        return None
    if column not in schema:
        return None
    return schema.position(column)


_DESCEND = (Filter, Project, SortNode, StreamingLimit, HashAggregate)


def _parallelize(node: PhysicalOperator, catalog: Catalog, workers: int,
                 threshold: int, engine_name: str) -> PhysicalOperator:
    gather = _try_gather(node, catalog, workers, threshold, engine_name)
    if gather is not None:
        return gather
    if isinstance(node, _DESCEND):
        node.child = _parallelize(node.child, catalog, workers,
                                  threshold, engine_name)
    return node


def _prune_partitions(node: PhysicalOperator,
                      catalog: Catalog) -> PhysicalOperator:
    """Replace ``Filter(pcol = const)`` over a SeqScan of a hash-
    partitioned table with the same filter over a single-partition
    :class:`PartitionScan` (collisions keep the filter necessary)."""
    if isinstance(node, Filter) and isinstance(node.child, SeqScan) \
            and not node.child.sublinks:
        scan = node.child
        declared = catalog.partition_of(scan.table)
        if declared is not None:
            column, count = declared
            position = _base_position(catalog, scan.table, column)
            if position is not None:
                bucket = _equality_bucket(node.condition, node.index,
                                          position, count)
                if bucket is not None:
                    replacement = PartitionScan(
                        scan.table, scan.alias, scan.names, position,
                        count, (bucket,))
                    size = _table_size(scan, catalog)
                    replacement.est_rows = (
                        None if scan.est_rows is None
                        else scan.est_rows / count)
                    replacement.est_cost = (
                        None if scan.est_cost is None
                        else scan.est_cost / count)
                    node.child = replacement
                    return node
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if isinstance(child, PhysicalOperator):
            setattr(node, attr, _prune_partitions(child, catalog))
    return node


def _equality_bucket(condition: Expr, index: dict[str, int],
                     position: int, count: int) -> int | None:
    """The partition an AND-chain equality conjunct pins, or None."""
    conjuncts = condition.items \
        if isinstance(condition, BoolOp) and condition.op == "and" \
        else (condition,)
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        for col, const in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            if isinstance(col, Col) and col.level == 0 \
                    and isinstance(const, Const) \
                    and const.value is not None \
                    and index.get(col.name) == position:
                return stable_hash(const.value) % count
    return None
