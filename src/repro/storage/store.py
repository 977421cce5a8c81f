"""The durable store: a database directory with a snapshot and a WAL.

Layout of a database directory::

    <path>/
        snapshot.bin   last checkpoint image (may be absent: never
                       checkpointed)
        wal.bin        write-ahead log of commits since that image

Lifecycle:

* :meth:`DurableStore.open` creates or recovers the directory: load the
  snapshot if present (else start from an empty catalog), then replay
  every WAL record whose LSN exceeds the snapshot's, stopping — and
  truncating — at the first torn or corrupt record (an interrupted
  append is an uncommitted transaction).
* :meth:`DurableStore.append_commit` and :meth:`DurableStore.flush`
  are the **group-commit** write path, both called only by the engine's
  commit leader.  ``append_commit`` assigns a record the next LSN and
  stages it; ``flush`` appends every staged record with one ``write()``
  and — with ``durability="commit"`` — one fsync *for all of them*
  (committed-means-durable, amortized).  With ``"checkpoint"`` the
  batch is only flushed to the OS (fsync happens at checkpoint/close),
  and with ``"off"`` commits are not logged at all — only an explicit
  ``CHECKPOINT`` persists anything.  Both run *before* the batch's
  in-memory publish: a failed flush fails every commit in the batch,
  none of them publishes, and the torn tail is truncated back off the
  file.
* :meth:`DurableStore.checkpoint` compacts: write a fresh snapshot
  (atomic temp-file + rename), then reset the WAL.  A crash between the
  two is safe — the snapshot records the LSN it incorporates and replay
  skips records at or below it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO

try:
    import fcntl
except ImportError:                                  # pragma: no cover
    fcntl = None        # non-POSIX: directory locking degrades to none

from ..catalog import Catalog
from ..errors import StorageError
from .codec import decode_varint, encode_varint, frame_record, read_record
from .snapshot import _fsync_dir, load_snapshot, write_snapshot
from .wal import WAL_MAGIC, apply_commit_ops, rebuild_dirty_indexes

SNAPSHOT_FILE = "snapshot.bin"
WAL_FILE = "wal.bin"
LOCK_FILE = "lock"


def _acquire_dir_lock(path: Path) -> "BinaryIO | None":
    """An exclusive advisory lock on ``<path>/lock``, or StorageError.

    Two engines appending to one WAL would fork the LSN sequence and
    silently lose acknowledged commits; a flock (auto-released by the
    OS on crash, so never stale) turns the second open into a clean
    error instead.
    """
    if fcntl is None:                                # pragma: no cover
        return None
    handle = open(path / LOCK_FILE, "a+b")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise StorageError(
            f"database directory {path} is already open in another "
            f"engine (its 'lock' file is held)") from None
    return handle


class DurableStore:
    """Filesystem state behind one durable :class:`~repro.api.Engine`."""

    def __init__(self, path: str | Path, durability: str = "commit"
                 ) -> None:
        self.path = Path(path)
        self.durability = durability
        self.last_lsn = 0       # highest *flushed* LSN
        self._wal = None        # append handle, opened by open()
        self._dir_lock = None   # exclusive flock held while open
        self._allocated_lsn = 0     # highest LSN handed to a record
        self._staged: list[bytes] = []  # framed records awaiting flush()
        #: batches flushed / records they carried (observability + the
        #: multi-writer bench's amortization evidence)
        self.flush_batches = 0
        self.flushed_records = 0
        #: WAL bytes flushed since the last checkpoint (the engine's
        #: ``checkpoint_wal_mb`` budget reads it)
        self.bytes_since_checkpoint = 0

    # -- paths ---------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.path / SNAPSHOT_FILE

    @property
    def wal_path(self) -> Path:
        return self.path / WAL_FILE

    @property
    def logs_commits(self) -> bool:
        """Whether commits append WAL records (durability off skips the
        log entirely; only CHECKPOINT persists)."""
        return self.durability in ("commit", "checkpoint")

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, durability: str = "commit",
             ) -> tuple["DurableStore", Catalog]:
        """Open-or-recover a database directory.

        Returns the store and the recovered catalog: snapshot image (or
        empty) plus the committed WAL suffix.
        """
        store = cls(path, durability)
        store.path.mkdir(parents=True, exist_ok=True)
        store._dir_lock = _acquire_dir_lock(store.path)
        if store.snapshot_path.exists():
            catalog, store.last_lsn = load_snapshot(store.snapshot_path)
        else:
            catalog = Catalog()
        store._recover_wal(catalog)
        # unbuffered: every append is one write() straight to the fd, so
        # after a failed append the file holds at most one partial
        # record — which _fail_append() truncates away
        store._wal = open(store.wal_path, "ab", buffering=0)
        if os.fstat(store._wal.fileno()).st_size == 0:
            store._wal.write(WAL_MAGIC)
            if durability != "off":
                # the *contents* of wal.bin are fsynced per commit, but
                # a brand-new file's directory entry (and the db dir's
                # own entry) must also reach disk, or power loss can
                # vanish the whole log out from under acknowledged
                # commits
                os.fsync(store._wal.fileno())
                _fsync_dir(store.path)
                _fsync_dir(store.path.parent)
        store._allocated_lsn = store.last_lsn
        return store, catalog

    def _recover_wal(self, catalog: Catalog) -> None:
        """Replay the WAL suffix after the snapshot's LSN; truncate the
        file at the first torn/corrupt record (a crashed append)."""
        if not self.wal_path.exists():
            return
        good_offset = len(WAL_MAGIC)
        dirty: set[str] = set()     # tables needing one index rebuild
        with open(self.wal_path, "rb") as fh:
            magic = fh.read(len(WAL_MAGIC))
            if len(magic) < len(WAL_MAGIC):
                good_offset = 0          # torn before the magic completed
            elif magic != WAL_MAGIC:
                raise StorageError(
                    f"{self.wal_path} is not a repro WAL (bad magic)")
            else:
                while True:
                    try:
                        payload = read_record(fh)
                        if payload is None:
                            break
                        if not payload:
                            # a zero-filled extension (crash persisted
                            # the file size, not the data) frames as a
                            # CRC-valid *empty* record — same treatment
                            # as any other torn tail
                            break
                        lsn, pos = decode_varint(payload, 0)
                    except StorageError:
                        break            # torn tail: uncommitted, discard
                    if lsn > self.last_lsn:
                        apply_commit_ops(catalog, payload, pos,
                                         dirty=dirty)
                        self.last_lsn = lsn
                    good_offset = fh.tell()
            file_size = fh.seek(0, os.SEEK_END)
        rebuild_dirty_indexes(catalog, dirty)
        if file_size > good_offset:
            with open(self.wal_path, "r+b") as fh:
                fh.truncate(good_offset)
                fh.flush()
                os.fsync(fh.fileno())
        if good_offset == 0:
            # rewrite the magic so the append handle starts clean
            with open(self.wal_path, "wb") as fh:
                fh.write(WAL_MAGIC)
                fh.flush()
                os.fsync(fh.fileno())

    def close(self) -> None:
        """Fsync and close the WAL, release the directory lock.  The
        engine calls this as the commit leader, so nothing is staged."""
        if self._wal is not None:
            try:
                if self.durability != "off":
                    os.fsync(self._wal.fileno())
            finally:
                self._wal.close()
                self._wal = None
        if self._dir_lock is not None:
            self._dir_lock.close()      # releases the flock
            self._dir_lock = None

    # -- the write path ------------------------------------------------------

    def append_commit(self, ops_payload: bytes) -> int:
        """Stage one commit record under the next LSN; returns the LSN.

        Nothing is written until :meth:`flush`.  The commit leader is
        the only caller, so LSN order is the order in which commits
        reached its queue.  A failed flush leaves a gap in the LSN
        sequence, which is harmless — recovery replays by
        ``lsn > snapshot lsn``, not by contiguity.
        """
        if self._wal is None or self._wal.closed:
            raise StorageError(
                "durable store is closed, or its WAL is in an unknown "
                "state after a failed append — reopen the database")
        self._allocated_lsn += 1
        record = bytearray()
        encode_varint(record, self._allocated_lsn)
        record += ops_payload
        self._staged.append(frame_record(bytes(record)))
        return self._allocated_lsn

    def flush(self) -> None:
        """Append every staged record with one write and (per
        durability) one fsync; fail all-or-none.

        If the write or its fsync fails, the whole batch is truncated
        back off the file and :class:`~repro.errors.StorageError` is
        raised for all of it.  If even the truncation fails, the store
        poisons itself — further commits raise rather than write behind
        an unknown tail.
        """
        staged, self._staged = self._staged, []
        if not staged:
            return
        wal = self._wal
        if wal is None or wal.closed:
            raise StorageError(
                "WAL is in an unknown state after a failed append")
        frame = b"".join(staged)
        offset = os.fstat(wal.fileno()).st_size
        try:
            written = wal.write(frame)
            if written != len(frame):
                raise StorageError(
                    f"short WAL write ({written}/{len(frame)} bytes)")
            if self.durability == "commit":
                os.fsync(wal.fileno())
        # the tail must be rolled back whatever interrupted the write
        except BaseException as exc:  # repro: allow(hygiene-broad-except)
            self._fail_append(offset)
            if not isinstance(exc, Exception):
                raise
            raise StorageError(
                f"commit was not made durable (its group-commit batch "
                f"failed): {exc}") from exc
        self.last_lsn = self._allocated_lsn
        self.flush_batches += 1
        self.flushed_records += len(staged)
        self.bytes_since_checkpoint += len(frame)

    def discard_staged(self) -> None:
        """Drop staged records unwritten (a batch the leader abandoned
        before its flush)."""
        self._staged = []

    def _fail_append(self, offset: int) -> None:
        """Roll a failed batch back off the file (or poison the store).

        The truncation is fsynced: without that, a crash after the OS
        had already written back the aborted records would resurrect
        them on recovery.  If truncate *or* its fsync fails, the tail
        is in an unknown state and the store poisons itself.
        """
        try:
            os.ftruncate(self._wal.fileno(), offset)
            os.fsync(self._wal.fileno())
        except (OSError, ValueError):
            wal, self._wal = self._wal, None    # poisoned: see above
            try:
                if wal is not None and not wal.closed:
                    wal.close()
            except OSError:
                pass

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self, catalog: Catalog) -> None:
        """Compact the WAL into a fresh snapshot of *catalog*.

        Called by the engine's commit leader under ``engine.lock``, so
        no batch is between its flush and its publish: the image and
        the LSN it claims to incorporate are consistent.
        """
        if self._wal is not None:
            os.fsync(self._wal.fileno())
        write_snapshot(self.snapshot_path, catalog, self.last_lsn)
        # the snapshot is durable past every logged record: the WAL can
        # restart empty (its records are <= last_lsn and would be
        # skipped anyway — truncation only reclaims space)
        if self._wal is not None:
            self._wal.close()
        self._wal = open(self.wal_path, "wb", buffering=0)
        self._wal.write(WAL_MAGIC)
        os.fsync(self._wal.fileno())
        self.bytes_since_checkpoint = 0


def save_database(path: str | Path, catalog: Catalog) -> Path:
    """One-shot export: write *catalog* as a fresh database directory
    (snapshot + empty WAL) that :class:`~repro.api.Engine` can open.

    Backs the shell's ``\\save <dir>`` for sessions that started
    in-memory; an engine already opened on a directory checkpoints
    instead.
    """
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    lock = _acquire_dir_lock(target)    # refuse to clobber a live db
    try:
        write_snapshot(target / SNAPSHOT_FILE, catalog, 0)
        with open(target / WAL_FILE, "wb") as fh:
            fh.write(WAL_MAGIC)
            fh.flush()
            os.fsync(fh.fileno())
        _fsync_dir(target)
        _fsync_dir(target.parent)
    finally:
        if lock is not None:
            lock.close()
    return target
