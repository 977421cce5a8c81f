"""Shared machinery of the end-to-end benchmark: spans, statistics, the
host block, the ``os.fsync`` recorder, crash copies and the durability
probe.  Every time is reported as measured.

Everything that measures lives here, in the benchmark's own directory:
``src/repro`` carries no span, counter or switch for it (in-program
tracing is ROADMAP item 1 and will replace these wrappers).
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import statistics
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
#: Scratch space of the benchmark, inside the checkout and git-ignored.
WORK_ROOT = REPO_ROOT / ".bench_work"

now = time.perf_counter


# -- statistics ---------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the value at ``ceil(fraction * n)``)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def timed_s(body: Callable[[], Any]) -> float:
    """Seconds *body* took."""
    started = now()
    body()
    return now() - started


# -- spans --------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the causing span, -1 at the root
    op: int              # one identifier per op (round)


class Tracer:
    """In-memory span recorder.  ``with tracer.span(name):`` nests under
    the span open on the same thread; spans of one op share ``op``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, now(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = now()
            self._stack.pop()

    def wrap(self, name: str, func: Callable[..., Any]
             ) -> Callable[..., Any]:
        """*func* with a span of *name* around every call."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def self_ms_by_op(self) -> dict[str, dict[int, float]]:
        """name -> op -> self time in ms (a span's duration minus the
        part of it its child spans cover)."""
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ms[span.parent] += (span.end - span.start) * 1e3
        out: dict[str, dict[int, float]] = {}
        for index, span in enumerate(self.spans):
            own = (span.end - span.start) * 1e3 - child_ms[index]
            per_op = out.setdefault(span.name, {})
            per_op[span.op] = per_op.get(span.op, 0.0) + max(own, 0.0)
        return out

    def layer_ms(self, name: str, ops: Iterable[int]) -> float:
        """Median over *ops* of the per-op self-time sum of *name*."""
        per_op = self.self_ms_by_op().get(name, {})
        return median([per_op.get(op, 0.0) for op in ops])

    def dump(self, path: str) -> None:
        import json
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.op]
                       for s in self.spans], fh)


# -- results of a phase -------------------------------------------------------

@dataclass
class Window:
    """What the closed loops of one timed window produced: the latency
    of every op, the times of every statement class, the ops that
    failed, and how long the window really lasted."""

    op_ms: list[float] = field(default_factory=list)
    class_ms: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0
    retries: int = 0
    seconds: float = 0.0    # from the start to the end of the last op

    def add_class(self, name: str, ms: float) -> None:
        self.class_ms.setdefault(name, []).append(ms)

    def merge(self, other: "Window") -> None:
        """Pool another client's or thread's loop over the same window."""
        self.op_ms += other.op_ms
        for name, values in other.class_ms.items():
            self.class_ms.setdefault(name, []).extend(values)
        self.failed += other.failed
        self.retries += other.retries
        self.seconds = max(self.seconds, other.seconds)

    @property
    def ops_per_s(self) -> float:
        """Rounds completed / window, all clients and threads pooled."""
        return len(self.op_ms) / self.seconds

    def class_p50(self) -> dict[str, float]:
        return {name: median(values)
                for name, values in self.class_ms.items()}


# -- result checking ----------------------------------------------------------

def _canon(value: Any) -> str:
    # floats to 9 significant digits: a different summation order is
    # not a wrong result
    return format(value, ".9g") if isinstance(value, float) else repr(value)


def row_crc(row: Sequence[Any]) -> int:
    return zlib.crc32("|".join(_canon(v) for v in row).encode())


def bag_digest(rows: Iterable[Sequence[Any]]) -> tuple[int, int]:
    """``(row count, order-insensitive CRC)`` of a bag of rows."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total = (total + row_crc(row)) & 0xFFFFFFFF
    return count, total


def user_bytes(rows: Iterable[Sequence[Any]]) -> int:
    """Size of rows as a user would count it — 8 bytes per number, the
    UTF-8 length of a string, 1 byte for NULL or a boolean — so the
    yardstick does not move when the engine's codec does."""
    total = 0
    for row in rows:
        for value in row:
            if value is None or isinstance(value, bool):
                total += 1
            elif isinstance(value, str):
                total += len(value.encode())
            else:
                total += 8
    return total


# -- host block ---------------------------------------------------------------

def _commit() -> str:
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (REPO_ROOT / ".git" / text[5:]).read_text().strip()
        return text[:12]
    except OSError:
        return "unknown"        # the driver's checkout is not a git repo


def host_block(seed: int, seconds: float) -> dict[str, Any]:
    load = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    if load > cpus:
        print(f"warning: 1-min load average {load:.2f} exceeds "
              f"{cpus} cpu(s); timings will be noisy", file=sys.stderr)
    return {"nproc": cpus, "python": platform.python_version(),
            "commit": _commit(), "seed": seed, "seconds": seconds,
            "loadavg_1m": load}


def peak_rss_mib(child_pid: int | None = None) -> float:
    """``ru_maxrss`` of this process plus, if given, the high-water mark
    (``VmHWM``) of a live child."""
    import resource
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if child_pid is not None:
        try:
            for line in Path(f"/proc/{child_pid}/status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total


# -- scratch directories ------------------------------------------------------

class WorkDir:
    """One run's scratch tree under :data:`WORK_ROOT`, removed on exit
    (also on failure)."""

    def __init__(self) -> None:
        self.path = WORK_ROOT / f"run-{os.getpid()}"
        self._count = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()           # last run out removes the root
        except OSError:
            pass

    def fresh(self, label: str) -> Path:
        """A new, not yet existing path."""
        self._count += 1
        return self.path / f"{label}-{self._count}"


# -- fsync recording and crash copies -----------------------------------------

class FsyncRecorder:
    """Wraps ``os.fsync`` for the life of the run: counts the calls and
    remembers, per file, the length it had at its last fsync — which is
    all of it that a power cut is sure to leave behind."""

    def __init__(self) -> None:
        self.calls = 0
        self.synced: dict[tuple[int, int], int] = {}
        self._real = os.fsync

    def install(self) -> None:
        os.fsync = self._fsync

    def uninstall(self) -> None:
        os.fsync = self._real

    def _fsync(self, fd: Any) -> None:
        self._real(fd)
        self.calls += 1
        info = os.fstat(fd if isinstance(fd, int) else fd.fileno())
        self.synced[(info.st_dev, info.st_ino)] = info.st_size

    def crash_copy(self, source: Path, target: Path) -> None:
        """Copy *source* as a crash would leave it: every file cut back
        to its length at its last fsync.  The engine over *source* stays
        open."""
        target.mkdir(parents=True)
        for entry in sorted(source.iterdir()):
            if not entry.is_file():
                continue
            info = entry.stat()
            keep = min(self.synced.get((info.st_dev, info.st_ino), 0),
                       info.st_size)
            with open(entry, "rb") as src, \
                    open(target / entry.name, "wb") as dst:
                dst.write(src.read(keep))


def file_bytes(engine: Any, name: str) -> int:
    """Size of one file of a durable engine's directory (0 if absent)."""
    try:
        return (Path(engine.path) / name).stat().st_size
    except OSError:
        return 0


def wal_bytes(engine: Any) -> int:
    """Bytes of commit records in the engine's write-ahead log."""
    from repro.storage.wal import WAL_MAGIC
    return file_bytes(engine, "wal.bin") - len(WAL_MAGIC)


@dataclass
class Durability:
    """Numbers of one durability probe (see :func:`probe_durability`)."""

    recover_s: float
    recover_samples: int
    reopen_clean_ms: float
    checkpoint_ms: float
    snapshot_bytes: int
    wal_bytes: int
    recovered_ok: bool


def probe_durability(recorder: FsyncRecorder, work: WorkDir,
                     engines: Sequence[Any],
                     verify: Callable[[Sequence[Any]], bool],
                     copies: int, budget_s: float = 0.0) -> Durability:
    """Crash, recover, checkpoint, reopen — over live *engines*.

    ``recover_s`` is the median over *copies* fresh crash copies (more,
    up to 101, while they have taken less than *budget_s* together: a
    recovery of a few milliseconds needs the samples) of the
    time to open every directory and run a first query on each; *verify*
    is then handed the recovered engines and says whether everything
    acknowledged before the copy is there.  The closing ``CHECKPOINT``
    and a clean reopen are timed after that.
    """
    from repro.api import Engine

    def reopen(crash: bool) -> tuple[float, bool]:
        paths = []
        for engine in engines:
            target = work.fresh("copy")
            if crash:
                recorder.crash_copy(Path(engine.path), target)
            else:
                shutil.copytree(engine.path, target)
            paths.append(target)
        opened: list[Any] = []

        def open_all() -> None:
            for path in paths:
                engine = Engine(path=str(path))
                opened.append(engine)
                conn = engine.connect()
                table = sorted(engine.catalog.names())[0]
                conn.execute(f"SELECT count(*) FROM {table}").rows

        try:
            elapsed = timed_s(open_all)
            ok = verify(opened) if crash else True
        finally:
            for engine in opened:
                engine.close()
            for path in paths:
                shutil.rmtree(path, ignore_errors=True)
        return elapsed, ok

    recoveries = [reopen(crash=True) for _ in range(copies)]
    while sum(t for t, _ in recoveries) < budget_s \
            and len(recoveries) < 101:
        recoveries.append(reopen(crash=True))
    logged = sum(wal_bytes(engine) for engine in engines)
    checkpoint_ms = timed_s(
        lambda: [engine.checkpoint() for engine in engines]) * 1e3
    snapshot_bytes = sum(file_bytes(engine, "snapshot.bin")
                         for engine in engines)
    clean = [reopen(crash=False)[0] for _ in range(min(3, copies))]
    return Durability(
        recover_s=median([t for t, _ in recoveries]),
        recover_samples=len(recoveries),
        reopen_clean_ms=median(clean) * 1e3,
        checkpoint_ms=checkpoint_ms,
        snapshot_bytes=snapshot_bytes,
        wal_bytes=logged,
        recovered_ok=all(ok for _, ok in recoveries))
