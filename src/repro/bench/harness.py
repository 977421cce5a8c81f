"""Timing harness with per-case timeouts.

The paper excludes runs over six hours; at reproduction scale the
equivalent is a per-case wall-clock budget enforced with ``SIGALRM``
(the executor is pure Python, so the alarm interrupts it cleanly).

The query-timing helpers take a :class:`~repro.api.Connection` and run
its *uncached* one-shot surfaces (``provenance()`` / ``sql()``), so
figure measurements are never contaminated by the plan cache.
:func:`time_prepared_query` times the cached-plan path explicitly, for the
prepared-statement micro-benchmark.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Sequence

from ..api import Connection


class Timeout(Exception):
    """A benchmark case exceeded its wall-clock budget."""


@dataclass
class BenchResult:
    """Outcome of one timed query execution."""

    seconds: float | None          # None when timed out
    rows: int | None
    timed_out: bool = False

    @property
    def label(self) -> str:
        if self.timed_out:
            return "timeout"
        return f"{self.seconds:.3f}s"


def _alarm_handler(signum, frame):  # pragma: no cover - signal plumbing
    raise Timeout()


def run_with_timeout(fn, timeout_s: float | None) -> BenchResult:
    """Call *fn* (returning a relation) under a wall-clock budget."""
    if timeout_s is None:
        start = time.perf_counter()
        relation = fn()
        return BenchResult(time.perf_counter() - start, len(relation.rows))
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        start = time.perf_counter()
        relation = fn()
        elapsed = time.perf_counter() - start
        return BenchResult(elapsed, len(relation.rows))
    except Timeout:
        return BenchResult(None, None, timed_out=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def time_provenance_query(conn: Connection, sql: str, strategy: str,
                          timeout_s: float | None = None) -> BenchResult:
    """Time one provenance query under *strategy* (uncached planning)."""
    return run_with_timeout(
        lambda: conn.provenance(sql, strategy=strategy), timeout_s)


def time_plain_query(conn: Connection, sql: str,
                     timeout_s: float | None = None) -> BenchResult:
    """Time the original (non-provenance) query, as a baseline."""
    return run_with_timeout(lambda: conn.sql(sql), timeout_s)


def time_prepared_query(conn: Connection, sql: str,
                        strategy: str | None = None,
                        params: Sequence = (),
                        timeout_s: float | None = None) -> BenchResult:
    """Time one execution of *sql* through a prepared statement.

    The statement is prepared (and its plan cached) outside the timed
    section, so the measurement covers only bind + execute — the steady
    state of a repeatedly executed prepared statement.
    """
    statement = conn.prepare(sql, strategy=strategy)
    return run_with_timeout(lambda: statement.execute(params), timeout_s)
