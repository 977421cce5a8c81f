"""The engine-wide LRU plan cache.

Planned statements are cached per :class:`~repro.api.engine.Engine` — shared
by every session on it — keyed by ``(sql text, strategy, session knobs,
catalog version, statistics version)``; see
:meth:`repro.api.Connection._plan_key`.  Because the catalog's DDL
generation counter *and* its statistics generation are part of the key,
any DDL (CREATE/DROP of tables, views or indexes) or ``ANALYZE`` makes
every previously cached plan unreachable — cost-based plans are never
served against statistics or indexes they were not costed with; stale
entries are evicted by LRU order as new plans come in.

Thread safety is two-level:

* the cache's own bookkeeping (the LRU ordering and the hit/miss
  counters) is guarded by an internal lock, so concurrent sessions can
  probe and fill it freely;
* physical plan *instances* carry per-execution operator state between
  ``open`` and ``close``, so one instance must never be driven by two
  executions at once.  Each :class:`CachedPlan` therefore manages a small
  pool: :meth:`CachedPlan.acquire_physical` leases an exclusive instance
  (re-lowering the logical plan when the pool is empty — concurrent
  executions of the same statement each get their own operator tree) and
  :meth:`CachedPlan.release_physical` returns it.  Single-session use
  leases the same instance every time, with no extra lowering.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

from ..algebra.operators import Operator
from ..engine.physical import PhysicalPlan
from ..provenance.naming import BaseAccess

#: Leased-and-returned physical instances kept per cached plan; beyond
#: this, returned instances are dropped (re-lowered on future demand).
_POOL_CAP = 4


@dataclass
class CachedPlan:
    """One compiled query: the (already optimized) logical plan, its
    physical lowering, and the bits needed to execute and describe it
    without re-planning."""

    plan: Operator
    param_count: int
    strategy: str | None            # effective strategy, None = no rewrite
    #: template physical plan (pool seed); its nodes carry the
    #: batch-compiled expression closures, so a cache hit skips lowering
    #: *and* expression compilation.
    physical: PhysicalPlan | None = None
    #: provenance base accesses recorded by the rewrite (None when the
    #: statement was not a provenance query) — carried into
    #: :class:`repro.api.result.Result` for the witness accessors.
    accesses: list[BaseAccess] | None = None
    #: physical instances currently leased (acquired, not yet returned).
    #: Observable through :meth:`PlanCache.leased_instances` — a non-zero
    #: steady-state value means some execution path abandoned a streaming
    #: result without closing it.
    leased: int = 0
    _pool: list[PhysicalPlan] = field(default_factory=list, repr=False)
    _pool_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False)

    def __post_init__(self) -> None:
        if self.physical is not None:
            self._pool.append(self.physical)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.plan.schema.names

    # -- physical-instance leasing -------------------------------------------

    def acquire_physical(self, lower: Callable[[], PhysicalPlan]
                         ) -> PhysicalPlan:
        """Lease an exclusive physical instance, lowering a fresh one via
        *lower* when every pooled instance is in use."""
        with self._pool_lock:
            self.leased += 1
            if self._pool:
                return self._pool.pop()
        try:
            instance = lower()
        except BaseException:
            with self._pool_lock:
                self.leased -= 1    # nothing was handed out
            raise
        return instance

    def release_physical(self, instance: PhysicalPlan) -> None:
        """Return a leased instance to the pool (dropped when full)."""
        with self._pool_lock:
            self.leased -= 1
            if len(self._pool) < _POOL_CAP:
                self._pool.append(instance)


class PlanCache:
    """A tiny lock-guarded LRU mapping from plan keys to
    :class:`CachedPlan` objects."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key: Hashable) -> CachedPlan | None:
        """The cached plan for *key* without touching counters or LRU
        order — for callers that do not yet know whether the statement is
        cacheable (e.g. un-parsed text that may turn out to be DDL)."""
        with self._lock:
            return self._entries.get(key)

    def lookup(self, key: Hashable) -> CachedPlan | None:
        """The cached plan for *key*, bumping it to most-recently-used."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: Hashable, plan: CachedPlan) -> None:
        """Insert *plan*, evicting the least-recently-used entry if full.

        Two sessions racing to plan the same statement both store; the
        later entry wins and the earlier one ages out — duplicate
        planning work, never a correctness problem.
        """
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def leased_instances(self) -> int:
        """Physical instances currently leased across all cached plans.

        Zero at quiescence; a persistent positive value is a leak — a
        streaming :class:`~repro.api.result.Result` was abandoned
        without :meth:`~repro.api.result.Result.close` (e.g. a network
        client vanished mid-stream and the server failed to clean up).
        """
        with self._lock:
            return sum(entry.leased for entry in self._entries.values())

    def stats(self) -> dict[str, int]:
        """Counters for monitoring: hits, misses, current size, capacity."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "capacity": self.capacity,
        }
