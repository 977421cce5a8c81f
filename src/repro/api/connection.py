"""The session object: a lightweight, transactional view over a shared
:class:`~repro.api.engine.Engine`.

A :class:`Connection` is the public entry point of the library::

    from repro import connect

    with connect() as conn:
        cur = conn.cursor()
        cur.execute("CREATE TABLE r (a int, b int)")
        cur.execute("INSERT INTO r VALUES (?, ?)", (1, 1))
        ps = conn.prepare("SELECT PROVENANCE * FROM r WHERE a = ?")
        print(ps.execute((1,)).pretty())

``connect()`` mints a private engine; ``Engine().connect()`` mints
sessions sharing one catalog, plan cache and lock across threads.  Three
execution surfaces share them — and one SELECT path: each plans with
:meth:`Connection._plan` and executes with
:meth:`Connection._execute_plan`; they differ only in plan caching and
in whether the result arrives streaming or drained:

* :meth:`cursor` / :meth:`execute` — DB-API-flavored, plan-cached,
  returning streaming :class:`~repro.api.result.Result` objects.
* :meth:`prepare` — parse/plan once, re-execute with new bindings.
* :meth:`sql` / :meth:`provenance` / :meth:`execute_script` — one-shot
  helpers that deliberately bypass the plan cache (every call re-plans;
  the cache and its counters are untouched) and return fully drained
  results — the un-cached complete runs the figure benchmarks time.
  :meth:`plan` / :meth:`explain` show the plan.

Transactions are real: ``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` (or
:meth:`begin` / :meth:`commit` / :meth:`rollback` /
``with conn.transaction():``) give snapshot isolation — reads see the
state as of ``BEGIN`` plus the transaction's own writes; commits are
first-committer-wins.  In autocommit mode (the default) every statement
is its own transaction: reads run lock-free against a per-statement
snapshot, writes serialize on the engine's write lock.

Plans are cached engine-wide under ``(sql text, strategy override,
session planning knobs, catalog version, statistics version)``; the
catalog's generation counter is bumped by every DDL statement and the
statistics generation by every ``ANALYZE``, so any change the cost-based
planner's decisions depend on invalidates all cached plans for the old
state.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..catalog import Catalog
from ..datatypes import SQLType
from ..errors import (
    AnalyzerError, InterfaceError, ProgrammingError, ReproError,
    SerializationError,
)
from ..engine import ExecutionStats, Executor
from ..engine.cost import CardinalityEstimator
from ..engine.physical import PhysicalPlan, explain_physical
from ..expressions.ast import Expr
from ..expressions.compiler import compile_row
from ..expressions.evaluator import EvalContext
from ..algebra.operators import Operator
from ..algebra.printer import explain as explain_plan
from ..provenance import ProvenanceRewriter
from ..provenance.naming import BaseAccess
from ..provenance.strategies import AUTO
from ..schema import Attribute, Schema
from ..sql.analyzer import Analyzer
from ..sql.ast import (
    AnalyzeStmt, BeginStmt, CheckpointStmt, CommitStmt, CreateIndexStmt,
    CreateTableStmt, CreateViewStmt, DeleteStmt, DropStmt, InsertStmt,
    RollbackStmt, SelectStmt, Statement,
)
from ..sql.parser import parse_statement, parse_statements
from .config import SessionConfig
from .cursor import Cursor
from .engine import Engine
from .plan_cache import CachedPlan, PlanCache
from .prepared import PreparedStatement, check_arity
from .result import Result
from .transaction import Transaction

#: Upper bound on autocommit statement retries after serialization
#: conflicts.  Each retry means a concurrent commit made progress, so
#: this is a livelock tripwire, not a latency budget.
_AUTOCOMMIT_RETRIES = 1000


class Connection:
    """An in-process session over a shared engine, with a per-session
    config, transaction state, and access to the engine-wide plan cache."""

    def __init__(self, config: SessionConfig | None = None,
                 catalog: Catalog | None = None,
                 engine: Engine | None = None,
                 path: str | None = None) -> None:
        if engine is not None:
            if catalog is not None and catalog is not engine.catalog:
                raise InterfaceError(
                    "pass either an engine or a catalog, not both")
            if path is not None:
                raise InterfaceError(
                    "pass either an engine or a path, not both — open "
                    "the durable engine first and connect() to it")
            self._engine = engine
            self._private_engine = False
            self.config = config or engine.config
            if engine.storage is not None and \
                    self.config.durability != engine.storage.durability:
                # the WAL's fsync policy was fixed when the directory
                # opened; a session believing in a different guarantee
                # is a bug waiting for a power cut
                raise InterfaceError(
                    f"durability is fixed at engine open "
                    f"({engine.storage.durability!r}); pass it to "
                    f"Engine(path=..., config=...) instead of a "
                    f"session")
        else:
            self.config = config or SessionConfig()
            self._engine = Engine(self.config, catalog, path=path)
            self._private_engine = True
        self.last_stats: ExecutionStats | None = None
        #: autocommit (the default): every statement is its own
        #: transaction.  Set False to have the first statement implicitly
        #: BEGIN; the transaction then stays open until commit/rollback.
        self.autocommit = self.config.autocommit
        self._txn: Transaction | None = None
        self._txn_cache: PlanCache | None = None
        self._closed = False
        # guards transitions of the transaction state (_txn) so that
        # close() from another thread — e.g. a server tearing down a
        # dead client while its statement thread is still running —
        # serializes against begin/commit/rollback instead of racing
        # them into a double rollback
        self._state_lock = threading.Lock()
        # live streaming Results minted by this session; close() sweeps
        # them so abandoned streams release their leased plan instances
        # (weak: a GC'd Result's generator finalizer already releases)
        self._live_results: "weakref.WeakSet" = weakref.WeakSet()
        self._engine.register(self)

    # -- shared state ---------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The engine core this session runs on (private unless the
        connection came from :meth:`Engine.connect`)."""
        return self._engine

    @property
    def catalog(self) -> Catalog:
        """The engine's live, shared catalog."""
        return self._engine.catalog

    @property
    def plan_cache(self) -> PlanCache:
        """The engine-wide plan cache (shared by every session)."""
        return self._engine.plan_cache

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the session: roll back any open transaction (releasing
        its snapshot) and deregister from the engine.  Idempotent and
        thread-safe — concurrent close() calls (or a close racing a
        commit/rollback on another thread) run the teardown exactly
        once.  A private engine closes with its only session; a shared
        engine (and its plan cache) lives on.

        A statement already executing on another thread keeps running
        against its pinned snapshot; only the *next* call on this
        session observes the closed state.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            txn, self._txn = self._txn, None
            self._txn_cache = None
            if txn is not None:
                txn.rollback()
        for result in list(self._live_results):
            result.close()
        self._engine.release(self)
        if self._private_engine:
            self._engine.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- transactions ----------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while an explicit (or autocommit=False implicit)
        transaction is open."""
        return self._txn is not None

    def begin(self) -> None:
        """Open a snapshot-isolated transaction (SQL: ``BEGIN``).

        Until commit/rollback, every read sees the catalog as of this
        moment plus the transaction's own writes; writes stay private.
        """
        with self._state_lock:
            self._check_open()
            if self._txn is not None:
                raise ProgrammingError(
                    "a transaction is already in progress")
            self._txn = self._engine.begin()
            self._txn_cache = None

    def commit(self) -> None:
        """Publish the open transaction's changes atomically (SQL:
        ``COMMIT``).  First-committer-wins: raises
        :class:`~repro.errors.TransactionError` if a concurrently
        committed transaction changed a table this one wrote (state is
        rolled back).  Without an open transaction this is a no-op
        (DB-API compatibility for autocommit sessions)."""
        with self._state_lock:
            self._check_open()
            txn, self._txn = self._txn, None
            self._txn_cache = None
            if txn is not None:
                txn.commit()

    def rollback(self) -> None:
        """Discard the open transaction: tables, indexes and statistics
        all revert to their pre-``BEGIN`` state (they were never touched
        — writes went to private copies).  Without an open transaction
        this is a no-op."""
        with self._state_lock:
            self._check_open()
            txn, self._txn = self._txn, None
            self._txn_cache = None
            if txn is not None:
                txn.rollback()

    @contextmanager
    def transaction(self) -> Iterator["Connection"]:
        """``with conn.transaction(): ...`` — begin, then commit on
        success or roll back on exception."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    # -- statement surfaces ---------------------------------------------------

    def cursor(self) -> Cursor:
        """A new cursor sharing this session's transaction state and the
        engine's plan cache."""
        self._check_open()
        return Cursor(self)

    def prepare(self, sql: str,
                strategy: str | None = None) -> PreparedStatement:
        """Parse (and, for SELECTs, plan) *sql* once for repeated execution.

        *strategy* overrides the strategy named in the SQL text; it is only
        meaningful for provenance queries.
        """
        self._check_open()
        return PreparedStatement(self, sql, strategy)

    def execute(self, sql: str,
                params: Sequence[Any] = ()) -> Result | int | None:
        """Execute one statement through the plan cache.

        SELECTs return a streaming :class:`~repro.api.result.Result`,
        INSERT/DELETE the affected row count, DDL and transaction
        control None.
        """
        self._check_open()
        return self._execute_text(sql, params)

    def execute_script(self, text: str) -> None:
        """Execute a ``;``-separated script, discarding SELECT outputs."""
        self._check_open()
        for statement in parse_statements(text):
            self._run_statement(statement, ())

    # -- one-shot helpers (uncached) ------------------------------------------

    def sql(self, text: str, strategy: str | None = None,
            params: Sequence[Any] = ()) -> Result:
        """Run a SELECT (optionally ``SELECT PROVENANCE``) without the
        plan cache — planned afresh on every call — and return the
        fully drained result.

        *strategy* overrides the strategy named in the SQL text.
        """
        self._check_open()
        return self._run_select(_parse_select(text, "sql()"), strategy,
                                params)

    def provenance(self, text: str, strategy: str = AUTO,
                   params: Sequence[Any] = ()) -> Result:
        """Compute the provenance of a plain SELECT query (uncached and
        drained, like :meth:`sql`)."""
        self._check_open()
        return self._run_select(_parse_select(text, "provenance()"),
                                strategy or AUTO, params)

    def plan(self, text: str, strategy: str | None = None) -> Operator:
        """The algebra plan a query would execute (after any rewrite,
        before the optimizer)."""
        self._check_open()
        return self._logical_plan(
            _parse_select(text, "plan()"), strategy, self._read_catalog(),
            optimized=False)[0]

    def explain(self, text: str, strategy: str | None = None) -> str:
        """EXPLAIN-style rendering of the logical (rewritten) plan."""
        return explain_plan(self.plan(text, strategy))

    def explain_physical(self, text: str,
                         strategy: str | None = None) -> str:
        """EXPLAIN-style rendering of the *physical* plan: the lowered
        operator tree the executor runs, with join algorithms and
        InitPlan/SubPlan sublink classification visible."""
        self._check_open()
        lowered = self._plan(_parse_select(text, "explain_physical()"),
                             strategy, self._read_catalog()).physical
        if self.config.engine == "vectorized":
            # show the plan as the vectorized engine would run it, with
            # per-node [columnar]/[rows] batch-format tags
            from ..engine.vectorized import vectorize_plan
            vectorize_plan(lowered)
        return explain_physical(lowered)

    def estimate_rows(self, text: str, strategy: str | None = None) -> float:
        """The cost model's cardinality estimate for a SELECT — the row
        count ``EXPLAIN`` would show on the plan root, without executing
        anything."""
        self._check_open()
        catalog = self._read_catalog()
        estimator = CardinalityEstimator(catalog)
        plan = self._logical_plan(
            _parse_select(text, "estimate_rows()"), strategy, catalog,
            estimator)[0]
        return estimator.estimate(plan)

    def explain_analyze(self, text: str, params: Sequence[Any] = (),
                        strategy: str | None = None) -> str:
        """Execute the query and render its physical plan annotated with
        per-node actual rows / batches / loops / inclusive time.

        Runs through the plan cache, so the analyzed plan is the one a
        normal execution would use.
        Under ``engine="vectorized"`` every node is tagged with its
        batch format and a summary line counts vector-kernel vs
        row-fallback nodes.
        """
        self._check_open()
        catalog = self._read_catalog()
        cached = self._get_plan(
            text, strategy, _parse_select(text, "explain_analyze()"),
            catalog)
        instance = cached.acquire_physical(
            lambda: self._lower(cached.plan, catalog))
        try:
            executor = Executor(catalog, optimize=False, config=self.config)
            relation = executor.execute_physical(
                instance, check_arity(cached.param_count, params))
            stats = self._finish_stats(executor)
            root = stats.node_stats.get(id(instance.root))
            lines = [explain_physical(instance, stats=stats)]
            footer = (f"Result: {len(relation.rows)} row(s), "
                      f"{root.batches if root else 0} batch(es), "
                      f"batch size {self.config.batch_size}")
            if stats.hashed_sublinks:
                footer += (f", {stats.hashed_sublinks} hashed "
                           f"sublink(s)")
            lines.append(footer)
            if self.config.engine == "vectorized":
                lines.append(
                    f"Vectorized: {stats.vectorized_nodes} columnar "
                    f"node(s), {stats.row_fallback_nodes} row-fallback "
                    f"node(s)")
            return "\n".join(lines)
        finally:
            cached.release_physical(instance)

    def create_view(self, name: str, text: str) -> None:
        """Register a view over a SELECT statement."""
        self._check_open()
        statement = parse_statement(text)
        if not isinstance(statement, SelectStmt):
            raise AnalyzerError("a view must be defined by a SELECT")
        if statement.param_count:
            raise AnalyzerError(
                "a view definition cannot contain ? parameters")
        self._write(lambda txn: txn.run_ddl("create_view", name, statement))

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]],
                     partition_by: str | None = None,
                     partitions: int = 0) -> None:
        """Create a table from ``(column, type-name)`` pairs.

        ``partition_by``/``partitions`` declare hash partitioning — the
        API spelling of ``PARTITION BY HASH(col) PARTITIONS n``."""
        self._check_open()
        schema = Schema(
            Attribute(column, SQLType.parse(type_name))
            for column, type_name in columns)
        spec = (partition_by, partitions) if partition_by else None
        self._write(
            lambda txn: txn.create_table(name, schema, partition=spec))

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert rows; returns the number of rows inserted.

        One transaction per call: secondary indexes are maintained in
        step, and a unique violation rolls the whole statement back.
        """
        self._check_open()
        # materialized up front: the autocommit path may retry the
        # statement after a serialization conflict, and a generator
        # argument would arrive exhausted on the second attempt
        rows = list(rows)
        return self._write(lambda txn: txn.insert_rows(table, rows))

    # -- planning internals ---------------------------------------------------

    def _parse(self, sql: str) -> Statement:
        return parse_statement(sql)

    def _read_catalog(self) -> Catalog:
        """The catalog this session's reads should see: the open
        transaction's private snapshot, or a fresh per-statement snapshot
        (autocommit) — never the live shared dicts, so a concurrent
        commit can never tear a statement mid-plan or mid-scan."""
        if self._txn is not None:
            return self._txn.catalog
        return self._engine.snapshot()

    def _implicit_begin(self) -> None:
        """Open the implicit DB-API transaction when ``autocommit`` is
        off — called by both SELECT entries (:meth:`_run_select`,
        :meth:`_run_select_cached`), so repeatable reads hold regardless
        of which surface ran the statement."""
        if self._txn is None and not self.autocommit:
            self.begin()

    def _active_cache(self) -> PlanCache:
        """The plan cache for the current state: engine-wide normally;
        a small transaction-local cache once the transaction performed
        private DDL/ANALYZE (its catalog versions no longer describe any
        state the shared cache's keys could safely match)."""
        if self._txn is not None and self._txn.diverged:
            if self._txn_cache is None:
                self._txn_cache = PlanCache(16)
            return self._txn_cache
        return self.plan_cache

    def _effective_strategy(self, statement: SelectStmt,
                            override: str | None) -> str | None:
        """The strategy a SELECT will be rewritten with (None = no rewrite).

        Priority: explicit per-call override, then the strategy named in
        the SQL text; a plain ``SELECT PROVENANCE`` (= ``"auto"``) defers
        to the session's ``default_strategy``.
        """
        strategy = override if override is not None \
            else statement.provenance
        if strategy == AUTO and self.config.default_strategy != AUTO:
            strategy = self.config.default_strategy
        return strategy

    def _lower(self, plan: Operator, catalog: Catalog,
               estimator: CardinalityEstimator | None = None
               ) -> PhysicalPlan:
        """Physical lowering with the given catalog and the session's
        index and parallelism knobs — the session's only spelling of it,
        so EXPLAIN output always describes the plan execution would run."""
        from ..engine.lowering import lower_plan
        physical = lower_plan(plan, catalog,
                              use_indexes=self.config.use_indexes,
                              estimator=estimator)
        workers = self.config.max_parallel_workers
        if workers >= 2 or catalog.partitions():
            from ..engine.parallel import parallelize_plan
            physical = parallelize_plan(
                physical, catalog, workers,
                self.config.parallel_threshold, self.config.engine)
        return physical

    def _logical_plan(self, statement: SelectStmt | DeleteStmt,
                      override: str | None,
                      catalog: Catalog,
                      estimator: CardinalityEstimator | None = None,
                      optimized: bool = True
                      ) -> tuple[Operator, list[BaseAccess] | None,
                                 str | None]:
        """analyze → (rewrite) → (optimize): the logical plan, the
        rewrite's base-access bookkeeping and the effective strategy;
        the statement is left untouched.  Every phase prices with the
        statement's one *estimator*."""
        estimator = estimator or CardinalityEstimator(catalog)
        strategy = self._effective_strategy(statement, override) \
            if isinstance(statement, SelectStmt) else None
        plan = Analyzer(catalog).analyze(statement)
        accesses: list[BaseAccess] | None = None
        if strategy:
            rewriter = ProvenanceRewriter(catalog, strategy, self.config,
                                          estimator)
            result = rewriter.rewrite_query(plan)
            plan, accesses = result.plan, result.accesses
        if optimized:
            from ..engine.optimizer import optimize
            plan = optimize(plan, catalog, estimator)
        return plan, accesses, strategy

    def _plan(self, statement: SelectStmt | DeleteStmt,
              override: str | None, catalog: Catalog) -> CachedPlan:
        """The one planner: analyze → rewrite → optimize → lower, into
        an executable (not yet cached) :class:`CachedPlan`.
        :meth:`_get_plan` wraps it with cache lookup/store; the one-shot
        surfaces call it directly."""
        estimator = CardinalityEstimator(catalog)
        plan, accesses, strategy = self._logical_plan(
            statement, override, catalog, estimator)
        return CachedPlan(plan, statement.param_count, strategy,
                          physical=self._lower(plan, catalog, estimator),
                          accesses=accesses)

    def _plan_key(self, sql: str, override: str | None,
                  catalog: Catalog | None = None) -> tuple:
        if catalog is None:
            catalog = self._read_catalog()
        # The statistics generation is part of the key: ANALYZE changes
        # the cost model's answers (and CREATE/DROP INDEX bumps the DDL
        # counter), so no stale cost-based plan is ever served.  The
        # session planning knobs are too — the cache is engine-wide now,
        # and sessions with different engines/planner settings must not
        # trade plans.
        return (sql, override, self.config.default_strategy,
                self.config.engine, self.config.use_indexes,
                self.config.max_parallel_workers,
                self.config.parallel_threshold,
                catalog.version, catalog.stats_version)

    def _get_plan(self, sql: str, override: str | None = None,
                  statement: SelectStmt | DeleteStmt | None = None,
                  catalog: Catalog | None = None) -> CachedPlan:
        """The cached plan for *sql*, compiling (and storing) on a miss.

        *statement* skips re-parsing when the caller already holds the
        parsed form (prepared statements).  The catalog version in the key
        means DDL-invalidated entries simply never match again.
        """
        if catalog is None:
            catalog = self._read_catalog()
        key = self._plan_key(sql, override, catalog)
        if isinstance(statement, DeleteStmt):
            # _execute_text probes the cache with the bare text before
            # parsing and runs whatever it finds as a SELECT
            key = ("delete", *key)
        cache = self._active_cache()
        cached = cache.lookup(key)
        if cached is None:
            if statement is None:
                statement = _parse_select(sql, "execute()")
            cached = self._plan(statement, override, catalog)
            cache.store(key, cached)
        return cached

    # -- execution internals --------------------------------------------------

    def _finish_stats(self, executor: Executor) -> ExecutionStats:
        stats = executor.stats
        stats.plan_cache_hits = self.plan_cache.hits
        stats.plan_cache_misses = self.plan_cache.misses
        self.last_stats = stats
        return stats

    def _execute_plan(self, cached: CachedPlan, params: tuple,
                      catalog: Catalog) -> Result:
        """Run an already-planned statement — the one place a SELECT
        meets an :class:`Executor` (no per-call optimizer or lowering:
        a leased physical instance streams directly)."""
        executor = Executor(catalog, optimize=False, config=self.config)
        instance = cached.acquire_physical(
            lambda: self._lower(cached.plan, catalog))

        def batches():
            try:
                yield from executor.stream_physical(instance, params)
            finally:
                cached.release_physical(instance)

        self._finish_stats(executor)    # counters update live as batches
        result = Result(instance.schema, batches(),  # are consumed
                        strategy=cached.strategy, accesses=cached.accesses)
        self._live_results.add(result)
        return result

    def _run_select(self, statement: SelectStmt,
                    override: str | None = None,
                    params: Sequence[Any] = ()) -> Result:
        """The one-shot SELECT entry (``sql`` / ``provenance`` /
        scripts): plan without touching the plan cache, execute, drain —
        so errors surface here and ``last_stats`` is final on return."""
        self._implicit_begin()
        catalog = self._read_catalog()
        cached = self._plan(statement, override, catalog)
        result = self._execute_plan(
            cached, check_arity(cached.param_count, params), catalog)
        result.rows     # drain; a failure releases the leased instance
        return result

    def _execute_text(self, sql: str,
                      params: Sequence[Any]) -> Result | int | None:
        """The cursor path: plan-cache lookup before parsing.

        The pre-parse probe is a counter-free :meth:`PlanCache.peek` so
        that DDL/DML statements (which can never be cached) do not inflate
        the miss counter; hit/miss accounting happens in
        :meth:`_get_plan`, once per cacheable statement.
        """
        if self._txn is None and not self.autocommit:
            # can't implicitly BEGIN before knowing whether the text is
            # itself transaction control — parse first on this path
            statement = self._parse(sql)
            if not isinstance(statement,
                              (BeginStmt, CommitStmt, RollbackStmt)):
                self.begin()                 # implicit DB-API transaction
            if isinstance(statement, SelectStmt):
                return self._run_select_cached(sql, statement, params)
            return self._run_statement(statement, params, sql)
        catalog = self._read_catalog()
        cache = self._active_cache()
        if cache.peek(self._plan_key(sql, None, catalog)) is not None:
            return self._run_select_cached(sql, None, params, catalog)
        statement = self._parse(sql)
        if isinstance(statement, SelectStmt):
            return self._run_select_cached(sql, statement, params, catalog)
        return self._run_statement(statement, params, sql)

    def _run_select_cached(self, sql: str, statement: SelectStmt | None,
                           params: Sequence[Any],
                           catalog: Catalog | None = None,
                           override: str | None = None) -> Result:
        """The cached SELECT entry (``execute`` / cursors / prepared
        statements): plan-cache lookup (hit counting included) +
        streaming execution."""
        if catalog is None:
            self._implicit_begin()
            catalog = self._read_catalog()
        cached = self._get_plan(sql, override, statement, catalog)
        return self._execute_plan(
            cached, check_arity(cached.param_count, params), catalog)

    def _write(self, apply: Callable[[Transaction], Any]) -> Any:
        """Run one write operation transactionally: inside the open
        transaction when there is one (implicitly beginning one when
        ``autocommit`` is off), otherwise as a one-statement
        transaction.

        Autocommit statements no longer serialize on a global writer
        lock — the commit locks only its conflict set — so a statement
        can lose a first-committer-wins race against a concurrent
        commit on the same table.  Statement-level semantics absorb
        that: the statement re-applies on a fresh snapshot and tries
        again.  The retry bound is progress-bounded, not time-bounded —
        each retry means some *other* commit succeeded — and generous
        enough that hitting it indicates a livelock bug, which should
        surface rather than spin forever.
        """
        if self._txn is not None:
            return apply(self._txn)
        if not self.autocommit:
            self.begin()
            return apply(self._txn)
        last: "SerializationError | None" = None
        for _ in range(_AUTOCOMMIT_RETRIES):
            txn = self._engine.begin()
            try:
                result = apply(txn)
                txn.commit()
                return result
            except SerializationError as exc:
                last = exc
                if not txn.finished:
                    txn.rollback()
            except BaseException:
                txn.rollback()
                raise
        raise last if last is not None else InterfaceError(
            "autocommit retry loop exited without an error")

    @contextmanager
    def _bulk(self) -> Iterator[None]:
        """Group many write statements into one transaction (the
        ``executemany`` fast path: one copy-on-write privatization and
        one commit for the whole batch)."""
        if self._txn is not None or not self.autocommit:
            yield
            return
        with self._engine.exclusive():
            self._txn = self._engine.begin()
            try:
                yield
            except BaseException:
                txn, self._txn = self._txn, None
                if txn is not None:
                    txn.rollback()
                raise
            else:
                txn, self._txn = self._txn, None
                self._txn_cache = None
                if txn is not None:
                    txn.commit()

    def _run_statement(self, statement: Statement,
                       params: Sequence[Any] = (),
                       sql: str | None = None) -> Result | int | None:
        """Execute a parsed statement (the non-plan-cached dispatch;
        *sql*, when the caller has the text, lets a ``DELETE ... WHERE``
        cache its scan's plan under it)."""
        values = check_arity(getattr(statement, "param_count", 0), params)
        if isinstance(statement, SelectStmt):
            return self._run_select(statement, params=values)
        if isinstance(statement, BeginStmt):
            self.begin()
            return None
        if isinstance(statement, CommitStmt):
            self.commit()
            return None
        if isinstance(statement, RollbackStmt):
            self.rollback()
            return None
        if isinstance(statement, CheckpointStmt):
            self._engine.checkpoint()
            return None
        return self._write(
            lambda txn: self._apply_statement(txn, statement, values, sql))

    def _apply_statement(self, txn: Transaction, statement: Statement,
                         values: tuple, sql: str | None = None
                         ) -> int | None:
        """Apply one write statement to a transaction's private state."""
        if isinstance(statement, CreateTableStmt):
            schema = Schema(
                Attribute(column, SQLType.parse(type_name))
                for column, type_name in statement.columns)
            spec = (statement.partition_by, statement.partitions) \
                if statement.partition_by else None
            txn.create_table(statement.name, schema, partition=spec)
            return None
        if isinstance(statement, CreateViewStmt):
            txn.run_ddl("create_view", statement.name, statement.query)
            return None
        if isinstance(statement, InsertStmt):
            rows = [[_constant(expr, values) for expr in row]
                    for row in statement.rows]
            return txn.insert_rows(statement.table, rows)
        if isinstance(statement, CreateIndexStmt):
            txn.run_ddl("create_index", statement.name, statement.table,
                        statement.column, kind=statement.kind,
                        unique=statement.unique)
            return None
        if isinstance(statement, AnalyzeStmt):
            txn.run_ddl("analyze", statement.table)
            return None
        if isinstance(statement, DropStmt):
            if statement.kind == "view":
                if not txn.catalog.has_view(statement.name):
                    raise AnalyzerError(
                        f"view {statement.name!r} does not exist")
                txn.run_ddl("drop_view", statement.name)
            elif statement.kind == "index":
                txn.run_ddl("drop_index", statement.name)
            else:
                txn.drop_table(statement.name)
            return None
        if isinstance(statement, DeleteStmt):
            return self._delete(txn, statement, values, sql)
        raise ReproError(f"unsupported statement {statement!r}")

    def _delete(self, txn: Transaction, statement: DeleteStmt,
                params: tuple, sql: str | None) -> int:
        stored = txn.table_for_write(statement.table)
        if statement.where is None:
            removed_rows = stored.rows
            stored.rows = []    # rebind: open streams keep the old list
            txn.delete_rows(statement.table, removed_rows)
            return len(removed_rows)
        # The scan of the doomed rows is planned and run like a SELECT.
        # Removal is by value: an index or an engine may hand back a
        # tuple that is equal to, but not the same object as, the stored
        # one — and equal stored tuples share the predicate's fate.
        catalog = txn.catalog
        cached = self._plan(statement, None, catalog) if sql is None \
            else self._get_plan(sql, None, statement, catalog)
        doomed = set(self._execute_plan(cached, params, catalog).rows)
        kept = []
        removed_rows = []
        for row in stored.rows:
            (removed_rows if row in doomed else kept).append(row)
        stored.rows = kept      # rebind: open streams keep the old list
        txn.delete_rows(statement.table, removed_rows)
        return len(removed_rows)


def connect(config: SessionConfig | None = None,
            catalog: Catalog | None = None, path: str | None = None,
            **options: Any) -> Connection:
    """Open a session on a new private engine.

    Keyword *options* are :class:`SessionConfig` fields, as a shorthand::

        conn = connect(default_strategy="left", plan_cache_size=64)

    *path* opens (or creates, or crash-recovers) a **durable** database
    directory — snapshot plus write-ahead log::

        conn = connect(path="/data/mydb")     # open-or-recover
        conn.execute("CHECKPOINT")            # compact WAL -> snapshot

    To share one engine between sessions (threads), create an
    :class:`~repro.api.engine.Engine` and call its ``connect()`` instead.
    """
    if options:
        if config is not None:
            config = config.with_options(**options)
        else:
            config = SessionConfig(**options)
    return Connection(config, catalog, path=path)


def _constant(expr: Expr, params: tuple = ()) -> Any:
    """Evaluate a constant expression (INSERT VALUES; ? params allowed)."""
    return compile_row(expr, {})[0]((), EvalContext((), None, params))


def _parse_select(text: str, surface: str) -> SelectStmt:
    """Parse *text*, which *surface* requires to be a SELECT."""
    statement = parse_statement(text)
    if not isinstance(statement, SelectStmt):
        raise AnalyzerError(f"{surface} expects a SELECT statement")
    return statement
