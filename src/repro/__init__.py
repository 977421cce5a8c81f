"""repro — a reproduction of *Provenance for Nested Subqueries*
(Glavic & Alonso, EDBT 2009).

A pure-Python, Perm-style provenance management system: a bag-semantics
relational engine with a SQL frontend whose ``SELECT PROVENANCE`` queries
are rewritten — via the paper's Gen / Left / Move / Unn strategies — into
plain relational algebra that computes each result tuple's Why-provenance
(Definition 2, extended provenance contribution) alongside the result.

Quickstart (the session API)::

    from repro import connect

    with connect() as conn:
        cur = conn.cursor()
        cur.execute("CREATE TABLE r (a int, b int)")
        cur.executemany("INSERT INTO r VALUES (?, ?)",
                        [(1, 1), (2, 1), (3, 2)])
        cur.execute("CREATE TABLE s (c int, d int)")
        cur.executemany("INSERT INTO s VALUES (?, ?)",
                        [(1, 3), (2, 4), (4, 5)])
        ps = conn.prepare(
            "SELECT PROVENANCE * FROM r WHERE a = ANY "
            "(SELECT c FROM s WHERE c < ?)")
        result = ps.execute((10,))
        print(result.pretty())
        print(result.witnesses(0))    # contributing input tuples

Multi-session: an :class:`Engine` owns the shared catalog, the
engine-wide plan cache and the reader-writer lock; ``engine.connect()``
mints thread-safe sessions with real ``BEGIN``/``COMMIT``/``ROLLBACK``
transactions under snapshot isolation::

    from repro import Engine

    engine = Engine()
    conn = engine.connect()
    with conn.transaction():
        conn.execute("INSERT INTO r VALUES (9, 9)")
        # invisible to other sessions until commit

Over the network: ``python -m repro.serve`` boots an asyncio server
speaking the PostgreSQL v3 wire protocol (``psql`` connects directly),
and :mod:`repro.client` provides async and blocking client connections —
see :mod:`repro.server`.

Prepared statements and cursors share the engine's LRU plan cache keyed
by ``(sql, strategy, session knobs, catalog version, stats version)``;
rewrite strategies — the built-in four included — resolve through the
pluggable registry in :mod:`repro.provenance.strategies`.
"""

from .api import (
    CachedPlan, Connection, Contribution, Cursor, Engine, PlanCache,
    PreparedStatement, Result, SessionConfig, Transaction, Witness,
    connect,
)
from .catalog import Catalog
from .datatypes import NULL, SQLType
from .engine import ExecutionStats, Executor
from .errors import (
    AnalyzerError,
    AuthenticationError,
    BindError,
    CatalogError,
    ConnectionLimitError,
    DatabaseError,
    DataError,
    Error,
    ExecutionError,
    ExpressionError,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    ProtocolError,
    ReproError,
    RewriteError,
    SchemaError,
    SerializationError,
    ServerShutdownError,
    SQLSyntaxError,
    StorageError,
    TransactionError,
    UnsupportedFeatureError,
    Warning,
)
from .provenance import ProvenanceRewriter, RewriteResult
from .relation import Relation
from .schema import Attribute, Schema

__version__ = "1.2.0"

#: DB-API 2.0 module interface (PEP 249).
apilevel = "2.0"
#: Threads may share the module (and an :class:`Engine` — each thread
#: takes its own session via ``engine.connect()``), but not a single
#: :class:`Connection`.
threadsafety = 1
#: ``?`` positional parameter markers.
paramstyle = "qmark"

__all__ = [
    "Attribute", "CachedPlan", "Catalog", "Connection", "Contribution",
    "Cursor", "Engine", "ExecutionStats", "Executor", "NULL",
    "PlanCache", "PreparedStatement", "ProvenanceRewriter", "Relation",
    "Result", "RewriteResult", "SQLType", "Schema", "SessionConfig",
    "Transaction", "Witness", "connect",
    "apilevel", "paramstyle", "threadsafety",
    "AnalyzerError", "AuthenticationError", "BindError", "CatalogError",
    "ConnectionLimitError", "DataError",
    "DatabaseError", "Error", "ExecutionError", "ExpressionError",
    "IntegrityError", "InterfaceError", "InternalError",
    "NotSupportedError", "OperationalError", "ProgrammingError",
    "ProtocolError", "ReproError", "RewriteError", "SQLSyntaxError",
    "SchemaError", "SerializationError", "ServerShutdownError",
    "StorageError", "TransactionError", "UnsupportedFeatureError",
    "Warning",
    "__version__",
]
