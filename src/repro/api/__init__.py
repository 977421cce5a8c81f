"""The public session API: ``Engine`` / ``Connection`` / ``Cursor`` /
``PreparedStatement`` / ``Result``.

A DB-API-2.0-flavored layer over the SQL frontend, provenance rewriter
and executor.  The :class:`Engine` is the shared, thread-safe core — one
catalog, one lock-guarded plan cache, snapshot-isolated transactions —
and every :class:`Connection` is a lightweight session on one::

    from repro import Engine, connect

    engine = Engine()
    conn = engine.connect()          # sessions share catalog + plan cache
    solo = connect()                 # or: a private engine per connection

    cur = conn.cursor()
    cur.execute("CREATE TABLE r (a int, b int)")
    cur.executemany("INSERT INTO r VALUES (?, ?)",
                    [(1, 1), (2, 1), (3, 2)])
    with conn.transaction():         # snapshot isolation
        cur.execute("DELETE FROM r WHERE b = 1")
    result = conn.execute("SELECT * FROM r")   # streaming Result
    for row in result:
        ...
"""

from .config import SessionConfig
from .connection import Connection, connect
from .cursor import Cursor
from .engine import Engine
from .plan_cache import CachedPlan, PlanCache
from .prepared import PreparedStatement
from .result import Contribution, Result, Witness
from .transaction import Transaction

__all__ = [
    "CachedPlan", "Connection", "Contribution", "Cursor", "Engine",
    "PlanCache", "PreparedStatement", "Result", "SessionConfig",
    "Transaction", "Witness", "connect",
]
