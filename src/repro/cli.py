"""Interactive SQL shell (``python -m repro``).

A psql-flavoured REPL over an in-memory session
(:class:`~repro.api.Connection`):

=====================  ===================================================
command                effect
=====================  ===================================================
``\\d``                 list tables, views and indexes
``\\d <table>``         describe a table (columns, indexes, statistics)
``\\strategy [name]``   show / set the default provenance strategy
``\\explain <select>``  print the physical plan (after rewrite + lowering)
``\\stats [table]``     show collected planner statistics
``\\timing``            toggle per-query timing
``\\cache``             show plan-cache statistics
``\\tpch [scale]``      load a TPC-H instance into the session
``\\i <file>``          run a SQL script
``\\save [dir]``        checkpoint the durable database (or export the
                       in-memory session as a database directory)
``\\open <dir>``        open (or crash-recover) a durable database
``\\connect h:p [u]``   attach to a wire server (``python -m repro.serve``)
``\\disconnect``        detach from the server, back to the local session
``\\q``                 quit
=====================  ===================================================

While ``\\connect host:port [user[:password] [database]]`` is attached,
SQL goes to the remote server over the PostgreSQL wire protocol through
:class:`repro.client.SyncConnection` — transactions, errors and command
tags behave exactly as against a local session, and the prompt shows the
remote address.  Catalog meta commands (``\\d``, ``\\stats``, ...) keep
operating on the *local* session and say so.

SQL-level plan inspection mirrors PostgreSQL: ``EXPLAIN <select>``
prints the physical plan — with the cost model's estimated rows and
costs per node — without running it; ``EXPLAIN ANALYZE <select>``
executes the query and prints estimated-vs-actual rows plus batches /
loops / wall-clock time per operator.  ``ANALYZE [table]`` collects the
statistics those estimates come from, and ``CREATE [UNIQUE] INDEX name
ON table (column) [USING hash|sorted]`` / ``DROP INDEX name`` manage the
secondary indexes the cost-based planner may scan or probe.

Transactions work as in psql: ``BEGIN`` opens a snapshot-isolated
transaction (the prompt shows ``repro*>`` while one is open),
``COMMIT`` publishes it atomically and ``ROLLBACK`` discards it —
restoring tables, indexes and statistics to their pre-``BEGIN`` state.

Durability: ``\\open <dir>`` switches the session onto a durable engine
over that database directory (created, opened, or crash-recovered —
snapshot plus committed WAL suffix); from then on every commit is
write-ahead-logged per the session's ``durability`` config, and
``CHECKPOINT`` (or ``\\save``) compacts the log into a fresh snapshot.
``\\save <dir>`` from an in-memory session exports the current catalog
as a database directory that ``\\open`` can load later.

Everything else is executed as SQL (``SELECT PROVENANCE ...`` included)
through the session's plan cache, so repeating a query skips planning.
Start with ``python -m repro --strategy left`` to pick the default
strategy up front; names resolve through the strategy registry.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .api import Connection
from .errors import ReproError
from .provenance import strategies


class Shell:
    """State and command dispatch for the REPL."""

    def __init__(self, conn: Connection | None = None):
        self.conn = conn or Connection()
        self.timing = False
        #: wire connection while ``\connect``-ed to a server, else None
        self.remote = None
        self.remote_name = ""

    @property
    def strategy(self) -> str:
        return self.conn.config.default_strategy

    @strategy.setter
    def strategy(self, name: str) -> None:
        # Deliberately unvalidated: an unknown name surfaces as a query
        # error, matching the historic shell behaviour.
        self.conn.config.default_strategy = name

    # -- meta commands --------------------------------------------------------

    def run_meta(self, line: str, out) -> bool:
        """Handle a backslash command; returns False to quit."""
        parts = line.split()
        command, args = parts[0], parts[1:]
        if command in ("\\q", "\\quit"):
            self._disconnect(out, quiet=True)
            return False
        if self.remote is not None and command in (
                "\\d", "\\strategy", "\\explain", "\\stats", "\\cache",
                "\\tpch", "\\save", "\\open", "\\i"):
            print(f"(note: {command} operates on the local session, "
                  f"not {self.remote_name})", file=out)
        if command == "\\d":
            if args:
                self._describe(args[0], out)
            else:
                self._list_tables(out)
        elif command == "\\strategy":
            if args:
                self.strategy = args[0]
            print(f"provenance strategy: {self.strategy}", file=out)
        elif command == "\\timing":
            self.timing = not self.timing
            print(f"timing: {'on' if self.timing else 'off'}", file=out)
        elif command == "\\cache":
            stats = self.conn.plan_cache.stats()
            print(
                "plan cache: "
                f"{stats['size']}/{stats['capacity']} entries, "
                f"{stats['hits']} hits, {stats['misses']} misses",
                file=out)
        elif command == "\\explain":
            sql = line[len("\\explain"):].strip()
            print(self.conn.explain_physical(sql), file=out)
        elif command == "\\stats":
            self._show_stats(args[0] if args else None, out)
        elif command == "\\tpch":
            from .tpch import install_views, load_tpch
            scale = float(args[0]) if args else 0.0001
            generated = load_tpch(scale=scale)
            engine = self.conn.engine
            # exclusive() = commit leadership + engine.lock, in the
            # canonical order — taking the bare engine lock here and
            # then checkpointing (which needs leadership) would
            # invert the lock order against in-flight commits
            with engine.exclusive():
                for table in generated.catalog.names():
                    self.conn.catalog.register(
                        table, generated.catalog.get(table),
                        replace=True)
                if engine.storage is not None:
                    # register() bypasses the transactional WAL path;
                    # checkpointing inside the same hold (leadership
                    # and engine.lock both re-enter) makes the bulk
                    # load durable
                    # *before* the WAL-logged view commits below can
                    # reference the new tables
                    engine.checkpoint()
            install_views(self.conn)
            print(f"loaded TPC-H at scale {scale}", file=out)
        elif command == "\\i":
            if not args:
                print("usage: \\i <file>", file=out)
            else:
                with open(args[0]) as handle:
                    self.conn.execute_script(handle.read())
                print(f"ran {args[0]}", file=out)
        elif command == "\\save":
            self._save(args[0] if args else None, out)
        elif command == "\\open":
            if not args:
                print("usage: \\open <dir>", file=out)
            else:
                self._open(args[0], out)
        elif command == "\\connect":
            if not args:
                print("usage: \\connect host:port [user[:password] "
                      "[database]]", file=out)
            else:
                self._connect(args, out)
        elif command == "\\disconnect":
            self._disconnect(out)
        else:
            print(f"unknown command {command}; try \\d, \\strategy, "
                  f"\\explain, \\stats, \\timing, \\cache, \\tpch, \\i, "
                  f"\\save, \\open, \\connect, \\disconnect, \\q",
                  file=out)
        return True

    def _connect(self, args: list, out) -> None:
        """Attach the shell to a wire server; SQL then goes remote."""
        from .client import SyncConnection
        target = args[0]
        host, sep, port = target.rpartition(":")
        if not sep or not port.isdigit():
            print("usage: \\connect host:port [user[:password] "
                  "[database]]", file=out)
            return
        spec = args[1] if len(args) > 1 else "repro"
        user, has_password, password = spec.partition(":")
        database = args[2] if len(args) > 2 else None
        try:
            remote = SyncConnection(
                host or "127.0.0.1", int(port), user=user,
                password=password if has_password else None,
                database=database)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=out)
            return
        self._disconnect(out, quiet=True)
        self.remote = remote
        self.remote_name = f"{host or '127.0.0.1'}:{port}"
        version = remote.parameters.get("server_version", "?")
        print(f"connected to {self.remote_name} as {user} "
              f"(server {version})", file=out)

    def _disconnect(self, out, quiet: bool = False) -> None:
        """Detach from the server; SQL goes to the local session again."""
        remote, self.remote = self.remote, None
        self.remote_name = ""
        if remote is not None:
            try:
                remote.close()
            except (ReproError, OSError):
                pass
            if not quiet:
                print("disconnected; back to the local session", file=out)
        elif not quiet:
            print("not connected to a server", file=out)

    def _save(self, path: str | None, out) -> None:
        """Checkpoint the durable engine, or export the in-memory
        catalog as a database directory."""
        engine = self.conn.engine
        try:
            if path is None or (engine.storage is not None
                                and os.path.realpath(engine.storage.path)
                                == os.path.realpath(path)):
                if engine.storage is None:
                    print("this session is in-memory; usage: "
                          "\\save <dir> (or \\open <dir> first)",
                          file=out)
                    return
                print(f"checkpointed {engine.checkpoint()}", file=out)
                return
            from .storage.store import save_database
            target = save_database(path, engine.snapshot())
            print(f"saved {target}", file=out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)

    def _open(self, path: str, out) -> None:
        """Switch the session onto a durable engine over *path*
        (creating or crash-recovering the database directory)."""
        from .api import Connection
        old = self.conn
        if old.in_transaction:
            print("a transaction is in progress; COMMIT or ROLLBACK "
                  "before \\open", file=out)
            return
        storage = old.engine.storage
        if storage is not None and \
                os.path.realpath(storage.path) == os.path.realpath(path):
            print(f"{path} is already open", file=out)
            return
        try:
            conn = Connection(old.config, path=path)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            return
        self.conn = conn
        old.close()
        names = conn.catalog.names()
        print(f"opened {path} ({len(names)} table(s))", file=out)

    def _list_tables(self, out) -> None:
        catalog = self.conn.catalog
        for name in catalog.names():
            rows = len(catalog.get(name).rows)
            analyzed = " (analyzed)" if catalog.stats.get(name) else ""
            print(f"  table {name} ({rows} rows){analyzed}", file=out)
        for name in catalog.view_names():
            print(f"  view  {name}", file=out)
        for name in catalog.index_names():
            print(f"  {catalog.get_index(name).describe()}", file=out)
        if not catalog.names() and not catalog.view_names():
            print("  (no tables)", file=out)

    def _describe(self, name: str, out) -> None:
        stored = self.conn.catalog.get(name)
        for attribute in stored.schema:
            print(f"  {attribute.name:24s} {attribute.type.value}",
                  file=out)
        for index in self.conn.catalog.indexes_on(name):
            print(f"  {index.describe()}", file=out)
        stats = self.conn.catalog.stats.get(name)
        if stats is not None:
            print(f"  analyzed: {stats.row_count} rows", file=out)

    def _show_stats(self, name: str | None, out) -> None:
        catalog = self.conn.catalog
        names = [name] if name else catalog.stats.tables()
        if not names:
            print("  (no statistics; run ANALYZE)", file=out)
            return
        for table in names:
            stats = catalog.stats.get(table)
            if stats is None:
                print(f"  {table}: not analyzed", file=out)
                continue
            print(f"  {table}: {stats.row_count} rows", file=out)
            for column in stats.columns.values():
                print(f"    {column.name:20s} n_distinct={column.n_distinct}"
                      f" null_frac={column.null_frac:.2f}"
                      f" min={column.min_value!r} max={column.max_value!r}",
                      file=out)

    # -- SQL ----------------------------------------------------------------------

    def run_sql(self, text: str, out) -> None:
        if self.remote is not None:
            self._run_remote_sql(text, out)
            return
        started = time.perf_counter()
        try:
            from .relation import Relation
            words = text.split(None, 2)
            head = words[0].upper() if words else ""
            if head == "EXPLAIN":
                if len(words) > 1 and words[1].upper() == "ANALYZE":
                    print(self.conn.explain_analyze(
                        words[2] if len(words) > 2 else ""), file=out)
                else:
                    sql = text.split(None, 1)[1] if len(words) > 1 else ""
                    print(self.conn.explain_physical(sql), file=out)
                return
            result = self.conn.execute(text)
            if isinstance(result, Relation):
                print(result.pretty(), file=out)
                print(f"({len(result.rows)} rows)", file=out)
            elif head in ("BEGIN", "COMMIT", "ROLLBACK", "CHECKPOINT"):
                print(head, file=out)     # psql-style command tags
            else:
                print("ok", file=out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            return
        if self.timing:
            elapsed = (time.perf_counter() - started) * 1000
            print(f"time: {elapsed:.1f} ms", file=out)

    def _run_remote_sql(self, text: str, out) -> None:
        """Send *text* to the attached server via the simple query
        protocol and render the per-statement results psql-style."""
        started = time.perf_counter()
        try:
            results = self.remote.query(text)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            if self.remote is not None and self.remote.closed:
                self._disconnect(out)
            return
        except OSError as exc:
            print(f"connection lost: {exc}", file=out)
            self._disconnect(out)
            return
        for result in results:
            if result.description is not None:
                self._print_table(result, out)
            print(result.tag or "ok", file=out)
        if self.timing:
            elapsed = (time.perf_counter() - started) * 1000
            print(f"time: {elapsed:.1f} ms", file=out)

    @staticmethod
    def _print_table(result, out) -> None:
        cells = [[("" if value is None else str(value))
                  for value in row] for row in result.rows]
        widths = [max([len(name)] + [len(row[i]) for row in cells])
                  for i, name in enumerate(result.columns)]
        print(" | ".join(name.ljust(width) for name, width
                         in zip(result.columns, widths)), file=out)
        print("-+-".join("-" * width for width in widths), file=out)
        for row in cells:
            print(" | ".join(cell.ljust(width) for cell, width
                             in zip(row, widths)), file=out)

    def run_line(self, line: str, out) -> bool:
        """Process one input line; returns False to quit."""
        stripped = line.strip()
        if not stripped:
            return True
        if stripped.startswith("\\"):
            return self.run_meta(stripped, out)
        self.run_sql(stripped.rstrip(";"), out)
        return True


def main(argv: list[str] | None = None) -> int:
    """REPL entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interactive SQL shell with provenance support.")
    parser.add_argument(
        "--strategy", default="auto",
        help="default provenance strategy (resolved through the strategy "
             f"registry; one of {', '.join(strategies.strategy_names())})")
    args = parser.parse_args(argv)
    if args.strategy != strategies.AUTO and \
            not strategies.is_registered(args.strategy):
        parser.error(
            f"unknown strategy {args.strategy!r}; expected one of "
            f"{', '.join(strategies.strategy_names())}")

    shell = Shell()
    shell.strategy = args.strategy
    print("repro — Provenance for Nested Subqueries (EDBT 2009 repro)")
    print('type SQL, "\\tpch" to load data, or "\\q" to quit')
    buffer: list[str] = []
    while True:
        # a psql-style "*" marks an open transaction
        if shell.remote is not None:
            mark = "*" if shell.remote.transaction_status in "TE" else ""
            base = shell.remote_name
        else:
            mark = "*" if shell.conn.in_transaction else ""
            base = "repro"
        prompt = f"{base}{mark}> " if not buffer else "  ...> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        if line.strip().startswith("\\"):
            if not shell.run_meta(line.strip(), sys.stdout):
                return 0
            continue
        buffer.append(line)
        if line.rstrip().endswith(";") or not line.strip():
            text = " ".join(buffer).strip()
            buffer.clear()
            if text and not shell.run_line(text, sys.stdout):
                return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
