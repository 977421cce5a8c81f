"""Server configuration: users, database routing, admission control.

A :class:`ServerConfig` describes everything the server needs besides
the engines themselves:

* ``users`` — per-user authentication.  A ``None`` password means
  *trust* (the PostgreSQL ``trust`` method: any password, or none, is
  accepted); a string demands a cleartext-password exchange matching it.
* ``databases`` — database-name routing.  Each entry maps a database
  name onto a directory path (a durable :class:`~repro.api.Engine` is
  opened over it) or ``None`` (a fresh in-memory engine).  One engine is
  opened per database and shared by every connection routed to it.
* ``max_connections`` — admission control: connection attempts beyond
  this are refused with SQLSTATE 53300 (``too_many_connections``).
* ``worker_threads`` — the bounded session pool.  Engine work (parse,
  plan, execute, stream) runs on this many threads; with more clients
  than workers, statements queue — backpressure instead of thread
  explosion.  The default scales with the host's CPU count: concurrent
  commits share one WAL write and fsync (the engine's commit leader
  batches them), so a write-heavy multi-client load benefits from more
  workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import AuthenticationError, InterfaceError

#: The user (trust auth) and database every config serves by default.
DEFAULT_USER = "repro"
DEFAULT_DATABASE = "repro"


@dataclass
class ServerConfig:
    """Knobs of one :class:`~repro.server.Server`; see the module
    docstring."""

    host: str = "127.0.0.1"
    port: int = 5433
    #: user name -> cleartext password, or None for trust.
    users: dict = field(
        default_factory=lambda: {DEFAULT_USER: None})
    #: database name -> directory path (durable) or None (in-memory).
    databases: dict = field(
        default_factory=lambda: {DEFAULT_DATABASE: None})
    max_connections: int = 64
    worker_threads: int = field(
        default_factory=lambda: max(8, 2 * (os.cpu_count() or 1)))
    #: seconds stop() waits for in-flight statements before cancelling.
    shutdown_timeout: float = 10.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.max_connections < 1:
            raise InterfaceError(
                f"max_connections must be >= 1, got {self.max_connections}")
        if self.worker_threads < 1:
            raise InterfaceError(
                f"worker_threads must be >= 1, got {self.worker_threads}")
        if not self.users:
            raise InterfaceError("at least one user is required")
        if not self.databases:
            raise InterfaceError("at least one database is required")
        if self.shutdown_timeout < 0:
            raise InterfaceError(
                f"shutdown_timeout must be >= 0, got "
                f"{self.shutdown_timeout}")

    # -- authentication -------------------------------------------------------

    def needs_password(self, user: str) -> bool:
        """True when *user* must run the cleartext-password exchange."""
        return self.users.get(user) is not None

    def authenticate(self, user: str, password: str | None) -> None:
        """Validate a startup attempt; raises
        :class:`~repro.errors.AuthenticationError` on failure.

        The unknown-user message deliberately matches the wrong-password
        one, so probing cannot enumerate accounts.
        """
        if user not in self.users:
            raise AuthenticationError(
                f'password authentication failed for user "{user}"')
        expected = self.users[user]
        if expected is None:                      # trust
            return
        if password is None or password != expected:
            raise AuthenticationError(
                f'password authentication failed for user "{user}"')

    def route(self, database: str) -> "str | None":
        """The storage path for *database* (None = in-memory); raises
        :class:`~repro.errors.AuthenticationError` for unknown names."""
        if database not in self.databases:
            raise AuthenticationError(
                f'database "{database}" does not exist')
        return self.databases[database]
