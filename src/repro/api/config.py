"""Session-wide configuration.

One :class:`SessionConfig` object travels from the connection through the
analyzer, the :class:`~repro.provenance.rewriter.ProvenanceRewriter` and
the :class:`~repro.engine.executor.Executor`, replacing the ad-hoc keyword
arguments each layer used to grow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

from ..errors import InterfaceError
from ..provenance import strategies


def _env_int(name: str, default: int) -> int:
    """An integer knob default taken from the environment; malformed
    values fall back to *default* rather than breaking session setup."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 0 else default


@dataclass
class SessionConfig:
    """Knobs shared by every statement a session runs.

    ``default_strategy``
        Strategy substituted when SQL says plain ``SELECT PROVENANCE``
        (which parses as ``"auto"``); explicit ``SELECT PROVENANCE (name)``
        and per-call overrides win over it.  Resolved through the strategy
        registry, so registered third-party strategies are valid values.
    ``plan_cache_size``
        Capacity of the per-connection LRU plan cache; ``0`` disables
        caching entirely.
    ``engine``
        Which batch format the executor moves through physical plans:
        ``"pipelined"`` (lists of row tuples — the default) or
        ``"vectorized"`` (columnar ``ColumnBatch`` data flow and
        whole-column expression kernels; nodes the vector compiler
        cannot handle fall back to row operators per node, so it is
        always correct).
    ``batch_size``
        Rows per batch.  Larger batches amortize per-batch overhead;
        smaller ones bound memory between pipeline breakers.
    ``use_indexes``
        Let the cost-based lowering plan ``IndexScan`` /
        ``IndexNestedLoopJoin`` over secondary indexes.  Disabling it
        plans every statement as if no index existed — the knob the
        benchmarks use to price index plans against their scan
        equivalents on identical data.
    ``autocommit``
        Initial autocommit mode of new sessions.  True (the default):
        every statement is its own snapshot-isolated transaction.
        False: the first statement implicitly opens a transaction that
        stays open until ``commit()`` / ``rollback()`` (DB-API style).
        Sessions can flip :attr:`Connection.autocommit` at runtime.
    ``durability``
        How eagerly a durable engine (``Engine(path=...)``) persists
        commits.  ``"commit"`` (the default): every commit appends its
        write-set to the WAL and fsyncs before returning —
        committed-means-durable, even across power loss.
        ``"checkpoint"``: commits append to the WAL without fsync (the
        OS flushes when it likes; ``CHECKPOINT`` and a clean close
        fsync), trading the fsync per commit for a bounded-loss window.
        ``"off"``: commits are not logged at all — only an explicit
        ``CHECKPOINT`` (or the shell's ``\\save``) writes anything.
        Engine-level: the WAL's policy is fixed when the database
        directory opens, so ``engine.connect()`` rejects a session
        override that disagrees with it.  Ignored by purely in-memory
        engines.
    ``checkpoint_wal_mb``
        WAL size budget, in MiB, on a durable engine: the commit leader
        checkpoints right after the batch that takes the log past it.
        ``0`` disables automatic checkpointing — only explicit
        ``CHECKPOINT`` compacts.  Engine-level.
    ``max_parallel_workers``
        Upper bound on worker processes a single query may fan out to
        through the exchange operators (:mod:`repro.engine.parallel`).
        ``0`` (the default) disables parallel execution entirely; the
        ``REPRO_PARALLEL`` environment variable sets the default for
        new sessions (the CI parity jobs export ``REPRO_PARALLEL=2``).
        Parallelism is a plan property, so the knob is part of the
        plan-cache key.
    ``parallel_threshold``
        Minimum estimated input rows before the lowering pass considers
        a Gather plan at all — below it, fork/serialize overhead always
        loses to serial execution.  The ``REPRO_PARALLEL_THRESHOLD``
        environment variable sets the default for new sessions (the CI
        parity jobs lower it so small test tables exercise the
        exchanges).
    """

    default_strategy: str = "auto"
    plan_cache_size: int = 128
    engine: str = "pipelined"
    batch_size: int = 1024
    use_indexes: bool = True
    autocommit: bool = True
    durability: str = "commit"
    checkpoint_wal_mb: int = 64
    max_parallel_workers: int = field(
        default_factory=lambda: _env_int("REPRO_PARALLEL", 0))
    parallel_threshold: int = field(
        default_factory=lambda: _env_int("REPRO_PARALLEL_THRESHOLD", 10000))

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the configuration; raises :class:`InterfaceError`."""
        from ..engine import ENGINES
        if self.plan_cache_size < 0:
            raise InterfaceError(
                f"plan_cache_size must be >= 0, got {self.plan_cache_size}")
        if self.engine not in ENGINES:
            raise InterfaceError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{list(ENGINES)}")
        if self.batch_size < 1:
            raise InterfaceError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.durability not in ("off", "commit", "checkpoint"):
            raise InterfaceError(
                f"unknown durability {self.durability!r}; expected one "
                f"of ['off', 'commit', 'checkpoint']")
        if self.checkpoint_wal_mb < 0:
            raise InterfaceError(
                f"checkpoint_wal_mb must be >= 0, got "
                f"{self.checkpoint_wal_mb}")
        if self.max_parallel_workers < 0:
            raise InterfaceError(
                f"max_parallel_workers must be >= 0, got "
                f"{self.max_parallel_workers}")
        if self.parallel_threshold < 0:
            raise InterfaceError(
                f"parallel_threshold must be >= 0, got "
                f"{self.parallel_threshold}")
        if self.default_strategy != strategies.AUTO and \
                not strategies.is_registered(self.default_strategy):
            raise InterfaceError(
                f"unknown default_strategy {self.default_strategy!r}; "
                f"expected one of {strategies.strategy_names()}")

    def with_options(self, **changes: Any) -> "SessionConfig":
        """A copy of this config with *changes* applied (and validated)."""
        return replace(self, **changes)
