"""The rule registry and the violation record.

A *rule family* (``lock-discipline``, ``exhaustiveness``, ``purity``,
``hygiene``, ``typing``, ``config-knobs``, ``planner``) is one registered
checker function; each family emits violations under specific ids
(``hygiene-pickle``, ``exhaustiveness-wal``, ...) so pragmas and
baselines can be precise.
An inline ``# repro: allow(<id-or-prefix>)`` on the offending line, in
the comment block directly above it, or on (or above) the enclosing
``def``/``class`` line suppresses a finding; ``allow(hygiene)``
suppresses the whole family.

Checkers receive a :class:`RuleContext` and call :meth:`RuleContext.emit`
for every finding; pragma filtering and stable ordering are handled
here, so rule modules contain only the invariant logic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable

from ...errors import InterfaceError
from ..callgraph import CallGraph
from ..project import ModuleInfo, Project


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and a human-readable message."""

    path: str
    line: int
    rule: str
    symbol: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching — deliberately excludes
        the line number so unrelated edits above a finding don't turn it
        into a "new" violation."""
        text = "|".join((self.rule, self.path, self.symbol, self.message))
        return hashlib.sha1(text.encode()).hexdigest()[:16]

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] {self.symbol}: "
                f"{self.message}")


@dataclass
class AnalysisConfig:
    """Knobs the rules read; defaults target the live ``repro`` tree,
    tests override them to point at fixture packages."""

    #: classes whose shared state must only mutate under the write lock
    shared_state_classes: tuple[str, ...] = (
        "Catalog", "PlanCache", "DurableStore")
    #: entry points of code that runs on the forked worker side
    worker_entries: tuple[str, ...] = ("_worker_main",)
    #: commit-section functions: reachable only through the commit
    #: leader
    commit_section_functions: tuple[str, ...] = (
        "validate_commit", "publish_commit")
    #: the engine's commit leader: the one function that validates,
    #: logs and publishes a batch of commits
    commit_leader_functions: tuple[str, ...] = ("_commit_batch",)
    #: factories whose nested closures are vector kernels
    kernel_factory_prefixes: tuple[str, ...] = ("compile_vector_",)
    #: base class of vectorized operators (methods must stay pure-ish)
    vector_base_class: str = "VectorOperator"
    #: base class of the physical plan nodes
    physical_base_class: str = "PhysicalOperator"
    #: module-level registry naming row-only operators with no vector
    #: equivalent (the explicit fallback list the exhaustiveness rule
    #: accepts instead of a vectorization branch)
    row_fallback_registry: str = "ROW_ONLY_FALLBACK"
    #: module name patterns (top package stripped) whose broad excepts
    #: are commit/recovery/teardown-critical
    critical_modules: tuple[str, ...] = (
        "storage", "storage.*", "api.transaction", "api.connection",
        "api.result", "server.server", "client", "client.*")
    #: root class every library raise must derive from
    error_root_class: str = "ReproError"
    #: builtin exceptions that are always acceptable to raise
    allowed_builtin_raises: tuple[str, ...] = (
        "NotImplementedError", "AssertionError", "StopIteration",
        "StopAsyncIteration", "KeyboardInterrupt", "SystemExit",
        "GeneratorExit")
    #: modules allowed to call ``pickle.loads`` (restricted unpickler)
    pickle_allowed_modules: tuple[str, ...] = ("storage.codec",)
    #: module patterns under the strict annotation gate
    typed_modules: tuple[str, ...] = (
        "storage", "storage.*", "engine", "engine.*", "api", "api.*",
        "client", "client.*", "analysis", "analysis.*")
    #: modules whose raises are held to the error-hierarchy rule
    raise_checked_modules: tuple[str, ...] = (
        "storage", "storage.*", "engine", "engine.*", "api", "api.*",
        "client", "client.*", "server", "server.*", "catalog",
        "relation", "analysis", "analysis.*")

    def replace(self, **overrides: Any) -> "AnalysisConfig":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(overrides)
        return AnalysisConfig(**values)


@dataclass
class RuleContext:
    """What a checker gets: the loaded project, the call graph, the
    config, and the emit sink (which applies pragma suppression)."""

    project: Project
    graph: CallGraph
    config: AnalysisConfig
    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0

    def emit(self, rule: str, module: ModuleInfo, lineno: int,
             symbol: str, message: str) -> None:
        if self._pragma_allows(module, lineno, rule, symbol):
            self.suppressed += 1
            return
        self.violations.append(Violation(
            path=self.project.relpath(module), line=lineno, rule=rule,
            symbol=symbol, message=message))

    def _pragma_allows(self, module: ModuleInfo, lineno: int, rule: str,
                       symbol: str) -> bool:
        return self.project.allowed(module, lineno, rule, symbol)

    def modules_matching(self, patterns: Iterable[str]
                         ) -> list[ModuleInfo]:
        return [m for m in self.project.modules.values()
                if any(m.matches(p) for p in patterns)]


_REGISTRY: dict[str, Callable[[RuleContext], None]] = {}


def rule(name: str) -> Callable:
    """Register a checker function under a family *name*."""
    def register(fn: Callable[[RuleContext], None]) -> Callable:
        _REGISTRY[name] = fn
        return fn
    return register


def available_rules() -> tuple[str, ...]:
    _load_builtin_rules()
    return tuple(sorted(_REGISTRY))


def run_rules(project: Project, graph: CallGraph,
              config: AnalysisConfig | None = None,
              rules: Iterable[str] | None = None) -> list[Violation]:
    """Run the selected rule families (default: all) and return the
    findings in (path, line, rule) order."""
    _load_builtin_rules()
    ctx = RuleContext(project=project, graph=graph,
                      config=config or AnalysisConfig())
    selected = set(rules) if rules is not None else set(_REGISTRY)
    unknown = selected - set(_REGISTRY)
    if unknown:
        raise InterfaceError(
            f"unknown rule(s): {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(_REGISTRY))}")
    for name in sorted(selected):
        _REGISTRY[name](ctx)
    return sorted(ctx.violations)


def _load_builtin_rules() -> None:
    from . import (  # noqa: F401
        exhaustiveness, hygiene, knobs, locks, planner, purity,
        typing_gate,
    )
