"""Lock-discipline checks (the PR-4/PR-8 invariants).

``lock-discipline`` — *shared-state mutations happen under a lock.*
The shared classes (``Catalog``, ``PlanCache``,
``DurableStore``) are scanned for **mutator methods** — methods that
assign ``self`` state or call a mutating container method on it —
excluding ``__init__`` and methods that take an internal lock
themselves.  Every call site whose receiver is *engine-owned shared
state* (a path through ``engine.catalog`` / ``engine.plan_cache`` /
``engine.storage``, the same attributes on ``self`` inside ``Engine``,
or a parameter annotated with a shared class) must then be
**lock-protected**: the enclosing function either takes
``engine.lock`` (or ``exclusive()``) itself, or cannot be reached from
any entry point without passing through a function that does.

``lock-fork`` — *no lock or fsync on the forked worker side.*  A lock
acquired in the parent may be held by a thread that does not survive
``fork``; a child that then acquires it deadlocks forever, and a child
that fsyncs the parent's WAL fd corrupts commit ordering.  Everything
reachable from the worker entry points (``_worker_main``) is checked
for lock acquisition, ``os.fork`` and ``os.fsync``.

``lock-sequencer`` — *only the commit leader validates and
publishes.*  ``validate_commit`` reads the live catalog without a lock
and ``publish_commit`` changes it; both are safe only because one
thread at a time — the engine's commit leader, ``_commit_batch`` —
runs them.  A path into either that does not pass through the leader
would let two commits interleave on the same names.
"""

from __future__ import annotations

import ast

from ..callgraph import CallGraph
from ..project import CallSite, FunctionInfo, Project, dotted_path
from . import RuleContext, rule

#: Container/attr method names that mutate their receiver.
MUTATING_TERMINALS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "write",
    "writelines", "truncate",
})

#: Attributes of an engine that *are* the shared state.
_SHARED_ENGINE_ATTRS = ("catalog", "plan_cache", "storage")


def _lockish(path: str) -> bool:
    return "lock" in path.lower() or "cond" in path.lower()


def acquires_lock(info: FunctionInfo) -> bool:
    """Whether the function body takes a lock: ``with ...exclusive()``,
    ``with self._lock:`` / ``with engine.lock:``, or an explicit
    ``...lock.acquire()`` call."""
    for item in info.facts.with_items:
        if item.is_call:
            if item.path.rpartition(".")[2] == "exclusive":
                return True
        elif _lockish(item.path):
            return True                  # with self._lock:
    return any(call.terminal == "acquire" and _lockish(call.path)
               for call in info.facts.calls)


def shared_mutator_methods(ctx: RuleContext) -> dict[str, set[str]]:
    """Mutator method *names* per shared class name.

    A method mutates if it assigns ``self`` attributes or calls a
    mutating container method on one.  ``__init__``/``__post_init__``
    run before the object is shared, and a method that takes an
    internal lock is self-protected — both are excluded.
    """
    mutators: dict[str, set[str]] = {}
    for class_name in ctx.config.shared_state_classes:
        names: set[str] = set()
        for cls in ctx.project.classes_named(class_name):
            for method in cls.methods.values():
                if method.name in ("__init__", "__post_init__"):
                    continue
                if acquires_lock(method):
                    continue             # internally locked
                mutates = bool(method.facts.self_writes)
                if not mutates:
                    mutates = any(
                        call.root == "self"
                        and call.terminal in MUTATING_TERMINALS
                        and call.path.count(".") >= 2
                        for call in method.facts.calls)
                if mutates:
                    names.add(method.name)
        if names:
            mutators[class_name] = names
    return mutators


def _expand_alias(info: FunctionInfo, path: str) -> str:
    """One alias hop: ``storage.append_commit`` becomes
    ``self.engine.storage.append_commit`` when the body assigned
    ``storage = self.engine.storage``."""
    root, dot, rest = path.partition(".")
    target = info.facts.local_aliases.get(root)
    if target is not None and dot:
        return f"{target}.{rest}"
    return path


def _annotated_params(info: FunctionInfo, project: Project,
                      class_names: frozenset[str]) -> set[str]:
    """Parameter names of *info* annotated with one of *class_names*."""
    matches: set[str] = set()
    args = info.node.args
    for arg in list(args.posonlyargs) + list(args.args) \
            + list(args.kwonlyargs):
        if arg.annotation is None:
            continue
        annotation = arg.annotation
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            name = annotation.value.strip("'\" ")
        else:
            name = dotted_path(annotation) or ""
        if name.rpartition(".")[2] in class_names:
            matches.add(arg.arg)
    return matches


def _shared_receiver(info: FunctionInfo, call: CallSite, path: str,
                     shared_params: set[str]) -> bool:
    """Whether the (alias-expanded) call *path* addresses engine-owned
    shared state."""
    segments = path.split(".")
    if len(segments) < 2:
        return False
    receiver = segments[:-1]
    for i, segment in enumerate(receiver[:-1]):
        if segment == "engine" and receiver[i + 1] in _SHARED_ENGINE_ATTRS:
            return True
    if receiver[0] == "self" and len(receiver) >= 2 \
            and receiver[1] in _SHARED_ENGINE_ATTRS \
            and info.class_name is not None \
            and info.class_name.rpartition(".")[2] == "Engine":
        return True
    if receiver[0] in shared_params:
        return True
    return False


@rule("lock-discipline")
def check_lock_discipline(ctx: RuleContext) -> None:
    project, graph = ctx.project, ctx.graph
    _check_fork_side(ctx, graph)
    _check_commit_section(ctx, graph)
    mutators = shared_mutator_methods(ctx)
    if not mutators:
        return
    mutator_names = frozenset().union(*mutators.values())
    class_names = frozenset(mutators)

    acquirers = frozenset(
        qualname for qualname, info in project.functions.items()
        if acquires_lock(info))
    entries = [e for e in graph.entry_points() if e not in acquirers]

    def protected(qualname: str) -> bool:
        if qualname in acquirers:
            return True
        return not any(
            graph.reaches_avoiding(entry, qualname, acquirers)
            for entry in entries)

    for info in project.functions.values():
        shared_params = _annotated_params(info, project, class_names)
        for call in info.facts.calls:
            if call.terminal not in mutator_names:
                continue
            path = _expand_alias(info, call.path)
            if not _shared_receiver(info, call, path, shared_params):
                continue
            if protected(info.qualname):
                continue
            ctx.emit(
                "lock-discipline", info.module, call.lineno,
                info.qualname,
                f"mutates shared state via '{path}' but is reachable "
                f"without the engine lock; wrap the call path in "
                f"'with engine.lock:' (or take it in a caller)")


def _check_commit_section(ctx: RuleContext, graph: CallGraph) -> None:
    """``lock-sequencer``: the validate/publish half of a commit must be
    unreachable except through the commit leader."""
    project = ctx.project
    targets = [info for info in project.functions.values()
               if info.name in ctx.config.commit_section_functions]
    if not targets:
        return
    leaders = frozenset(
        qualname for qualname, info in project.functions.items()
        if info.name in ctx.config.commit_leader_functions)
    entries = [e for e in graph.entry_points() if e not in leaders]
    for info in targets:
        if any(graph.reaches_avoiding(entry, info.qualname, leaders)
               for entry in entries):
            ctx.emit(
                "lock-sequencer", info.module, info.lineno, info.qualname,
                f"commit-section function is reachable without the "
                f"commit leader; only "
                f"{' / '.join(ctx.config.commit_leader_functions)} "
                f"(which validates, logs and publishes one batch at a "
                f"time) may call it")


def _check_fork_side(ctx: RuleContext, graph: CallGraph) -> None:
    project = ctx.project
    worker_roots = [
        info.qualname for info in project.functions.values()
        if info.name in ctx.config.worker_entries]
    if not worker_roots:
        return
    for qualname in sorted(graph.reachable(worker_roots)):
        info = project.functions[qualname]
        if acquires_lock(info):
            ctx.emit(
                "lock-fork", info.module, info.lineno, qualname,
                "acquires a lock on the forked worker side; a lock held "
                "by a parent thread at fork() deadlocks the child "
                "forever")
        for call in info.facts.calls:
            resolved = project.resolve(info.module, call.path) \
                or call.path
            if resolved in ("os.fsync", "os.fdatasync"):
                ctx.emit(
                    "lock-fork", info.module, call.lineno, qualname,
                    f"calls {resolved} on the forked worker side; "
                    f"workers must never sync the parent's WAL fds")
            if resolved == "os.fork":
                ctx.emit(
                    "lock-fork", info.module, call.lineno, qualname,
                    "forks from worker-side code; only the parent pool "
                    "may spawn workers")
