"""Lock-discipline checks (the PR-4/PR-8 invariants).

``lock-discipline`` — *shared-state mutations happen under the write
lock.*  The shared classes (``Catalog``, ``PlanCache``,
``DurableStore``) are scanned for **mutator methods** — methods that
assign ``self`` state or call a mutating container method on it —
excluding ``__init__`` and methods that take an internal lock
themselves.  Every call site whose receiver is *engine-owned shared
state* (a path through ``engine.catalog`` / ``engine.plan_cache`` /
``engine.storage``, the same attributes on ``self`` inside ``Engine``,
or a parameter annotated with a shared class) must then be
**write-protected**: the enclosing function either acquires a
write-side lock itself, or cannot be reached from any entry point
without passing through a function that does.

``lock-fork`` — *no lock or fsync on the forked worker side.*  A lock
acquired in the parent may be held by a thread that does not survive
``fork``; a child that then acquires it deadlocks forever, and a child
that fsyncs the parent's WAL fd corrupts commit ordering.  Everything
reachable from the worker entry points (``_worker_main``) is checked
for lock acquisition, ``os.fork`` and ``os.fsync``.

``lock-tables`` — *the commit section runs under the per-name commit
locks* (the PR-10 invariant).  ``validate_commit`` and
``publish_commit`` mutate or judge live-catalog entries named by a
transaction's conflict set; a path into them that does not pass
through a ``table_locks.acquire(...)`` holder would let two commits
interleave on the same table.

``lock-flusher`` — *the group-commit flusher owns only the WAL tail.*
Committers block on the flusher thread while holding their commit
locks, so anything reachable from ``_flush_loop`` that touches the
catalog or takes an engine lock is a deadlock or a data race by
construction.
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

#: Terminal call names that acquire the read side of a lock.
_READ_ACQUIRE_TERMINALS = frozenset({"acquire_read", "read"})

#: Attributes of an engine that *are* the shared state.
_SHARED_ENGINE_ATTRS = ("catalog", "plan_cache", "storage")


def _lockish(path: str) -> bool:
    return "lock" in path.lower() or "cond" in path.lower()


def acquires_write_lock(info: FunctionInfo) -> bool:
    """Whether the function body takes a write-side (or plain mutual
    exclusion) lock: ``with ...lock.write()``, ``with ...exclusive()``,
    ``with self._lock:``, or an explicit ``acquire_write()`` call."""
    for item in info.facts.with_items:
        terminal = item.path.rpartition(".")[2]
        if item.is_call:
            if terminal == "exclusive" or terminal == "acquire_write":
                return True
            if terminal == "write" and _lockish(item.path):
                return True
        elif _lockish(item.path):
            return True                  # with self._lock:
    for call in info.facts.calls:
        if call.terminal == "acquire_write":
            return True
        if call.terminal == "acquire" and _lockish(call.path):
            return True
    return False


def acquires_any_lock(info: FunctionInfo) -> bool:
    """Whether the function takes any lock side — used by the fork rule,
    where even a read acquisition can deadlock the child."""
    if acquires_write_lock(info):
        return True
    for item in info.facts.with_items:
        terminal = item.path.rpartition(".")[2]
        if item.is_call and terminal in _READ_ACQUIRE_TERMINALS \
                and _lockish(item.path):
            return True
    for call in info.facts.calls:
        if call.terminal == "acquire_read":
            return True
    return False


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
                if acquires_write_lock(method):
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


def acquires_table_locks(info: FunctionInfo, attr: str) -> bool:
    """Whether the function takes the per-name commit locks:
    ``with ...<attr>.acquire(keys):`` (or a bare ``.acquire()`` call on
    the manager)."""
    needle = f"{attr}."
    for item in info.facts.with_items:
        if item.is_call and item.path.rpartition(".")[2] == "acquire" \
                and needle in item.path:
            return True
    for call in info.facts.calls:
        if call.terminal == "acquire" and needle in call.path:
            return True
    return False


@rule("lock-discipline")
def check_lock_discipline(ctx: RuleContext) -> None:
    project, graph = ctx.project, ctx.graph
    _check_fork_side(ctx, graph)
    _check_commit_section(ctx, graph)
    _check_flusher_side(ctx, graph)
    mutators = shared_mutator_methods(ctx)
    if not mutators:
        return
    mutator_names = frozenset().union(*mutators.values())
    class_names = frozenset(mutators)

    acquirers = frozenset(
        qualname for qualname, info in project.functions.items()
        if acquires_write_lock(info))
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
                f"without the engine write lock; wrap the call path in "
                f"'with engine.lock.write():' (or take it in a caller)")


def _check_commit_section(ctx: RuleContext, graph: CallGraph) -> None:
    """``lock-tables``: the validate/publish half of a commit must be
    unreachable except through a holder of the per-name commit locks."""
    project = ctx.project
    attr = ctx.config.table_lock_attr
    targets = [info for info in project.functions.values()
               if info.name in ctx.config.commit_section_functions]
    if not targets:
        return
    acquirers = frozenset(
        qualname for qualname, info in project.functions.items()
        if acquires_table_locks(info, attr))
    entries = [e for e in graph.entry_points() if e not in acquirers]
    for info in targets:
        if info.qualname in acquirers:
            continue
        if any(graph.reaches_avoiding(entry, info.qualname, acquirers)
               for entry in entries):
            ctx.emit(
                "lock-tables", info.module, info.lineno, info.qualname,
                f"commit-section function is reachable without the "
                f"per-name commit locks; every path into it must pass "
                f"through 'with engine.{attr}.acquire(diff.lock_keys):'")


def _check_flusher_side(ctx: RuleContext, graph: CallGraph) -> None:
    """``lock-flusher``: nothing reachable from the group-commit
    flusher thread may touch the catalog or take an engine lock —
    committers block on the flusher while holding their commit locks."""
    project = ctx.project
    flusher_roots = [
        info.qualname for info in project.functions.values()
        if info.name in ctx.config.flusher_entries]
    if not flusher_roots:
        return
    shared = frozenset(ctx.config.shared_state_classes) - \
        frozenset({"DurableStore"})     # the flusher lives *in* the store
    for qualname in sorted(graph.reachable(flusher_roots)):
        info = project.functions[qualname]
        if _annotated_params(info, project, shared):
            ctx.emit(
                "lock-flusher", info.module, info.lineno, qualname,
                "declares a Catalog/PlanCache parameter on the flusher "
                "side; the flusher owns only the WAL tail — catalog "
                "state belongs to committers under their commit locks")
        for call in info.facts.calls:
            path = _expand_alias(info, call.path)
            receiver = path.split(".")[:-1]
            if "catalog" in receiver:
                ctx.emit(
                    "lock-flusher", info.module, call.lineno, qualname,
                    f"touches the catalog via '{path}' from the "
                    f"group-commit flusher thread; committers block on "
                    f"the flusher while holding their commit locks, so "
                    f"this is a data race (or a deadlock) by "
                    f"construction")
            if "engine" in receiver and _lockish(path):
                ctx.emit(
                    "lock-flusher", info.module, call.lineno, qualname,
                    f"takes an engine lock via '{path}' from the "
                    f"group-commit flusher thread — a committer "
                    f"blocked on the flusher may hold it: deadlock")


def _check_fork_side(ctx: RuleContext, graph: CallGraph) -> None:
    project = ctx.project
    worker_roots = [
        info.qualname for info in project.functions.values()
        if info.name in ctx.config.worker_entries]
    if not worker_roots:
        return
    for qualname in sorted(graph.reachable(worker_roots)):
        info = project.functions[qualname]
        if acquires_any_lock(info):
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
