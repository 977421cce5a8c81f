"""Kernel and worker purity (the PR-7/PR-8 invariants).

``purity-kernel`` — the closures built by the vector-kernel factories
(``compile_vector_*``) are captured into physical plans, cached in the
engine-wide plan cache, and shipped to forked workers; they run once
per batch on hot paths.  They must therefore be *pure over their
inputs*: no ``global`` writes, no lock acquisition, no file or OS
calls, no reads of module-level mutable state.

``purity-worker`` — code reachable from the forked worker entry points
runs in a child process whose view of the parent's heap is a frozen
copy.  Touching the parent's ``Engine``/``DurableStore`` objects, the
worker pool itself, or writing module globals there is either a silent
no-op or a corruption hazard, so all of it is flagged.  (Lock and
fsync reachability across the fork is ``lock-fork``'s job.)

``purity-operator`` — vectorized operator methods may drive their
children through ``self.engine.pull`` but must not take locks or write
module globals; an operator that does so breaks the leased-instance
concurrency model.
"""

from __future__ import annotations

from ..project import FunctionInfo
from . import RuleContext, rule
from .locks import acquires_lock

#: OS-level calls a kernel has no business making.
_OS_CALLS = frozenset({
    "open", "print", "input", "exec", "eval", "compile",
})
_OS_MODULES = ("os.", "sys.", "io.", "socket.", "subprocess.",
               "threading.", "multiprocessing.")

#: Parent-side classes/factories worker code must not touch.
_PARENT_ONLY = frozenset({
    "Engine", "DurableStore", "WorkerPool", "get_pool", "shutdown_pool",
})


def _kernel_closures(ctx: RuleContext) -> list[FunctionInfo]:
    """Named closures nested (at any depth) inside a kernel factory."""
    prefixes = ctx.config.kernel_factory_prefixes
    kernels = []
    for info in ctx.project.functions.values():
        parent = info.parent
        while parent is not None:
            parent_info = ctx.project.functions.get(parent)
            if parent_info is None:
                break
            if any(parent_info.name.startswith(p) for p in prefixes):
                kernels.append(info)
                break
            parent = parent_info.parent
    return kernels


@rule("purity")
def check_purity(ctx: RuleContext) -> None:
    _check_kernels(ctx)
    _check_worker_side(ctx)
    _check_vector_operators(ctx)


def _check_kernels(ctx: RuleContext) -> None:
    for info in _kernel_closures(ctx):
        facts = info.facts
        if facts.global_writes:
            ctx.emit(
                "purity-kernel", info.module, info.lineno, info.qualname,
                f"vector kernel writes module global(s) "
                f"{', '.join(sorted(facts.global_writes))} — kernels are "
                f"shared across sessions and forked workers")
        for call in facts.calls:
            if call.path in _OS_CALLS or \
                    any(call.path.startswith(m) for m in _OS_MODULES):
                ctx.emit(
                    "purity-kernel", info.module, call.lineno,
                    info.qualname,
                    f"vector kernel calls '{call.path}' — kernels must "
                    f"stay pure over their column inputs")
        if acquires_lock(info):
            ctx.emit(
                "purity-kernel", info.module, info.lineno, info.qualname,
                "vector kernel acquires a lock — kernels run on hot "
                "per-batch paths and inside forked workers")
        mutable = facts.name_loads & info.module.mutable_globals
        if mutable:
            ctx.emit(
                "purity-kernel", info.module, info.lineno, info.qualname,
                f"vector kernel reads module-level mutable state "
                f"({', '.join(sorted(mutable))})")


def _check_worker_side(ctx: RuleContext) -> None:
    project = ctx.project
    worker_roots = [info.qualname for info in project.functions.values()
                    if info.name in ctx.config.worker_entries]
    if not worker_roots:
        return
    for qualname in sorted(ctx.graph.reachable(worker_roots)):
        info = project.functions[qualname]
        facts = info.facts
        if facts.global_writes:
            ctx.emit(
                "purity-worker", info.module, info.lineno, qualname,
                f"worker-side code writes module global(s) "
                f"{', '.join(sorted(facts.global_writes))} — invisible "
                f"to the parent and lost on respawn")
        for call in facts.calls:
            if call.root == "self" and ".engine." in f".{call.path}.":
                ctx.emit(
                    "purity-worker", info.module, call.lineno, qualname,
                    f"worker-side code touches '{call.path}' — the "
                    f"parent Engine must never be driven from a fork")
            terminal = call.terminal
            if terminal in _PARENT_ONLY:
                resolved = project.resolve(info.module, call.path)
                if resolved is None or resolved.rpartition(".")[2] \
                        in _PARENT_ONLY:
                    ctx.emit(
                        "purity-worker", info.module, call.lineno,
                        qualname,
                        f"worker-side code calls '{call.path}' — "
                        f"parent-only machinery")


def _check_vector_operators(ctx: RuleContext) -> None:
    project = ctx.project
    base = ctx.config.vector_base_class
    for cls in project.classes.values():
        if not project.is_subclass_of(cls.qualname, base):
            continue
        for method in cls.methods.values():
            if acquires_lock(method):
                ctx.emit(
                    "purity-operator", method.module, method.lineno,
                    method.qualname,
                    "vectorized operator method acquires a lock — "
                    "operators rely on exclusive leased instances, not "
                    "locking")
            if method.facts.global_writes:
                ctx.emit(
                    "purity-operator", method.module, method.lineno,
                    method.qualname,
                    f"vectorized operator method writes module "
                    f"global(s) "
                    f"{', '.join(sorted(method.facts.global_writes))}")
