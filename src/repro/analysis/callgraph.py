"""A best-effort call graph over a loaded :class:`~.project.Project`,
with the reachability queries the rules are built on.

Edges come from four resolutions, in decreasing confidence:

* a call path whose root resolves through the module symbol table to a
  project function (``encode_commit_ops(...)``, ``wal.append(...)``);
* a resolved project *class* — treated as a call of its ``__init__``;
* ``self.method(...)`` — an edge to the enclosing class's method as
  Python would resolve it, plus every override in project subclasses
  (dynamic dispatch is over-approximated, never ignored);
* *name matching*, off by default: an unresolved attribute call
  ``obj.meth(...)`` can be linked to every project method named
  ``meth``.  Rules opt in per query with an explicit name set, so
  promiscuous names (``close``, ``get``) don't fuse the graph.

The central query is :meth:`CallGraph.reaches_avoiding` — "can *src*
reach *target* without passing through any *blocked* node?" — which is
how lock-protection ("every path from an entry point passes through an
acquire") and fork-safety ("nothing on the worker side reaches a lock")
are both phrased.
"""

from __future__ import annotations

from typing import Iterable

from .project import FunctionInfo, Project


class CallGraph:
    """Forward/reverse call edges plus unresolved-name call records."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller qualname -> set of callee qualnames (resolved edges)
        self.edges: dict[str, set[str]] = {}
        #: caller qualname -> terminal names of unresolved attr calls
        self.name_calls: dict[str, set[str]] = {}
        #: method name -> qualnames of every project method so named
        self._by_name: dict[str, set[str]] = {}
        for info in project.functions.values():
            self._build(info)
        self.reverse: dict[str, set[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                self.reverse.setdefault(callee, set()).add(caller)

    # -- construction ---------------------------------------------------------

    def _build(self, info: FunctionInfo) -> None:
        project = self.project
        edges = self.edges.setdefault(info.qualname, set())
        names = self.name_calls.setdefault(info.qualname, set())
        if info.class_name is not None and info.parent is None:
            self._by_name.setdefault(info.name, set()).add(info.qualname)
        # defining a nested function may run it
        if info.parent is not None:
            self.edges.setdefault(info.parent, set()).add(info.qualname)
        for call in info.facts.calls:
            if call.root in ("self", "cls") and info.class_name is not None:
                segments = call.path.split(".")
                if len(segments) == 2:
                    self._link_method(edges, info.class_qualname or "",
                                      segments[1])
                else:
                    names.add(call.terminal)
                continue
            resolved = project.resolve(info.module, call.path)
            if resolved is None:
                if "." in call.path:
                    names.add(call.terminal)
                continue
            if resolved in project.functions:
                edges.add(resolved)
            elif resolved in project.classes:
                init = project.method_resolves(resolved, "__init__")
                if init is not None:
                    edges.add(init.qualname)
            elif "." in call.path:
                # resolved prefix, unknown suffix (os.fork, wal.append
                # where append is not top-level): fall back to a
                # Class.method interpretation before giving up
                prefix, _, method = resolved.rpartition(".")
                if prefix in project.classes:
                    self._link_method(edges, prefix, method)
                else:
                    names.add(call.terminal)

    def _link_method(self, edges: set[str], class_qualname: str,
                     method: str) -> None:
        project = self.project
        target = project.method_resolves(class_qualname, method)
        if target is not None:
            edges.add(target.qualname)
        # dynamic dispatch: every override in subclasses of the class
        for sub in project.subclasses.get(class_qualname, ()):  # noqa: B007
            sub_info = project.classes[sub]
            if method in sub_info.methods:
                edges.add(sub_info.methods[method].qualname)

    # -- queries --------------------------------------------------------------

    def _successors(self, node: str,
                    follow_names: frozenset[str]) -> Iterable[str]:
        yield from self.edges.get(node, ())
        if follow_names:
            for name in self.name_calls.get(node, ()):
                if name in follow_names:
                    yield from self._by_name.get(name, ())

    def reachable(self, roots: Iterable[str],
                  follow_names: Iterable[str] = ()) -> set[str]:
        """Every function reachable from *roots* along call edges.
        *follow_names* additionally links unresolved ``obj.meth(...)``
        calls to all project methods named ``meth``, for those names."""
        names = frozenset(follow_names)
        seen: set[str] = set()
        stack = [r for r in roots if r in self.project.functions]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(s for s in self._successors(node, names)
                         if s not in seen)
        return seen

    def reaches_avoiding(self, src: str, target: str,
                         blocked: frozenset[str],
                         follow_names: Iterable[str] = ()) -> bool:
        """Whether *src* can reach *target* along call edges without
        entering any node in *blocked*.  *src* or *target* being
        blocked means no: the path would pass through them."""
        if src in blocked or target in blocked:
            return False
        names = frozenset(follow_names)
        seen: set[str] = set()
        stack = [src]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(s for s in self._successors(node, names)
                         if s not in seen and s not in blocked)
        return False

    def entry_points(self) -> list[str]:
        """Functions with no resolved project caller — the conservative
        root set for "every path from outside" queries.  Nested
        functions are excluded (their definer is their caller)."""
        roots = []
        for qualname, info in self.project.functions.items():
            if info.parent is not None:
                continue
            if not self.reverse.get(qualname):
                roots.append(qualname)
        return roots
