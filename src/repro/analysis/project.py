"""Package loading, symbol tables and per-function fact extraction.

:class:`Project.load` walks a package directory, parses every module
with :mod:`ast`, and builds the three symbol tables the rules and the
call graph work from:

* ``modules`` — per-module import alias maps, module-level constants,
  mutable-global detection and ``# repro: allow(...)`` pragma lines;
* ``classes`` — qualified class names with (resolved) base classes and
  their method tables, plus a transitive subclass index;
* ``functions`` — every function, method and *named nested function*
  in the tree, each carrying a :class:`FunctionFacts` block: raw dotted
  call paths, ``with`` context paths, raise/except structure, ``self``
  attribute writes, ``global`` declarations and annotation coverage.

Name resolution is deliberately best-effort: a dotted path is resolved
through the module's import aliases and top-level definitions to a
project-qualified name when possible, and left raw otherwise.  The
rules are written so unresolved names degrade to (documented)
conservatism, never to crashes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

_PRAGMA = re.compile(r"#\s*repro:\s*allow\(([^)]+)\)")

#: Module-level assignments of these shapes are recorded as *mutable
#: globals* — state the purity rules refuse to let kernels touch.
_MUTABLE_CALLS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "WeakSet", "WeakValueDictionary", "Counter",
}


@dataclass(frozen=True)
class CallSite:
    """One call expression: the dotted path as written, and its line."""

    path: str
    lineno: int

    @property
    def terminal(self) -> str:
        return self.path.rpartition(".")[2]

    @property
    def root(self) -> str:
        return self.path.partition(".")[0]


@dataclass(frozen=True)
class WithItem:
    """One ``with`` context expression (dotted paths only)."""

    path: str
    lineno: int
    is_call: bool


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise`` statement; *name* is the dotted path of the raised
    class/callable, or None for a bare re-raise or a non-name value."""

    name: str | None
    lineno: int


@dataclass(frozen=True)
class ExceptSite:
    """One ``except`` handler.

    *types* holds the dotted paths of the caught classes (None for a
    bare ``except:``), *reraises* whether the handler body contains a
    bare ``raise``, and *raised* the dotted names of exceptions the
    handler raises itself (the convert-and-raise pattern).
    """

    types: tuple[str, ...] | None
    lineno: int
    reraises: bool
    raised: tuple[str, ...]


@dataclass
class FunctionFacts:
    """Everything the rules need to know about one function body."""

    calls: list[CallSite] = field(default_factory=list)
    with_items: list[WithItem] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)
    excepts: list[ExceptSite] = field(default_factory=list)
    #: first-level attribute names assigned on ``self`` (including
    #: subscript/augmented stores through a ``self`` attribute)
    self_writes: set[str] = field(default_factory=set)
    #: names declared ``global`` and assigned in this body
    global_writes: set[str] = field(default_factory=set)
    #: bare names read (for mutable-global detection)
    name_loads: set[str] = field(default_factory=set)
    #: one-hop local aliases: ``storage = self.engine.storage`` lets a
    #: later ``storage.append_commit(...)`` resolve its real receiver
    local_aliases: dict[str, str] = field(default_factory=dict)
    #: parameters lacking annotations (``self``/``cls`` excluded)
    unannotated_params: tuple[str, ...] = ()
    has_return_annotation: bool = True


@dataclass
class FunctionInfo:
    """A function, method or named nested function."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    class_name: str | None = None       # enclosing class, if a method
    parent: str | None = None           # enclosing function's qualname
    decorators: tuple[str, ...] = ()
    facts: FunctionFacts = field(default_factory=FunctionFacts)

    @property
    def class_qualname(self) -> str | None:
        if self.class_name is None:
            return None
        return f"{self.module.name}.{self.class_name}"


@dataclass
class ClassInfo:
    """A class definition with its (raw and resolved) bases."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    lineno: int
    bases: tuple[str, ...] = ()          # dotted paths as written
    resolved_bases: tuple[str, ...] = () # project-qualified where possible
    decorators: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    def has_decorator(self, name: str) -> bool:
        return any(dec.rpartition(".")[2] == name for dec in self.decorators)


@dataclass
class ModuleInfo:
    """One parsed module with its local symbol table."""

    name: str
    path: Path
    node: ast.Module
    source_lines: list[str]
    #: line number -> set of rule names allowed by an inline pragma
    pragmas: dict[int, set[str]] = field(default_factory=dict)
    #: local alias -> qualified name (``from ..catalog import Catalog``
    #: in ``repro.api.engine`` maps ``Catalog -> repro.catalog.Catalog``)
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = <int/str literal>`` assignments
    constants: dict[str, ast.expr] = field(default_factory=dict)
    #: module-level names bound to mutable containers
    mutable_globals: set[str] = field(default_factory=set)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    def matches(self, pattern: str) -> bool:
        """fnmatch-style *pattern* test against the module name with the
        top package stripped, so rules written for ``repro`` apply to
        test fixture packages unchanged."""
        import fnmatch
        bare = self.name.partition(".")[2] or self.name
        return fnmatch.fnmatch(bare, pattern) or \
            fnmatch.fnmatch(self.name, pattern)


def dotted_path(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FactVisitor(ast.NodeVisitor):
    """Collects :class:`FunctionFacts` for one function body, without
    descending into nested function/class definitions (those get their
    own :class:`FunctionInfo`)."""

    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts

    # -- boundaries -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass                             # separate FunctionInfo

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.generic_visit(node)         # lambda bodies count as the parent

    # -- facts ----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        path = dotted_path(node.func)
        if path is not None:
            self.facts.calls.append(CallSite(path, node.lineno))
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with(node)

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                path = dotted_path(expr.func)
                if path is not None:
                    self.facts.with_items.append(
                        WithItem(path, expr.lineno, True))
            else:
                path = dotted_path(expr)
                if path is not None:
                    self.facts.with_items.append(
                        WithItem(path, expr.lineno, False))
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        name: str | None = None
        if node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = dotted_path(target)
        self.facts.raises.append(RaiseSite(name, node.lineno))
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            types: tuple[str, ...] | None
            if handler.type is None:
                types = None
            elif isinstance(handler.type, ast.Tuple):
                types = tuple(p for p in (dotted_path(el)
                                          for el in handler.type.elts)
                              if p is not None)
            else:
                path = dotted_path(handler.type)
                types = (path,) if path is not None else ()
            reraises = False
            raised: list[str] = []
            for sub in ast.walk(handler):
                if isinstance(sub, ast.Raise):
                    if sub.exc is None:
                        reraises = True
                    else:
                        target = sub.exc
                        if isinstance(target, ast.Call):
                            target = target.func
                        path = dotted_path(target)
                        if path is not None:
                            raised.append(path)
            self.facts.excepts.append(ExceptSite(
                types, handler.lineno, reraises, tuple(raised)))
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.facts.global_writes.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._store(target)
        if len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            value = dotted_path(node.value)
            if value is not None and "." in value:
                self.facts.local_aliases[node.targets[0].id] = value
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._store(node.target)
        self.generic_visit(node)

    def _store(self, target: ast.expr) -> None:
        # self.x = ..., self.x[k] = ..., self.x.y = ... all record "x"
        while isinstance(target, ast.Subscript):
            target = target.value
        path = dotted_path(target)
        if path is not None and "." in path and path.startswith("self."):
            self.facts.self_writes.add(path.split(".")[1])

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts.name_loads.add(node.id)


def _annotation_facts(node: ast.FunctionDef | ast.AsyncFunctionDef
                      ) -> tuple[tuple[str, ...], bool]:
    """Unannotated parameter names (self/cls excluded) and whether the
    function declares a return annotation."""
    args = node.args
    ordered = list(args.posonlyargs) + list(args.args)
    missing: list[str] = []
    for i, arg in enumerate(ordered):
        if i == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    for arg in args.kwonlyargs:
        if arg.annotation is None:
            missing.append(arg.arg)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    return tuple(missing), node.returns is not None


class Project:
    """A loaded package tree: modules, classes, functions, resolution."""

    def __init__(self, package: str, root: Path) -> None:
        self.package = package
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self.subclasses: dict[str, set[str]] = {}

    # -- loading --------------------------------------------------------------

    @classmethod
    def load(cls, root: "Path | str") -> "Project":
        """Parse every ``*.py`` under *root* (a package directory)."""
        root = Path(root).resolve()
        project = cls(root.name, root)
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            parts = (root.name,) + rel.parts[:-1]
            if rel.name != "__init__.py":
                parts = parts + (rel.stem,)
            project._load_module(".".join(parts), path)
        project._link()
        return project

    def _load_module(self, name: str, path: Path) -> None:
        source = path.read_text(encoding="utf-8")
        node = ast.parse(source, filename=str(path))
        module = ModuleInfo(name=name, path=path, node=node,
                            source_lines=source.splitlines())
        for lineno, line in enumerate(module.source_lines, 1):
            match = _PRAGMA.search(line)
            if match:
                rules = {part.strip() for part
                         in re.split(r"[,\s]+", match.group(1)) if part}
                module.pragmas[lineno] = rules
        self._scan_imports(module)
        self._scan_toplevel(module)
        self.modules[name] = module

    def _scan_imports(self, module: ModuleInfo) -> None:
        for stmt in ast.walk(module.node):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.partition(".")[0]
                    module.imports[local] = target
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_base(module, stmt)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}" \
                        if base else alias.name

    def _import_base(self, module: ModuleInfo,
                     stmt: ast.ImportFrom) -> str:
        if not stmt.level:
            return stmt.module or ""
        # relative import: walk up from the module's package
        parts = module.name.split(".")
        if module.path.name != "__init__.py":
            parts = parts[:-1]           # the containing package
        parts = parts[:len(parts) - (stmt.level - 1)]
        if stmt.module:
            parts.append(stmt.module)
        return ".".join(parts)

    def _scan_toplevel(self, module: ModuleInfo) -> None:
        for stmt in module.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_name=None,
                                   parent=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(module, stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module.constants[target.id] = stmt.value
                        if self._is_mutable(stmt.value):
                            module.mutable_globals.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    module.constants[stmt.target.id] = stmt.value
                    if self._is_mutable(stmt.value):
                        module.mutable_globals.add(stmt.target.id)

    @staticmethod
    def _is_mutable(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            path = dotted_path(value.func)
            if path is not None and \
                    path.rpartition(".")[2] in _MUTABLE_CALLS:
                return True
        return False

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        bases = tuple(p for p in (dotted_path(b) for b in node.bases)
                      if p is not None)
        decorators = tuple(
            p for p in (dotted_path(d.func if isinstance(d, ast.Call)
                                    else d)
                        for d in node.decorator_list)
            if p is not None)
        info = ClassInfo(qualname=qualname, name=node.name, module=module,
                         node=node, lineno=node.lineno, bases=bases,
                         decorators=decorators)
        module.classes[node.name] = info
        self.classes[qualname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._add_function(module, stmt,
                                            class_name=node.name,
                                            parent=None)
                info.methods[stmt.name] = method
            elif isinstance(stmt, ast.ClassDef):
                # one level of class nesting (Outer._Inner)
                self._add_class(module, _prefixed(stmt, node.name))

    def _add_function(self, module: ModuleInfo,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      class_name: str | None,
                      parent: str | None) -> FunctionInfo:
        scope = f"{module.name}.{class_name}" if class_name else module.name
        qualname = f"{parent}.{node.name}" if parent \
            else f"{scope}.{node.name}"
        facts = FunctionFacts()
        visitor = _FactVisitor(facts)
        for stmt in node.body:
            visitor.visit(stmt)
        facts.unannotated_params, facts.has_return_annotation = \
            _annotation_facts(node)
        decorators = tuple(
            p for p in (dotted_path(d.func if isinstance(d, ast.Call)
                                    else d)
                        for d in node.decorator_list)
            if p is not None)
        info = FunctionInfo(qualname=qualname, name=node.name,
                            module=module, node=node, lineno=node.lineno,
                            class_name=class_name, parent=parent,
                            decorators=decorators, facts=facts)
        self.functions[qualname] = info
        if class_name is None and parent is None:
            module.functions[node.name] = info
        if class_name is not None:
            self.methods_by_name.setdefault(node.name, []).append(info)
        # named nested functions become their own nodes, with an
        # implicit parent -> child call edge added by the call graph
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and self._direct_child(node, stmt):
                self._add_function(module, stmt, class_name=class_name,
                                   parent=qualname)
        return info

    @staticmethod
    def _direct_child(outer: ast.AST, inner: ast.AST) -> bool:
        """Whether *inner* is defined directly in *outer*'s body (not in
        a further nested function/class)."""
        stack: list[ast.AST] = [outer]
        while stack:
            node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if child is inner:
                    return node is outer or not isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef))
                if not isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                    stack.append(child)
        # not found directly: inner lives in a nested def, which will
        # register it when its own subtree is walked
        return False

    def _link(self) -> None:
        """Resolve class bases and build the transitive subclass index."""
        for info in self.classes.values():
            resolved = []
            for base in info.bases:
                target = self.resolve(info.module, base)
                resolved.append(target if target is not None else base)
            info.resolved_bases = tuple(resolved)
        for info in self.classes.values():
            for ancestor in self.ancestors(info.qualname):
                self.subclasses.setdefault(ancestor, set()).add(
                    info.qualname)

    # -- resolution -----------------------------------------------------------

    def resolve(self, module: ModuleInfo, path: str) -> str | None:
        """Best-effort project-qualified name for dotted *path* as seen
        from *module*; None when the root name is unknown."""
        root, _, rest = path.partition(".")
        if root in ("self", "cls"):
            return None
        target: str | None = None
        if root in module.imports:
            target = module.imports[root]
        elif root in module.classes or root in module.functions \
                or root in module.constants:
            target = f"{module.name}.{root}"
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def ancestors(self, class_qualname: str) -> Iterator[str]:
        """Transitive resolved base classes of *class_qualname* that are
        defined in the project."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = self.classes.get(stack.pop())
            if current is None:
                continue
            for base in current.resolved_bases:
                if base in self.classes and base not in seen:
                    seen.add(base)
                    stack.append(base)
                    yield base

    def is_subclass_of(self, class_qualname: str, base_name: str) -> bool:
        """Whether the class derives (transitively) from a project class
        whose qualified name — or bare class name — is *base_name*."""
        for ancestor in self.ancestors(class_qualname):
            if ancestor == base_name or \
                    ancestor.rpartition(".")[2] == base_name:
                return True
        return False

    def classes_named(self, name: str) -> list[ClassInfo]:
        return [c for c in self.classes.values() if c.name == name]

    def method_resolves(self, class_qualname: str, method: str
                        ) -> FunctionInfo | None:
        """The method as Python would resolve it: the class itself, then
        its project ancestors in discovery order."""
        info = self.classes.get(class_qualname)
        if info is not None and method in info.methods:
            return info.methods[method]
        for ancestor in self.ancestors(class_qualname):
            ancestor_info = self.classes[ancestor]
            if method in ancestor_info.methods:
                return ancestor_info.methods[method]
        return None

    # -- pragmas --------------------------------------------------------------

    def allowed(self, module: ModuleInfo, lineno: int, rule: str,
                symbol: str | None = None) -> bool:
        """Whether *rule* is suppressed at *lineno* — by a pragma on the
        line itself, in the comment block immediately above it, or on
        (or above) the ``def``/``class`` line of *symbol*."""
        if self._pragma_at(module, lineno, rule):
            return True
        if symbol is not None:
            info = self.functions.get(symbol) or self.classes.get(symbol)
            if info is not None and \
                    self._pragma_at(module, info.lineno, rule):
                return True
        return False

    @staticmethod
    def _pragma_at(module: ModuleInfo, lineno: int, rule: str) -> bool:
        def match(probe: int) -> bool:
            rules = module.pragmas.get(probe)
            if not rules:
                return False
            # exact rule id, its family prefix, or the wildcard
            return any(rule == allowed
                       or rule.startswith(allowed + "-")
                       or allowed == "*" for allowed in rules)

        if match(lineno):
            return True
        # walk the contiguous comment (or decorator) block above — the
        # conventional place for a pragma with a reason attached
        probe = lineno - 1
        while probe >= 1:
            text = module.source_lines[probe - 1].strip()
            if not (text.startswith("#") or text.startswith("@")):
                break
            if match(probe):
                return True
            probe -= 1
        return False

    def relpath(self, module: ModuleInfo) -> str:
        """Module path relative to the package root's parent — the path
        printed in reports and recorded in the baseline."""
        return str(module.path.relative_to(self.root.parent))


def _prefixed(node: ast.ClassDef, prefix: str) -> ast.ClassDef:
    """A shallow rename for nested classes: ``_Inner`` inside ``Outer``
    registers as ``Outer._Inner``."""
    import copy
    clone = copy.copy(node)
    clone.name = f"{prefix}.{node.name}"
    return clone
