"""Configuration knobs must be exercised.

Every field of the session configuration class is a promise that the
setting changes behaviour and that the behaviour is tested; a knob that
nothing reads is dead weight, and a knob no test names is a code path —
often a whole subsystem behind it — that CI never runs.

``config-knobs-unread`` — a field of the knob class that no module
outside the one defining it reads as an attribute.

``config-knobs-untested`` — a field whose name appears in no ``*.py``
file of the ``tests`` directory next to the source tree.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from . import RuleContext, rule

#: the configuration class whose fields must all be read and tested
_KNOB_CLASS = "SessionConfig"


def _tests_dir(root: Path) -> Path | None:
    """The ``tests`` directory beside the package (``pkg/../tests``) or
    beside its source root (``src/pkg/../../tests``)."""
    for parent in root.parents[:2]:
        if (parent / "tests").is_dir():
            return parent / "tests"
    return None


@rule("config-knobs")
def check_config_knobs(ctx: RuleContext) -> None:
    for cls in ctx.project.classes_named(_KNOB_CLASS):
        fields = {stmt.target.id: stmt.lineno for stmt in cls.node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)}
        read = {node.attr
                for module in ctx.project.modules.values()
                if module is not cls.module
                for node in ast.walk(module.node)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)}
        tests = _tests_dir(ctx.project.root)
        test_text = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(tests.rglob("*.py"))) if tests else ""
        for name, lineno in fields.items():
            symbol = f"{cls.qualname}.{name}"
            if name not in read:
                ctx.emit("config-knobs-unread", cls.module, lineno, symbol,
                         f"knob {name!r} is read nowhere outside "
                         f"{cls.module.name} — delete it or wire it up")
            if not re.search(rf"\b{re.escape(name)}\b", test_text):
                ctx.emit("config-knobs-untested", cls.module, lineno,
                         symbol,
                         f"knob {name!r} is named by no test — the "
                         f"behaviour behind it never runs in CI")
